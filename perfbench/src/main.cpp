// perfbench — the ArrayFlex benchmark program.
//
//   perfbench --workload <cost_queries|decode_serving|cycle_verify|design_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-describe <text>] [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics for --seconds with tracing off.
// --trace 1 splits --seconds into an untraced and a traced half, reports
// every per-layer metric (live where the workload calls the layer, from the
// ladder otherwise), each layer's self-time share, and the tracing overhead
// (traced minus untraced end-to-end metrics), and writes the kept spans to
// --trace-out.  The last line of standard output is the result object.

#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// "client" is the benchmark's own work (generation, checks); "idle" is a
// thread waiting: an open-loop thread for its next due time or arrival, a
// design sweeper at the lockstep barrier.
const char* const kLayers[] = {"client", "idle", "fleet", "serve", "engine",
                               "mem",    "gemm", "arch",  "nn",    "hw"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string git_describe = "unknown";
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--git-describe") a.git_describe = val;
    else if (key == "--trace-out") a.trace_out = val;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

std::function<PhaseResult(const RunSpec&)> workload_fn(const std::string& name) {
  if (name == "cost_queries") return run_cost_queries;
  if (name == "decode_serving") return run_decode_serving;
  if (name == "cycle_verify") return run_cycle_verify;
  if (name == "design_sweep") return run_design_sweep;
  return nullptr;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Span-derived per-layer metrics: mean durations of the calls the workload
// makes into a layer, and every layer's self-time share of all span time.
void add_span_metrics(const Tracer& tracer, Metrics& m) {
  const auto agg = tracer.aggregates();
  const auto mean_of = [&](std::initializer_list<const char*> names, double scale,
                           const char* metric, const char* unit) {
    double total = 0.0;
    std::int64_t count = 0;
    for (const char* n : names) {
      const auto it = agg.find(n);
      if (it == agg.end()) continue;
      total += it->second.total_ns;
      count += it->second.count;
    }
    if (count > 0) m[metric] = {total / static_cast<double>(count) * scale, unit};
  };
  mean_of({"fleet.submit_gemm", "fleet.submit_inference"}, 1e-3, "fleet.submit_us", "us");
  mean_of({"serve.submit_gemm", "serve.submit_gemm_batch"}, 1e-3, "serve.submit_us", "us");
  mean_of({"nn.run"}, 1e-3, "nn.run_us", "us");
  mean_of({"hw.sta"}, 1e-6, "hw.sta_ms", "ms");
  mean_of({"hw.characterize_energy"}, 1e-6, "hw.characterize_ms", "ms");

  double all_self = 0.0;
  std::map<std::string, double> layer_self;
  std::int64_t spans = 0;
  for (const auto& [name, a] : agg) {
    const std::string layer = name.substr(0, name.find('.'));
    layer_self[layer] += a.self_ns;
    all_self += a.self_ns;
    spans += a.count;
  }
  for (const char* layer : kLayers) {
    const double share = all_self > 0 ? layer_self[layer] / all_self : 0.0;
    m[std::string(layer) + ".self_share"] = {share, "ratio"};
  }
  m["trace.spans"] = {static_cast<double>(spans), "count"};
}

void print_metrics(const char* title, const Metrics& m) {
  std::cout << title << "\n";
  for (const auto& [name, metric] : m) {
    std::printf("  %-32s %18.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::fflush(stdout);
}

// Ratio lines with their bases, and the self-time table, for the traced report.
void print_trace_report(const Metrics& m) {
  const auto v = [&](const char* n) {
    const auto it = m.find(n);
    return it == m.end() ? 0.0 : it->second.value;  // missing: failed below
  };
  std::printf("self-time share per layer (of all span time in the traced half):\n");
  for (const char* layer : kLayers) {
    std::printf("  %-8s %6.2f%%\n", layer, 100.0 * v((std::string(layer) + ".self_share").c_str()));
  }
  std::printf("ratios with their bases:\n");
  std::printf("  serve.batch_size           %.4g requests over %.0f batches\n",
              v("serve.batch_size"), v("serve.batches"));
  std::printf("  serve.fusion_ratio         %.4g GEMM requests over %.0f fused runs\n",
              v("serve.fusion_ratio"), v("serve.fused_runs"));
  std::printf("  serve.steal_share          %.4g steals over %.0f batches\n",
              v("serve.steal_share"), v("serve.batches"));
  std::printf("  serve.reconfig_share       %.4g of %.6g ms simulated busy + reconfig\n",
              v("serve.reconfig_share"), v("serve.sim_busy_ms"));
  std::printf("  serve.cost_cache_hit_ratio %.4g of %.0f lookups\n",
              v("serve.cost_cache_hit_ratio"), v("serve.cost_cache_lookups"));
  std::printf("  mem.stall_share            %.4g of %.0f simulated cycles\n",
              v("mem.stall_share"), v("mem.cycles"));
  std::printf("  serve.queue_ms_p50/p99     over %.0f results\n", v("serve.result_samples"));
  std::printf("  fleet.resolve_ms_p50/p99   over %.0f fleet tickets\n", v("fleet.tickets"));
  std::printf("tracing overhead (traced minus untraced): requests_per_s %+.6g, "
              "latency_p50_ms %+.6g, cpu_us_per_req %+.6g\n",
              v("trace.overhead_requests_per_s"), v("trace.overhead_latency_p50_ms"),
              v("trace.overhead_cpu_us_per_req"));
}

int run(const Args& args) {
  const auto fn = workload_fn(args.workload);
  if (!fn) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::printf("workload %s, seed %llu, %.3g s, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::fflush(stdout);

  bool correct = true;
  std::int64_t attempted = 0, failed = 0, samples = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::string> notes;
  Metrics out;
  const auto absorb = [&](const PhaseResult& r) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    samples += r.latency_samples;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    for (const auto& [k, v] : r.notes) notes[k] = v;
  };

  if (args.trace == 0) {
    RunSpec spec;
    spec.seed = args.seed;
    spec.seconds = args.seconds;
    const PhaseResult r = fn(spec);
    absorb(r);
    out = r.e2e;
    print_metrics("end-to-end metrics (tracing off):", r.e2e);
  } else {
    RunSpec spec;
    spec.seed = args.seed;
    spec.seconds = args.seconds / 2;
    const PhaseResult plain = fn(spec);
    absorb(plain);
    Tracer tracer;
    spec.tracer = &tracer;
    PhaseResult traced = fn(spec);
    absorb(traced);
    print_metrics("end-to-end metrics, untraced half:", plain.e2e);
    print_metrics("end-to-end metrics, traced half:", traced.e2e);

    out = traced.layers;
    add_span_metrics(tracer, out);
    run_ladder(traced.ladder, args.seed, out);
    for (const char* name : {"requests_per_s", "latency_p50_ms", "cpu_us_per_req"}) {
      out[std::string("trace.overhead_") + name] = {
          traced.e2e.at(name).value - plain.e2e.at(name).value, plain.e2e.at(name).unit};
    }
    print_metrics("per-layer metrics:", out);
    print_trace_report(out);
    if (!args.trace_out.empty()) {
      if (tracer.write(args.trace_out)) {
        std::printf("wrote %zu spans to %s\n", tracer.kept_spans(), args.trace_out.c_str());
      } else {
        errors.push_back("could not write " + args.trace_out);
        correct = false;
      }
    }
  }

  // run.py checks the names and units against BENCHMARK.json; a value
  // JSON cannot carry fails the run here.
  Metrics result;
  for (const auto& [name, metric] : out) {
    if (std::isfinite(metric.value)) {
      result[name] = metric;
    } else {
      errors.push_back("metric " + name + " is not finite");
      correct = false;
      result[name] = {0.0, metric.unit};
    }
  }

  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  std::printf("error_rate %.6g (%lld failed of %lld attempted); latency samples %lld\n",
              error_rate, static_cast<long long>(failed),
              static_cast<long long>(attempted), static_cast<long long>(samples));
  for (const auto& [k, v] : notes) std::printf("%s %s\n", k.c_str(), v.c_str());
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::cout << "{\"meta\": {\"workload\": " << json_string(args.workload)
            << ", \"seed\": " << args.seed << ", \"seconds\": " << num(args.seconds)
            << ", \"trace\": " << args.trace
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << json_string(compiler)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"git_describe\": " << json_string(args.git_describe)
            << ", \"error_rate\": " << num(error_rate)
            << ", \"latency_samples\": " << samples << ", \"notes\": {";
  for (auto it = notes.begin(); it != notes.end(); ++it) {
    std::cout << (it == notes.begin() ? "" : ", ") << json_string(it->first) << ": "
              << json_string(it->second);
  }
  std::cout << "}}}\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::int64_t>(attempted, 1)
            << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result) {
    std::cout << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
              << num(metric.value) << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-describe <text>] [--trace-out <file>]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

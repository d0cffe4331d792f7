// decode_serving — open-loop execution traffic against a fleet::Fleet.
//
// One generator thread sends seeded Poisson arrivals at a fixed rate to a
// fleet of two servers (one shard, 32x32 array, memory hierarchy on,
// "sticky" reconfiguration, outputs requested).  An arrival is a decode
// step of a two-block transformer for a session's batch of sequences
// (every serve::decode_gemms phase GEMM of each sequence, submitted phase
// by phase; all sequences share one weight bundle, so same-phase GEMMs
// fuse), rarely a short prefill chunk, rarely a submit_inference of a
// paper CNN.
// One collector thread resolves the futures in arrival order and checks
// every GEMM
// output against gemm::reference_gemm and every inference report against a
// direct nn::InferenceRunner::run.  Each call's latency runs from its
// arrival's due time to its result; the generator's lateness is reported
// and a run whose generator fell behind its schedule is marked invalid.
// One request = one arrival.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <thread>

#include "bench.h"
#include "engine/engine.h"
#include "fleet/fleet.h"
#include "layer_stats.h"
#include "nn/runner.h"
#include "nn/transformer.h"
#include "serve/transformer_traffic.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Offered load.  On 4 cores (g++ 12, Release) the fleet starts rejecting
// arrivals near 1000/s; 500/s is about half that capacity.
constexpr double kArrivalsPerS = 500.0;
constexpr std::uint64_t kPrefillEvery = 50;     // 2% of arrivals
constexpr std::uint64_t kInferenceEvery = 200;  // 0.5% of arrivals
constexpr std::int64_t kPrefillRows = 8;
constexpr std::int64_t kKvLen = 128;
constexpr int kSessions = 6;
constexpr int kDecodePool = 32;
// Two sequences per step let same-phase GEMMs fuse.  More sequences put
// more tickets in each fleet collector's pending scan at once, and its
// per-request CPU cost then jumps between runs.
constexpr int kSequencesPerStep = 2;
constexpr int kPrefillPool = 4;
// The generator is behind its schedule when more than 1% of arrivals
// leave later than this after their due time (a blocked submit or a
// backlog of arrivals, not a scheduling hiccup).
constexpr double kLateMs = 20.0;
constexpr double kLateShareLimit = 0.01;

struct Expected {
  gemm::Mat32 a;
  std::shared_ptr<const gemm::Mat32> b;
  gemm::Mat64 out;  // reference_gemm(a, *b)
};

struct CnnCase {
  std::shared_ptr<const nn::Model> model;
  nn::ModelReport report;  // direct InferenceRunner::run
};

struct State {
  std::unique_ptr<fleet::Fleet> fleet;
  serve::TransformerWeights weights;
  std::vector<std::vector<Expected>> decode;   // pool of decode steps
  std::vector<std::vector<Expected>> prefill;  // pool of prefill chunks
  std::vector<CnnCase> cnns;
};

arch::ArrayConfig array_config() {
  arch::ArrayConfig cfg = arch::ArrayConfig::square(32);
  cfg.mem.enabled = true;
  cfg.mem.spad_bytes = std::int64_t{8} << 20;  // fits every paper-CNN layer
  return cfg;
}

nn::TransformerConfig transformer_config() {
  nn::TransformerConfig tc;
  tc.d_model = 128;
  tc.n_heads = 2;
  tc.d_ff = 512;
  tc.n_blocks = 2;
  return tc;
}

std::vector<Expected> with_reference(std::vector<serve::PhaseGemm> gemms) {
  std::vector<Expected> out;
  for (serve::PhaseGemm& g : gemms) {
    Expected e;
    e.out = gemm::reference_gemm(g.a, *g.b);
    e.a = std::move(g.a);
    e.b = g.b;
    out.push_back(std::move(e));
  }
  return out;
}

State set_up(std::uint64_t seed) {
  State s;
  std::vector<fleet::FleetServerSpec> specs;
  for (int i = 0; i < 2; ++i) {
    fleet::FleetServerSpec spec;
    spec.config = array_config();
    spec.options.num_shards = 1;
    spec.options.backend = "analytic";
    spec.options.reconfig_policy = "sticky";
    spec.options.queue_capacity = 4096;  // absorbs a CNN's head-of-line burst
    spec.options.latency_hist_max_ms = 1000.0;
    specs.push_back(spec);
  }
  s.fleet = std::make_unique<fleet::Fleet>(std::move(specs));

  af::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 23);
  s.weights = serve::make_transformer_weights(transformer_config(), kKvLen, rng);
  for (int i = 0; i < kDecodePool; ++i) {
    std::vector<std::vector<Expected>> seqs;
    for (int q = 0; q < kSequencesPerStep; ++q) {
      seqs.push_back(with_reference(serve::decode_gemms(s.weights, rng)));
    }
    std::vector<Expected> step;  // phase-major: same-weight GEMMs adjacent
    for (std::size_t g = 0; g < seqs[0].size(); ++g) {
      for (auto& seq : seqs) step.push_back(std::move(seq[g]));
    }
    s.decode.push_back(std::move(step));
  }
  for (int i = 0; i < kPrefillPool; ++i) {
    s.prefill.push_back(
        with_reference(serve::prefill_gemms(s.weights, kPrefillRows, rng)));
  }
  const nn::InferenceRunner runner(
      engine::EngineBuilder().config(array_config()).build("analytic"));
  for (nn::Model& m : nn::paper_models()) {
    CnnCase c;
    c.report = runner.run(m);
    c.model = std::make_shared<const nn::Model>(std::move(m));
    s.cnns.push_back(std::move(c));
  }
  return s;
}

bool same_report(const nn::ModelReport& a, const nn::ModelReport& b) {
  if (a.layers.size() != b.layers.size() ||
      a.arrayflex_time_ps != b.arrayflex_time_ps ||
      a.conventional_time_ps != b.conventional_time_ps ||
      a.arrayflex_energy_pj != b.arrayflex_energy_pj ||
      a.conventional_energy_pj != b.conventional_energy_pj ||
      a.arrayflex_dram_bytes != b.arrayflex_dram_bytes ||
      a.arrayflex_stall_cycles != b.arrayflex_stall_cycles ||
      a.spad_peak_bytes != b.spad_peak_bytes) {
    return false;
  }
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const nn::LayerReport& x = a.layers[i];
    const nn::LayerReport& y = b.layers[i];
    if (x.arrayflex.k != y.arrayflex.k || x.arrayflex.cycles != y.arrayflex.cycles ||
        x.arrayflex.time_ps != y.arrayflex.time_ps ||
        x.conventional.cycles != y.conventional.cycles ||
        x.stall_cycles != y.stall_cycles || x.dram_bytes != y.dram_bytes) {
      return false;
    }
  }
  return true;
}

enum class Kind { kDecode, kPrefill, kInference };

struct Arrival {
  Kind kind = Kind::kDecode;
  std::uint64_t id = 0;
  Clock::time_point due;
  std::size_t pool = 0;
  std::vector<std::future<serve::GemmResult>> gemms;
  std::vector<Clock::time_point> sent;
  std::future<serve::InferenceResult> inference;
  bool failed = false;
};

// FIFO hand-off from the generator to the collector.
class ArrivalQueue {
 public:
  void push(Arrival a) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      items_.push_back(std::move(a));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  bool pop(Arrival& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Arrival> items_;
  bool closed_ = false;
};

struct CollectorLog {
  // Per GEMM result, kept only in a traced run (per-layer metrics).
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> resolve_ms;  // observed since submit - latency_ms
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t inference_slices = 0;
  std::int64_t cycles = 0;
  std::int64_t stall_cycles = 0;
  std::vector<std::string> errors;
};

void collect(State& s, Tracer* tracer, ArrivalQueue& queue, Meter::Recorder& rec,
             CollectorLog& log) {
  PB_SPAN(tracer, "client.collector", 0);
  Arrival a;
  for (;;) {
    {
      PB_SPAN(tracer, "idle.queue", 0);
      if (!queue.pop(a)) break;
    }
    bool ok = !a.failed;
    bool matches = true;
    std::int64_t shapes = 0;
    double macs = 0.0;
    if (a.kind == Kind::kInference) {
      if (!a.inference.valid()) {  // the submit itself threw
        ++log.failed;
        continue;
      }
      try {
        serve::InferenceResult r;
        {
          PB_SPAN(tracer, "fleet.wait", a.id);
          r = a.inference.get();
        }
        rec.latency(ms_between(a.due, Clock::now()));
        const CnnCase& c = s.cnns[a.pool];
        matches = same_report(r.report, c.report);
        shapes = static_cast<std::int64_t>(c.model->layers.size());
        macs = static_cast<double>(c.model->total_macs());
        log.inference_slices += r.num_slices;
      } catch (const std::exception& e) {
        ok = false;
        if (log.errors.size() < 4) log.errors.push_back(e.what());
      }
    } else {
      const std::vector<Expected>& pool =
          a.kind == Kind::kDecode ? s.decode[a.pool] : s.prefill[a.pool];
      for (std::size_t i = 0; i < a.gemms.size(); ++i) {
        try {
          serve::GemmResult r;
          {
            PB_SPAN(tracer, "fleet.wait", a.id);
            r = a.gemms[i].get();
          }
          const Clock::time_point now = Clock::now();
          rec.latency(ms_between(a.due, now));
          const double observed = ms_between(a.sent[i], now);
          if (tracer != nullptr) {
            log.resolve_ms.push_back(observed - r.latency_ms);
            log.queue_ms.push_back(r.queue_ms);
            log.exec_ms.push_back(r.latency_ms - r.queue_ms);
          }
          log.cycles += r.cycles;
          log.stall_cycles += r.stall_cycles;
          if (!(r.out == pool[i].out)) matches = false;
          shapes += 1;
          macs += static_cast<double>(pool[i].a.rows() * pool[i].a.cols() *
                                      pool[i].b->cols());
        } catch (const std::exception& e) {
          ok = false;
          if (log.errors.size() < 4) log.errors.push_back(e.what());
        }
      }
    }
    if (!matches && log.errors.size() < 4) {
      log.errors.push_back(a.kind == Kind::kInference
                               ? "decode_serving: inference report differs "
                                 "from InferenceRunner::run"
                               : "decode_serving: GEMM output differs from "
                                 "reference_gemm");
    }
    if (ok) {
      rec.work(1, shapes, macs);
      ++log.completed;
    } else {
      ++log.failed;
    }
  }
}

}  // namespace

PhaseResult run_decode_serving(const RunSpec& spec) {
  PhaseResult r;
  State s;
  const double setup_s = timed_setups(s, [&] { return set_up(spec.seed); });

  ArrivalQueue queue;
  CollectorLog log;
  std::vector<double> lateness_ms;
  std::int64_t arrivals = 0;
  std::vector<std::string> submit_errors;
  const std::vector<std::string> tenants = [] {
    std::vector<std::string> t;
    for (int i = 0; i < kSessions; ++i) t.push_back("session-" + std::to_string(i));
    return t;
  }();

  Meter meter(spec.seconds);
  Meter::Recorder& rec = meter.recorder();
  const Clock::time_point end = meter.start();
  const Clock::time_point t0 =
      end - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(spec.seconds));
  std::thread collector(collect, std::ref(s), spec.tracer, std::ref(queue),
                        std::ref(rec), std::ref(log));
  {
    PB_SPAN(spec.tracer, "client.generator", 0);
    af::Rng rng(spec.seed * 0x2545f4914f6cdd1dULL + 5);
    double offset_s = 0.0;
    for (std::uint64_t id = 1;; ++id) {
      offset_s += -std::log(1.0 - rng.next_double()) / kArrivalsPerS;
      if (offset_s >= spec.seconds) break;
      Arrival a;
      a.id = id;
      a.due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
      // The mix is interleaved by arrival index, not drawn, so every run
      // carries the same share of heavy requests and the same CNN rotation.
      a.kind = id % kInferenceEvery == kInferenceEvery / 2 ? Kind::kInference
               : id % kPrefillEvery == 0                   ? Kind::kPrefill
                                                           : Kind::kDecode;
      const std::string& tenant = tenants[rng.next_below(kSessions)];
      a.pool = a.kind == Kind::kDecode    ? rng.next_below(kDecodePool)
               : a.kind == Kind::kPrefill ? rng.next_below(kPrefillPool)
                                          : (id / kInferenceEvery) % s.cnns.size();
      {
        PB_SPAN(spec.tracer, "idle.pace", id);
        // Sleeps to 1 ms before the due time, then spins (yielding): waking
        // a halted virtual CPU can take milliseconds on a shared host, and
        // that lateness would count as request latency.
        std::this_thread::sleep_until(a.due - std::chrono::milliseconds(1));
        while (Clock::now() < a.due) std::this_thread::yield();
      }
      lateness_ms.push_back(ms_between(a.due, Clock::now()));
      ++arrivals;
      try {
        if (a.kind == Kind::kInference) {
          PB_SPAN(spec.tracer, "fleet.submit_inference", id);
          a.inference = s.fleet->submit_inference(tenant, s.cnns[a.pool].model);
        } else {
          const std::vector<Expected>& pool =
              a.kind == Kind::kDecode ? s.decode[a.pool] : s.prefill[a.pool];
          for (const Expected& e : pool) {
            a.sent.push_back(Clock::now());
            PB_SPAN(spec.tracer, "fleet.submit_gemm", id);
            a.gemms.push_back(s.fleet->submit_gemm(tenant, e.a, e.b));
          }
        }
      } catch (const std::exception& e) {
        // Futures already issued still resolve; the arrival counts failed.
        a.failed = true;
        if (submit_errors.size() < 4) submit_errors.push_back(e.what());
      }
      queue.push(std::move(a));
    }
  }
  queue.close();
  collector.join();
  meter.stop();

  for (const auto& e : submit_errors) r.fail(e);
  for (const auto& e : log.errors) r.fail(e);

  const fleet::FleetStats fstats = s.fleet->stats();
  if (fstats.resolved() != fstats.submitted || fstats.resolve_double_sets != 0) {
    r.fail("decode_serving: fleet books do not balance");
  }

  // Open-loop honesty: a generator that fell behind its schedule offered
  // less load than the stated rate, so the run is invalid.
  const double late_share =
      lateness_ms.empty()
          ? 0.0
          : static_cast<double>(std::count_if(lateness_ms.begin(), lateness_ms.end(),
                                              [](double ms) { return ms > kLateMs; })) /
                static_cast<double>(lateness_ms.size());
  if (late_share > kLateShareLimit) {
    r.fail("decode_serving: generator fell behind its schedule (" +
           std::to_string(100.0 * late_share) + "% of arrivals sent > " +
           std::to_string(kLateMs) + " ms late)");
  }
  r.notes["offered_rate_per_s"] = std::to_string(kArrivalsPerS);
  r.notes["generator_lag_p50_ms"] = std::to_string(quantile(lateness_ms, 0.5));
  r.notes["generator_lag_p99_ms"] = std::to_string(quantile(lateness_ms, 0.99));
  r.notes["generator_lag_max_ms"] = std::to_string(quantile(lateness_ms, 1.0));
  r.notes["generator_late_share"] = std::to_string(late_share);

  r.attempted = arrivals;
  r.failed = log.failed;
  meter.report(r, setup_s);

  std::vector<serve::ServerStats> servers;
  for (const auto& sv : fstats.servers) servers.push_back(sv.stats);
  add_serve_stats(servers, log.inference_slices, r.layers);
  add_result_timings(log.queue_ms, log.exec_ms, r.layers);
  add_fleet_stats(fstats, r.layers);
  r.layers["fleet.resolve_ms_p50"] = {quantile(log.resolve_ms, 0.50), "ms"};
  r.layers["fleet.resolve_ms_p99"] = {quantile(log.resolve_ms, 0.99), "ms"};
  r.layers["mem.cycles"] = {static_cast<double>(log.cycles), "count"};
  r.layers["mem.stall_share"] = {
      log.cycles > 0
          ? static_cast<double>(log.stall_cycles) / static_cast<double>(log.cycles)
          : 0.0,
      "ratio"};

  r.ladder.config = array_config();
  for (const Expected& e : s.decode[0]) {
    r.ladder.shapes.push_back({e.b->cols(), e.a.cols(), e.a.rows()});
  }
  for (const Expected& e : s.prefill[0]) {
    r.ladder.shapes.push_back({e.b->cols(), e.a.cols(), e.a.rows()});
  }
  r.ladder.models.push_back(nn::decode_model(transformer_config(), kKvLen));
  r.ladder.models.push_back(*s.cnns[0].model);
  return r;
}

}  // namespace perfbench

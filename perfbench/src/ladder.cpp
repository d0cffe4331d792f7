// The per-layer ladder: where a layer is not on a workload's live path, a
// seeded sample of the workload's own shapes and models is replayed
// through that layer's public function, one rung per layer, in the array
// configuration the workload runs.  Each rung fills only the metrics the
// live run left unmeasured.

#include <algorithm>

#include "arch/array.h"
#include "arch/clocking.h"
#include "arch/latency.h"
#include "arch/optimizer.h"
#include "bench.h"
#include "engine/engine.h"
#include "fleet/fleet.h"
#include "hw/energy_characterization.h"
#include "layer_stats.h"
#include "mem/tile_scheduler.h"
#include "nn/runner.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Rungs that execute GEMMs clamp each dimension so one shape stays cheap.
constexpr std::int64_t kExecDim = 128;
// Each timed rung repeats its sample until at least this much time passed.
constexpr double kRungSeconds = 0.05;

gemm::GemmShape clamped(const gemm::GemmShape& s) {
  return {std::min(s.m, kExecDim), std::min(s.n, kExecDim), std::min(s.t, kExecDim)};
}

struct Operands {
  gemm::Mat32 a;
  std::shared_ptr<const gemm::Mat32> b;
};

std::vector<Operands> operands(const std::vector<gemm::GemmShape>& shapes,
                               af::Rng& rng) {
  std::vector<Operands> out;
  for (const gemm::GemmShape& raw : shapes) {
    const gemm::GemmShape s = clamped(raw);
    out.push_back({gemm::random_matrix(rng, s.t, s.n, -100, 100),
                   std::make_shared<const gemm::Mat32>(
                       gemm::random_matrix(rng, s.n, s.m, -100, 100))});
  }
  return out;
}

// Calls fn(i) over the sample until kRungSeconds passed; returns the mean
// seconds per call.
template <typename Fn>
double per_call_s(std::size_t n, Fn&& fn) {
  std::int64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    calls += static_cast<std::int64_t>(n);
  } while (seconds_since(t0) < kRungSeconds);
  return seconds_since(t0) / static_cast<double>(calls);
}

class Ladder {
 public:
  Ladder(const LadderInput& in, std::uint64_t seed, Metrics& m)
      : in_(in), m_(m), rng_(seed * 0x9e3779b97f4a7c15ULL + 97) {}

  // Every rung runs; put() keeps a value the live run already measured.
  void run() {
    engine_rung();
    run_gemm_rung();
    arch_rung();
    mem_rung();
    gemm_rung();
    nn_rung();
    hw_rung();
    serve_rung();
    fleet_rung();
  }

 private:
  void put(const std::string& name, double value, const std::string& unit) {
    m_.emplace(name, Metric{value, unit});  // keeps a live value
  }
  void put_all(const Metrics& from) {
    for (const auto& [name, metric] : from) m_.emplace(name, metric);
  }

  std::shared_ptr<engine::Engine> analytic() const {
    return engine::EngineBuilder().config(in_.config).build("analytic");
  }

  void engine_rung() {
    const std::vector<gemm::GemmShape>& shapes = in_.shapes;
    {
      // A fresh engine per pass keeps every evaluate uncached.
      const auto e = analytic();
      put("engine.evaluate_ns",
          1e9 * per_call_s(shapes.size(), [&](std::size_t i) { e->evaluate(shapes[i], 0); }),
          "ns");
    }
    {
      const auto e = analytic();
      for (const auto& s : shapes) e->evaluate_cached(s, 0);  // warm
      put("engine.evaluate_cached_ns",
          1e9 * per_call_s(shapes.size(),
                           [&](std::size_t i) { e->evaluate_cached(shapes[i], 0); }),
          "ns");
    }
    {
      const auto e = analytic();
      put("engine.evaluate_batch_ns",
          1e9 * per_call_s(1, [&](std::size_t) { e->evaluate_batch(shapes, 0); }) /
              static_cast<double>(shapes.size()),
          "ns");
    }
  }

  void run_gemm_rung() {
    const std::vector<Operands> ops = operands(in_.shapes, rng_);
    const auto e = engine::EngineBuilder().config(in_.config).build(in_.run_backend);
    put("engine.run_gemm_ms", 1e3 * per_call_s(ops.size(), [&](std::size_t i) {
          engine::GemmRequest req;
          req.a = &ops[i].a;
          req.b = ops[i].b.get();
          e->run_gemm(req);
        }),
        "ms");
  }

  void arch_rung() {
    const std::vector<Operands> ops = operands(in_.shapes, rng_);
    arch::ArrayConfig cfg = in_.config;
    cfg.mem.enabled = false;  // the bare array
    arch::SystolicArray array(cfg);
    double macs = 0.0;
    for (const Operands& o : ops) {
      macs += static_cast<double>(o.a.rows() * o.a.cols() * o.b->cols());
    }
    const double per_shape = per_call_s(ops.size(), [&](std::size_t i) {
      gemm::Mat64 out;
      array.run_gemm(ops[i].a, *ops[i].b, 1, &out);
    });
    put("arch.sim_macs_per_s",
        macs / static_cast<double>(ops.size()) / per_shape, "MAC/s");
    const arch::CalibratedClockModel clock = arch::CalibratedClockModel::date23();
    const arch::PipelineOptimizer optimizer(in_.config, clock);
    put("arch.sweep_ns", 1e9 * per_call_s(in_.shapes.size(), [&](std::size_t i) {
          optimizer.sweep(in_.shapes[i]);
        }),
        "ns");
  }

  void mem_rung() {
    arch::ArrayConfig cfg = in_.config;
    if (!cfg.mem.enabled) {
      // A scratchpad large enough for every sampled shape.
      cfg.mem.enabled = true;
      cfg.mem.spad_bytes = std::int64_t{64} << 20;
    }
    const mem::TileScheduler tiles(cfg);
    std::int64_t stalls = 0, cycles = 0;
    const auto per_tile = [&](const gemm::GemmShape& s) {
      return arch::tile_latency_cycles(cfg.rows, cfg.cols, s.t, 1);
    };
    for (const gemm::GemmShape& s : in_.shapes) {
      const mem::MemoryPlan plan = tiles.plan(s, per_tile(s));
      stalls += plan.stall_cycles;
      cycles += plan.total_cycles;
    }
    put("mem.plan_us", 1e6 * per_call_s(in_.shapes.size(), [&](std::size_t i) {
          tiles.plan(in_.shapes[i], per_tile(in_.shapes[i]));
        }),
        "us");
    put("mem.cycles", static_cast<double>(cycles), "count");
    put("mem.stall_share",
        cycles > 0 ? static_cast<double>(stalls) / static_cast<double>(cycles) : 0.0,
        "ratio");
  }

  void gemm_rung() {
    const std::vector<Operands> ops = operands(in_.shapes, rng_);
    double macs = 0.0;
    for (const Operands& o : ops) {
      macs += static_cast<double>(o.a.rows() * o.a.cols() * o.b->cols());
    }
    const double per_shape = per_call_s(ops.size(), [&](std::size_t i) {
      gemm::reference_gemm(ops[i].a, *ops[i].b);
    });
    put("gemm.reference_macs_per_s",
        macs / static_cast<double>(ops.size()) / per_shape, "MAC/s");
  }

  void nn_rung() {
    const nn::InferenceRunner runner(analytic());
    put("nn.run_us", 1e6 * per_call_s(in_.models.size(), [&](std::size_t i) {
          runner.run(in_.models[i]);
        }),
        "us");
  }

  void hw_rung() {
    const int bits = in_.config.input_bits;
    const int acc = in_.config.acc_bits;
    Clock::time_point t0 = Clock::now();
    arch::StaClockModel sta(500.0, bits, acc);
    for (const int k : in_.config.supported_k) sta.period_ps(k);
    put("hw.sta_ms", 1e3 * seconds_since(t0), "ms");
    t0 = Clock::now();
    hw::EnergyCharacterizationOptions opts;
    opts.input_bits = bits;
    opts.acc_bits = acc;
    hw::characterize_energy(opts);
    put("hw.characterize_ms", 1e3 * seconds_since(t0), "ms");
  }

  // Scalar cost-only round trips of the sample through a one-shard server.
  void serve_rung() {
    const std::vector<Operands> ops = operands(in_.shapes, rng_);
    serve::ServerOptions opts;
    opts.num_shards = 1;
    serve::Server server(in_.config, opts);
    std::vector<double> submit_us, wake_ms, queue_ms, exec_ms;
    for (int pass = 0; pass < 8; ++pass) {
      for (const Operands& o : ops) {
        const Clock::time_point t0 = Clock::now();
        auto f = server.submit_gemm("ladder", o.a, o.b, 0, /*want_output=*/false);
        submit_us.push_back(1e3 * ms_between(t0, Clock::now()));
        const serve::GemmResult r = f.get();
        wake_ms.push_back(ms_between(t0, Clock::now()) - r.latency_ms);
        queue_ms.push_back(r.queue_ms);
        exec_ms.push_back(r.latency_ms - r.queue_ms);
      }
    }
    Metrics ms;
    ms["serve.submit_us"] = {mean(submit_us), "us"};
    ms["serve.wake_ms"] = {mean(wake_ms), "ms"};
    add_result_timings(queue_ms, exec_ms, ms);
    add_serve_stats({server.stats()}, 0, ms);
    put_all(ms);
  }

  // Scalar cost-only round trips of the sample through a one-server fleet.
  void fleet_rung() {
    const std::vector<Operands> ops = operands(in_.shapes, rng_);
    fleet::FleetServerSpec spec;
    spec.config = in_.config;
    spec.options.num_shards = 1;
    fleet::Fleet fl({spec});
    std::vector<double> submit_us, resolve_ms;
    serve::SubmitOptions sub;
    sub.want_output = false;
    for (int pass = 0; pass < 4; ++pass) {
      for (const Operands& o : ops) {
        const Clock::time_point t0 = Clock::now();
        auto f = fl.submit_gemm("ladder", o.a, o.b, sub);
        submit_us.push_back(1e3 * ms_between(t0, Clock::now()));
        const serve::GemmResult r = f.get();
        resolve_ms.push_back(ms_between(t0, Clock::now()) - r.latency_ms);
      }
    }
    Metrics ms;
    ms["fleet.submit_us"] = {mean(submit_us), "us"};
    ms["fleet.resolve_ms_p50"] = {quantile(resolve_ms, 0.50), "ms"};
    ms["fleet.resolve_ms_p99"] = {quantile(resolve_ms, 0.99), "ms"};
    add_fleet_stats(fl.stats(), ms);
    put_all(ms);
  }

  const LadderInput& in_;
  Metrics& m_;
  af::Rng rng_;
};

}  // namespace

void run_ladder(const LadderInput& input, std::uint64_t seed, Metrics& layers) {
  Ladder(input, seed, layers).run();
}

}  // namespace perfbench

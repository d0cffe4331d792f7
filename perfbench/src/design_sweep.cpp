// design_sweep — the architect's design-space study with calibration.
//
// Four sweeper threads in lockstep.  For each PE bit width the clock comes
// from an arch::StaClockModel (static timing of the PE and collapsed-column
// netlists through hw::Sta) and the energy parameters from
// hw::characterize_energy (gate-level Monte-Carlo through hw::NetlistSim).
// Then, for a seeded grid of array geometries x supported-mode sets, an
// nn::InferenceRunner prices the three paper CNNs plus a transformer
// prefill and decode.  Every design point builds a fresh engine, so its
// cost fingerprint is new and the cost cache cannot help.  Each sweep also
// prices the paper's two reference points (date23 clock, generic28nm
// energy, 128x128 and 256x256) and checks them against the Fig. 9 headline
// values stored in perfbench/golden/fig9_headline.csv.
// One request = one design point.

#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

#include "arch/clocking.h"
#include "bench.h"
#include "engine/engine.h"
#include "hw/energy_characterization.h"
#include "nn/mapper.h"
#include "nn/runner.h"
#include "nn/transformer.h"
#include "util/rng.h"
#include "util/strings.h"

#ifndef PERFBENCH_DIR
#define PERFBENCH_DIR "perfbench"
#endif

namespace perfbench {
namespace {

constexpr int kBits[] = {8, 16, 32};
constexpr int kAllModes[] = {1, 2, 4, 8};
const std::vector<std::vector<int>> kModeSets = {{1}, {1, 2}, {1, 2, 4}, {1, 2, 4, 8}};
// Sized so the runner's share of host time is comparable to calibration's.
constexpr int kGeometriesPerWidth = 96;
// Four sweepers, one per core, in lockstep: each round every sweeper prices
// one geometry, and the sweep moves on when the last one is done.  A
// round's time is the latency sample, so it is set by the slowest virtual
// CPU.  On a shared host single virtual CPUs switch between a fast and a
// slow state (1.6x apart on the machine this was tuned on); per-thread
// samples then follow the share of time each CPU spends slow, which
// differs from run to run, while some CPU is slow in nearly every round.
constexpr int kSweepers = 4;

struct Golden {
  int side = 0;
  std::string model;
  std::string power_savings, energy_ratio, edp_gain;  // as bench_fig9 prints
};

struct Calibration {
  std::shared_ptr<const arch::ClockModel> clock;
  arch::EnergyParams energy;
};

struct State {
  std::vector<nn::Model> models;
  std::vector<Golden> golden;
};

std::vector<Golden> load_golden(std::vector<std::string>& errors) {
  std::vector<Golden> out;
  std::ifstream in(std::string(PERFBENCH_DIR) + "/golden/fig9_headline.csv");
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    Golden g;
    std::string side;
    std::getline(ss, side, ',');
    std::getline(ss, g.model, ',');
    std::getline(ss, g.power_savings, ',');
    std::getline(ss, g.energy_ratio, ',');
    std::getline(ss, g.edp_gain, ',');
    g.side = std::atoi(side.c_str());
    out.push_back(g);
  }
  if (out.size() != 6) errors.push_back("design_sweep: golden Fig. 9 table missing or short");
  return out;
}

State set_up(std::vector<std::string>& errors) {
  State s;
  s.models = nn::paper_models();
  nn::TransformerConfig tc;
  tc.d_model = 512;
  tc.n_heads = 8;
  tc.d_ff = 2048;
  tc.n_blocks = 2;
  s.models.push_back(nn::prefill_model(tc, 128));
  s.models.push_back(nn::decode_model(tc, 512));
  s.golden = load_golden(errors);
  return s;
}

Calibration calibrate(int bits, std::uint64_t seed, Tracer* tracer) {
  Calibration c;
  {
    PB_SPAN(tracer, "hw.sta", 0);
    auto sta = std::make_shared<arch::StaClockModel>(500.0, bits, 2 * bits);
    for (const int k : kAllModes) sta->period_ps(k);
    c.clock = std::move(sta);
  }
  {
    PB_SPAN(tracer, "hw.characterize_energy", 0);
    hw::EnergyCharacterizationOptions opts;
    opts.input_bits = bits;
    opts.acc_bits = 2 * bits;
    opts.seed = seed;
    c.energy = hw::characterize_energy(opts).params;
  }
  return c;
}

// Prices every model on one design point; returns the reports.
std::vector<nn::ModelReport> design_point(const State& s, const arch::ArrayConfig& cfg,
                                          const Calibration& cal, Tracer* tracer,
                                          std::uint64_t id) {
  std::shared_ptr<engine::Engine> engine;
  {
    PB_SPAN(tracer, "engine.build", id);
    engine = engine::EngineBuilder()
                 .config(cfg)
                 .clock(cal.clock)
                 .energy(cal.energy)
                 .build("analytic");
  }
  const nn::InferenceRunner runner(engine);
  std::vector<nn::ModelReport> reports;
  for (const nn::Model& m : s.models) {
    PB_SPAN(tracer, "nn.run", id);
    reports.push_back(runner.run(m));
  }
  return reports;
}

// The sweepers' barrier; the last sweeper to arrive times the round.  The
// others spin (yielding) rather than sleep: waking a halted virtual CPU
// can take milliseconds on a shared host, and a round's time would then
// measure that instead of the sweep.
struct Rounds {
  Clock::time_point end;
  Meter::Recorder* latency = nullptr;  // used only by the last to arrive
  Clock::time_point start;
  bool geometry = false;  // the round ending now priced geometries
  bool stop = false;      // the window has ended; every sweeper returns
  std::atomic<int> arrived{0};
  std::atomic<std::uint64_t> round{0};

  void arrive_and_wait() {
    const std::uint64_t r = round.load(std::memory_order_acquire);
    if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == kSweepers) {
      const Clock::time_point now = Clock::now();
      if (geometry) latency->latency(ms_between(start, now));
      start = now;
      stop = now >= end;
      arrived.store(0, std::memory_order_relaxed);
      round.store(r + 1, std::memory_order_release);
    } else {
      while (round.load(std::memory_order_acquire) == r) std::this_thread::yield();
    }
  }
};

struct SweeperLog {
  std::int64_t points = 0;
  std::int64_t sweeps = 0;
  std::vector<std::string> errors;
  void fail(std::string why) {
    if (errors.size() < 4) errors.push_back(std::move(why));
  }
};

// Repeats whole sweeps until the window ends: the paper's reference points,
// checked against the Fig. 9 table, then for each bit width a calibration
// and the seeded geometries x mode sets.  Every step ends at the barrier,
// so all sweepers run the same steps and stop after the same one.
void sweeper(const State& s, const Calibration& paper, const RunSpec& spec, int t,
             Rounds& rounds, Meter::Recorder& rec, SweeperLog& log) {
  PB_SPAN(spec.tracer, "client.design_sweep", 0);
  af::Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 41 + static_cast<std::uint64_t>(t));
  std::uint64_t id = static_cast<std::uint64_t>(t) << 40;
  std::int64_t layers_per_point = 0;
  double macs_per_point = 0.0;
  for (const auto& m : s.models) {
    layers_per_point += static_cast<std::int64_t>(m.layers.size());
    macs_per_point += static_cast<double>(m.total_macs());
  }
  const auto priced_point = [&](const arch::ArrayConfig& cfg, const Calibration& cal) {
    std::vector<nn::ModelReport> reports = design_point(s, cfg, cal, spec.tracer, ++id);
    rec.work(1, layers_per_point, macs_per_point);
    ++log.points;
    return reports;
  };
  // Ends a step; false once the window has ended.
  const auto step_done = [&](bool geometry) {
    if (t == 0) rounds.geometry = geometry;
    PB_SPAN(spec.tracer, "idle.lockstep", 0);
    rounds.arrive_and_wait();
    return !rounds.stop;
  };
  while (true) {
    ++log.sweeps;
    for (const int side : {128, 256}) {
      const std::vector<nn::ModelReport> reports =
          priced_point(arch::ArrayConfig::square(side), paper);
      for (const Golden& g : s.golden) {
        if (g.side != side) continue;
        for (std::size_t m = 0; m < 3; ++m) {
          if (reports[m].model_name != g.model) continue;
          const arch::EfficiencyComparison e = reports[m].totals();
          if (af::fixed(e.power_savings(), 4) != g.power_savings ||
              af::fixed(e.energy_ratio, 4) != g.energy_ratio ||
              af::fixed(e.edp_gain, 3) != g.edp_gain) {
            log.fail("design_sweep: " + g.model + " at " + std::to_string(side) + "x" +
                     std::to_string(side) + " no longer reproduces Fig. 9 (" +
                     af::fixed(e.power_savings(), 4) + " power savings, " +
                     af::fixed(e.edp_gain, 3) + "x EDP)");
          }
        }
      }
    }
    if (!step_done(false)) return;
    for (const int bits : kBits) {
      const Calibration cal =
          calibrate(bits, spec.seed * 1000003 + static_cast<std::uint64_t>(t * 1000 + log.sweeps),
                    spec.tracer);
      if (!step_done(false)) return;
      for (int g = 0; g < kGeometriesPerWidth; ++g) {
        const int rows = 16 * static_cast<int>(rng.next_in(1, 32));
        const int cols = 16 * static_cast<int>(rng.next_in(1, 32));
        // A round prices all mode sets of a geometry: a single point's time
        // depends on its mode count, and a median taken over that
        // four-cluster mix would jump between clusters.
        for (const std::vector<int>& modes : kModeSets) {
          arch::ArrayConfig cfg = arch::ArrayConfig::square_with_modes(rows, modes);
          cfg.cols = cols;
          cfg.input_bits = bits;
          cfg.acc_bits = 2 * bits;
          for (const nn::ModelReport& rep : priced_point(cfg, cal)) {
            if (!(rep.arrayflex_time_ps > 0.0) || !(rep.arrayflex_energy_pj > 0.0)) {
              log.fail("design_sweep: non-positive time or energy at a design point");
            }
          }
        }
        if (!step_done(true)) return;
      }
    }
  }
}

}  // namespace

PhaseResult run_design_sweep(const RunSpec& spec) {
  PhaseResult r;
  std::vector<std::string> errors;
  State s;
  const double setup_s = timed_setups(s, [&] {
    errors.clear();
    State fresh = set_up(errors);
    for (const int bits : kBits) calibrate(bits, spec.seed, nullptr);
    return fresh;
  });
  for (const auto& e : errors) r.fail(e);

  Calibration paper;
  paper.clock = std::make_shared<arch::CalibratedClockModel>(
      arch::CalibratedClockModel::date23());
  paper.energy = arch::EnergyParams::generic28nm();

  // One-second slices: each holds several calibrate-then-price cycles (one
  // per bit width, ~0.2 s per sweeper), so every slice carries about the
  // same mix of calibration and runner work.
  Meter meter(spec.seconds, 1.0);
  std::vector<Meter::Recorder*> recs;
  for (int t = 0; t < kSweepers; ++t) recs.push_back(&meter.recorder());
  std::vector<SweeperLog> logs(kSweepers);
  Rounds rounds;
  rounds.latency = &meter.recorder();
  rounds.end = meter.start();
  rounds.start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kSweepers; ++t) {
      const auto i = static_cast<std::size_t>(t);
      threads.emplace_back(sweeper, std::cref(s), std::cref(paper), std::cref(spec), t,
                           std::ref(rounds), std::ref(*recs[i]), std::ref(logs[i]));
    }
    for (auto& th : threads) th.join();
  }
  meter.stop();

  std::int64_t points = 0, sweeps = 0;
  for (const SweeperLog& l : logs) {
    points += l.points;
    sweeps += l.sweeps;
    for (const auto& e : l.errors) r.fail(e);
  }
  r.attempted = points;
  r.failed = 0;
  r.notes["sweeps"] = std::to_string(sweeps);
  meter.report(r, setup_s);

  r.ladder.config = arch::ArrayConfig::square(128);
  af::Rng pick(spec.seed + 5);
  for (int i = 0; i < 24; ++i) {
    const nn::Model& m = s.models[pick.next_below(s.models.size())];
    r.ladder.shapes.push_back(nn::gemm_shape(m.layers[pick.next_below(m.layers.size())]));
  }
  r.ladder.models = s.models;
  return r;
}

}  // namespace perfbench

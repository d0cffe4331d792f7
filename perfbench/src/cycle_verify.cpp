// cycle_verify — closed-loop GEMMs through the cycle-accurate backend.
//
// Two client threads send GEMMs with outputs to a serve::Server on the
// "cycle" backend (two shards, 32x32 array), so arch::SystolicArray does
// nearly all the work.  Shapes are CNN-layer-like (im2col of 3x3 and 1x1
// convolutions) scaled to the array, over a few shared weight matrices;
// activations come from a seeded pool whose reference_gemm products are
// computed during set-up.  Every output must equal reference_gemm and every
// cycle count, time and energy share must equal the analytic evaluate of
// the fused run; after the timed window a seeded sample is replayed through
// the cycle engine and its activity counters checked against the analytic
// estimate.  One request = one GEMM.

#include <deque>
#include <thread>

#include "bench.h"
#include "engine/engine.h"
#include "layer_stats.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr std::size_t kWindow = 4;
constexpr int kActivationsPerWeight = 24;

// (n, m) weight panels of CNN layers scaled to a 32x32 array, and the
// activation row counts (output pixels of a tile of the feature map).
struct LayerTemplate {
  std::int64_t n, m;
};
constexpr LayerTemplate kLayers[] = {
    {27, 32},   // 3x3 conv, 3 -> 32 channels (stem)
    {72, 32},   // 3x3 conv, 8 -> 32
    {64, 64},   // 1x1 conv, 64 -> 64
    {144, 48},  // 3x3 conv, 16 -> 48
    {96, 96},   // 1x1 conv, 96 -> 96
};
constexpr std::int64_t kRows[] = {16, 32, 48};

struct Case {
  gemm::Mat32 a;
  std::shared_ptr<const gemm::Mat32> b;
  gemm::Mat64 out;
};

struct State {
  std::unique_ptr<serve::Server> server;
  std::shared_ptr<engine::Engine> analytic;
  std::vector<Case> cases;
};

arch::ArrayConfig array_config() { return arch::ArrayConfig::square(32); }

State set_up(std::uint64_t seed) {
  State s;
  serve::ServerOptions opts;
  opts.backend = "cycle";
  opts.num_shards = 2;
  opts.latency_hist_max_ms = 1000.0;
  s.server = std::make_unique<serve::Server>(array_config(), opts);
  s.analytic = engine::EngineBuilder()
                   .config(array_config())
                   .energy(opts.energy)
                   .build("analytic");
  af::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 37);
  for (const LayerTemplate& l : kLayers) {
    auto b = std::make_shared<const gemm::Mat32>(
        gemm::random_matrix(rng, l.n, l.m, -128, 127));
    for (int i = 0; i < kActivationsPerWeight; ++i) {
      Case c;
      c.a = gemm::random_matrix(rng, kRows[i % std::size(kRows)], l.n, -128, 127);
      c.b = b;
      c.out = gemm::reference_gemm(c.a, *b);
      s.cases.push_back(std::move(c));
    }
  }
  return s;
}

struct ClientLog {
  // Per result, kept only in a traced run (per-layer metrics).
  std::vector<double> queue_ms, exec_ms, wake_ms;
  std::int64_t completed = 0, failed = 0, calls = 0;
  std::vector<std::string> errors;
};

struct InFlight {
  std::future<serve::GemmResult> future;
  std::size_t c = 0;
  Clock::time_point submitted;
  std::uint64_t id = 0;
};

void client(State& s, Tracer* tracer, std::uint64_t seed, int c,
            Clock::time_point end, Meter::Recorder& rec, ClientLog& log) {
  PB_SPAN(tracer, "client.cycle_verify", 0);
  af::Rng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(c) + 3);
  std::deque<InFlight> in_flight;
  std::uint64_t next_id = (static_cast<std::uint64_t>(c) << 40) + 1;
  const auto harvest_front = [&] {
    InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    try {
      serve::GemmResult r;
      {
        PB_SPAN(tracer, "serve.wait", f.id);
        r = f.future.get();
      }
      const double observed = ms_between(f.submitted, Clock::now());
      if (tracer != nullptr) {
        log.queue_ms.push_back(r.queue_ms);
        log.exec_ms.push_back(r.latency_ms - r.queue_ms);
        log.wake_ms.push_back(observed - r.latency_ms);
      }
      const Case& cs = s.cases[f.c];
      const gemm::GemmShape fused{cs.b->cols(), cs.b->rows(), r.fused_rows};
      const engine::CostEstimate e = s.analytic->evaluate(fused, r.k);
      const double energy = e.energy_pj * static_cast<double>(cs.a.rows()) /
                            static_cast<double>(r.fused_rows);
      const bool ok = r.out == cs.out && r.measured && r.cycles == e.cycles &&
                      r.time_ps == e.time_ps && r.energy_pj == energy;
      if (!ok && log.errors.size() < 4) {
        log.errors.push_back("cycle_verify: result differs from reference_gemm "
                             "or the analytic estimate");
      }
      ++log.completed;
      rec.record(1, 1, static_cast<double>(cs.a.rows() * cs.a.cols() * cs.b->cols()),
                 observed);
    } catch (const std::exception& e) {
      ++log.failed;
      if (log.errors.size() < 4) log.errors.push_back(e.what());
    }
  };
  while (Clock::now() < end) {
    InFlight f;
    f.c = rng.next_below(s.cases.size());
    f.id = next_id++;
    f.submitted = Clock::now();
    ++log.calls;
    try {
      PB_SPAN(tracer, "serve.submit_gemm", f.id);
      f.future = s.server->submit_gemm("client-" + std::to_string(c),
                                       s.cases[f.c].a, s.cases[f.c].b);
    } catch (const std::exception& e) {
      ++log.failed;
      if (log.errors.size() < 4) log.errors.push_back(e.what());
      continue;
    }
    in_flight.push_back(std::move(f));
    if (in_flight.size() >= kWindow) harvest_front();
  }
  while (!in_flight.empty()) harvest_front();
}

}  // namespace

PhaseResult run_cycle_verify(const RunSpec& spec) {
  PhaseResult r;
  State s;
  const double setup_s = timed_setups(s, [&] { return set_up(spec.seed); });

  std::vector<ClientLog> logs(kClients);
  Meter meter(spec.seconds);
  std::vector<Meter::Recorder*> recs;
  for (int c = 0; c < kClients; ++c) recs.push_back(&meter.recorder());
  const Clock::time_point end = meter.start();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      const auto i = static_cast<std::size_t>(c);
      threads.emplace_back(client, std::ref(s), spec.tracer, spec.seed, c, end,
                           std::ref(*recs[i]), std::ref(logs[i]));
    }
    for (auto& t : threads) t.join();
  }
  meter.stop();

  ClientLog all;
  for (ClientLog& l : logs) {
    for (std::vector<double> ClientLog::*v :
         {&ClientLog::queue_ms, &ClientLog::exec_ms, &ClientLog::wake_ms}) {
      (all.*v).insert((all.*v).end(), (l.*v).begin(), (l.*v).end());
    }
    all.completed += l.completed;
    all.failed += l.failed;
    all.calls += l.calls;
    for (auto& e : l.errors) r.fail(e);
  }

  // Untimed: activity counters are not in GemmResult, so a seeded sample of
  // the run's cases goes through the cycle engine directly and must match
  // the analytic estimate exactly, counters included.
  {
    const auto cycle = engine::EngineBuilder().config(array_config()).build("cycle");
    af::Rng rng(spec.seed + 77);
    for (int i = 0; i < 4; ++i) {
      const Case& cs = s.cases[rng.next_below(s.cases.size())];
      engine::GemmRequest req;
      req.a = &cs.a;
      req.b = cs.b.get();
      const engine::RunResult run = cycle->run_gemm(req);
      const gemm::GemmShape shape{cs.b->cols(), cs.b->rows(), cs.a.rows()};
      if (!run.out || *run.out != cs.out ||
          !engine::exactly_equal(run.cost, s.analytic->evaluate(shape, run.cost.k))) {
        r.fail("cycle_verify: cycle engine counters differ from the analytic "
               "estimate");
      }
    }
  }

  const serve::ServerStats stats = s.server->stats();
  if (stats.submitted != stats.completed) {
    r.fail("cycle_verify: server books do not balance");
  }
  r.attempted = all.calls;
  r.failed = all.failed;
  meter.report(r, setup_s);
  add_serve_stats({stats}, 0, r.layers);
  add_result_timings(all.queue_ms, all.exec_ms, r.layers);
  r.layers["serve.wake_ms"] = {mean(all.wake_ms), "ms"};

  r.ladder.config = array_config();
  r.ladder.run_backend = "cycle";
  for (std::size_t i = 0; i < s.cases.size(); i += kActivationsPerWeight / 2) {
    const Case& cs = s.cases[i];
    r.ladder.shapes.push_back({cs.b->cols(), cs.b->rows(), cs.a.rows()});
  }
  r.ladder.models.push_back(shapes_model("cycle_verify_shapes", r.ladder.shapes));
  return r;
}

}  // namespace perfbench

// cost_queries — closed-loop planning traffic against one serve::Server.
//
// Two client threads, four tenants, a 128x128 array on the analytic
// backend with the "stealing" dispatcher and two shards.  Every request is
// cost-only: most calls are scalar submit_gemm(want_output = false) under a
// bounded in-flight window, every 32nd call prices 32 shapes through
// submit_gemm_batch.  Shapes are skewed: 80% come from a seeded hot set
// that repeats (cost-cache hits), 20% from a tail that never repeats within
// a run (misses).  Every estimate is checked against Engine::evaluate on an
// identically built engine.  One request = one priced shape.
//
// Every tail shape adds cost-cache entries that are never evicted, so the
// process grows with the work done, not with time.  peak_rss_mb is therefore
// read when a fixed count of tail shapes has been priced; a run that prices
// fewer in its window prices the rest after it, untimed.

#include <atomic>
#include <deque>
#include <thread>
#include <variant>

#include "bench.h"
#include "engine/engine.h"
#include "layer_stats.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kTenants = 4;
constexpr int kHotShapes = 256;
constexpr std::size_t kWindow = 16;
constexpr int kBatchEvery = 32;
constexpr int kBatchShapes = 32;
constexpr double kHotShare = 0.8;
// Tail shapes priced when peak_rss_mb is read.
constexpr std::int64_t kRssTailShapes = 250000;

struct HotShape {
  gemm::GemmShape shape;
  gemm::Mat32 a;                          // t x n activations (zeros)
  std::shared_ptr<const gemm::Mat32> b;   // n x m weights, shared
};

struct State {
  std::unique_ptr<serve::Server> server;
  std::shared_ptr<engine::Engine> reference;  // identically built, uncached
  std::vector<HotShape> hot;
};

arch::ArrayConfig array_config() { return arch::ArrayConfig::square(128); }

State set_up(std::uint64_t seed) {
  State s;
  serve::ServerOptions opts;
  opts.backend = "analytic";
  opts.dispatcher = "stealing";
  opts.num_shards = 2;
  opts.latency_hist_max_ms = 100.0;
  s.server = std::make_unique<serve::Server>(array_config(), opts);
  s.reference = engine::EngineBuilder()
                    .config(array_config())
                    .energy(opts.energy)
                    .build("analytic");
  // Stratified hot set: every seed gets the same spread of m, n and t
  // (multiples of 8 keep m disjoint from the tail's odd m); the seed only
  // decides how they pair up, so the work per shape barely moves with it.
  af::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<std::int64_t> ns, ts;
  for (int i = 0; i < kHotShapes; ++i) {
    ns.push_back(8 * (2 + i * 31 / kHotShapes));
    ts.push_back(1 + i * 64 / kHotShapes);
  }
  for (int i = kHotShapes - 1; i > 0; --i) {
    std::swap(ns[static_cast<std::size_t>(i)], ns[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    std::swap(ts[static_cast<std::size_t>(i)], ts[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  s.hot.reserve(kHotShapes);
  for (int i = 0; i < kHotShapes; ++i) {
    HotShape h;
    h.shape.m = 8 * (2 + i * 63 / kHotShapes);
    h.shape.n = ns[static_cast<std::size_t>(i)];
    h.shape.t = ts[static_cast<std::size_t>(i)];
    h.a = gemm::Mat32(h.shape.t, h.shape.n);
    h.b = std::make_shared<const gemm::Mat32>(h.shape.n, h.shape.m);
    s.hot.push_back(std::move(h));
  }
  return s;
}

// The tail: an affine bijection over 2^24 indices mapped to (odd m <= 1023,
// n <= 32, t <= 1024), so no tail shape repeats within a run (each client
// walks its own residue class of the index sequence; a run prices well
// under a million tail shapes, under a sixteenth of the space).  The
// shallow n keeps the operands a scalar call allocates (t x n and n x m) at
// most 128 KiB each, so allocating them does not dominate the client's work.
struct Tail {
  std::uint64_t mul = 1, add = 0, next = 0, stride = 1;
  gemm::GemmShape draw() {
    const std::uint64_t idx = (mul * next + add) & ((1u << 24) - 1);
    next += stride;
    return {/*m=*/2 * static_cast<std::int64_t>(idx & 511) + 1,
            /*n=*/1 + static_cast<std::int64_t>((idx >> 9) & 31),
            /*t=*/1 + static_cast<std::int64_t>(idx >> 14)};
  }
};

// Counts priced tail shapes and reads peak_rss_mb when they reach
// kRssTailShapes.
struct RssProbe {
  std::atomic<std::int64_t> tail_priced{0};
  double mb = 0.0;  // written once, by the thread whose shapes cross the count

  void priced(std::int64_t n) {
    const std::int64_t before = tail_priced.fetch_add(n);
    if (before < kRssTailShapes && before + n >= kRssTailShapes) mb = peak_rss_mb();
  }
};

struct ScalarCall {
  std::future<serve::GemmResult> future;
  gemm::GemmShape shape;
  bool tail = false;
};
struct BatchCall {
  serve::BatchTicket ticket;
  std::vector<gemm::GemmShape> shapes;
  std::int64_t tail_shapes = 0;
};
struct InFlight {
  std::variant<ScalarCall, BatchCall> call;
  Clock::time_point submitted;
  std::uint64_t id = 0;
};

struct ClientLog {
  // Per scalar result, kept only in a traced run (per-layer metrics).
  std::vector<double> queue_ms;     // GemmResult::queue_ms
  std::vector<double> exec_ms;      // latency_ms - queue_ms
  std::vector<double> wake_ms;      // observed - latency_ms
  std::int64_t shapes = 0;          // priced shapes returned
  std::int64_t batched_shapes = 0;  // of which through submit_gemm_batch
  std::int64_t calls = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  Tail tail;  // where this client's tail sequence stopped
};

double macs_of(const gemm::GemmShape& s) {
  return static_cast<double>(s.m) * static_cast<double>(s.n) * static_cast<double>(s.t);
}

void check_scalar(engine::Engine& ref, const gemm::GemmShape& shape,
                  const serve::GemmResult& r, ClientLog& log) {
  const engine::CostEstimate chosen = ref.evaluate(shape, 0);
  const gemm::GemmShape fused{shape.m, shape.n, r.fused_rows};
  const engine::CostEstimate e = ref.evaluate(fused, r.k);
  const double energy = e.energy_pj * static_cast<double>(shape.t) /
                        static_cast<double>(r.fused_rows);
  const bool ok = r.out.rows() == 0 && r.k == chosen.k &&
                  r.cycles == e.cycles && r.time_ps == e.time_ps &&
                  r.stall_cycles == e.stall_cycles &&
                  r.dram_bytes == e.dram_bytes && r.energy_pj == energy;
  if (!ok && log.errors.size() < 4) {
    log.errors.push_back("cost_queries: scalar estimate differs from "
                         "Engine::evaluate for shape m=" +
                         std::to_string(shape.m) + " n=" +
                         std::to_string(shape.n) + " t=" +
                         std::to_string(shape.t));
  }
}

void check_batch(engine::Engine& ref, const std::vector<gemm::GemmShape>& shapes,
                 const std::vector<engine::CostEstimate>& est, ClientLog& log) {
  bool ok = est.size() == shapes.size();
  for (std::size_t i = 0; ok && i < est.size(); ++i) {
    ok = engine::exactly_equal(est[i], ref.evaluate(shapes[i], 0));
  }
  if (!ok && log.errors.size() < 4) {
    log.errors.push_back("cost_queries: batched estimate differs from "
                         "Engine::evaluate");
  }
}

void client(State& s, Tracer* tracer, std::uint64_t seed, int c,
            Clock::time_point end, Meter::Recorder& rec, RssProbe& rss,
            ClientLog& log) {
  PB_SPAN(tracer, "client.cost_queries", 0);
  af::Rng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(c) + 1);
  Tail tail;
  tail.mul = (seed * 0x5851f42d4c957f2dULL) | 1;
  tail.add = seed * 0x14057b7ef767814fULL;
  tail.next = static_cast<std::uint64_t>(c);
  tail.stride = kClients;

  std::deque<InFlight> in_flight;
  std::uint64_t next_id = (static_cast<std::uint64_t>(c) << 40) + 1;

  const auto harvest_front = [&] {
    InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    if (auto* sc = std::get_if<ScalarCall>(&f.call)) {
      serve::GemmResult r;
      {
        PB_SPAN(tracer, "serve.wait", f.id);
        r = sc->future.get();
      }
      const double observed = ms_between(f.submitted, Clock::now());
      rec.record(1, 1, macs_of(sc->shape), observed);
      log.shapes += 1;
      if (sc->tail) rss.priced(1);
      if (tracer != nullptr) {
        log.queue_ms.push_back(r.queue_ms);
        log.exec_ms.push_back(r.latency_ms - r.queue_ms);
        log.wake_ms.push_back(observed - r.latency_ms);
      }
      check_scalar(*s.reference, sc->shape, r, log);
    } else {
      auto& bc = std::get<BatchCall>(f.call);
      std::vector<engine::CostEstimate> est;
      {
        PB_SPAN(tracer, "serve.wait", f.id);
        est = bc.ticket.get();
      }
      double macs = 0.0;
      for (const auto& sh : bc.shapes) macs += macs_of(sh);
      const auto n = static_cast<std::int64_t>(est.size());
      rec.record(n, n, macs, ms_between(f.submitted, Clock::now()));
      log.shapes += n;
      log.batched_shapes += n;
      rss.priced(bc.tail_shapes);
      check_batch(*s.reference, bc.shapes, est, log);
    }
  };

  std::int64_t call = 0;
  std::vector<gemm::GemmShape> batch_shapes;
  while (Clock::now() < end) {
    const std::string tenant =
        "tenant-" + std::to_string(c + kClients * static_cast<int>(
                                           call % (kTenants / kClients)));
    const std::uint64_t id = next_id++;
    ++call;
    InFlight f;
    f.id = id;
    try {
      if (call % kBatchEvery == 0) {
        batch_shapes.clear();
        BatchCall bc;
        for (int i = 0; i < kBatchShapes; ++i) {
          if (rng.next_double() < kHotShare) {
            batch_shapes.push_back(s.hot[rng.next_below(kHotShapes)].shape);
          } else {
            batch_shapes.push_back(tail.draw());
            ++bc.tail_shapes;
          }
        }
        f.submitted = Clock::now();
        {
          PB_SPAN(tracer, "serve.submit_gemm_batch", id);
          bc.ticket = s.server->submit_gemm_batch(tenant, batch_shapes);
        }
        bc.shapes = batch_shapes;
        f.call = std::move(bc);
      } else {
        gemm::Mat32 a;
        std::shared_ptr<const gemm::Mat32> b;
        gemm::GemmShape shape;
        const bool from_tail = rng.next_double() >= kHotShare;
        if (!from_tail) {
          const HotShape& h = s.hot[rng.next_below(kHotShapes)];
          a = h.a;
          b = h.b;
          shape = h.shape;
        } else {
          shape = tail.draw();
          a = gemm::Mat32(shape.t, shape.n);
          b = std::make_shared<const gemm::Mat32>(shape.n, shape.m);
        }
        f.submitted = Clock::now();
        ScalarCall sc;
        sc.shape = shape;
        sc.tail = from_tail;
        {
          PB_SPAN(tracer, "serve.submit_gemm", id);
          sc.future = s.server->submit_gemm(tenant, std::move(a), std::move(b),
                                            /*k=*/0, /*want_output=*/false);
        }
        f.call = std::move(sc);
      }
      in_flight.push_back(std::move(f));
      ++log.calls;
      if (in_flight.size() >= kWindow) harvest_front();
    } catch (const std::exception& e) {
      ++log.calls;
      ++log.failed;
      if (log.errors.size() < 4) log.errors.push_back(e.what());
    }
  }
  while (!in_flight.empty()) harvest_front();
  log.tail = tail;
}

}  // namespace

PhaseResult run_cost_queries(const RunSpec& spec) {
  PhaseResult r;
  State s;
  const double setup_s = timed_setups(s, [&] { return set_up(spec.seed); });

  std::vector<ClientLog> logs(kClients);
  RssProbe rss;
  Meter meter(spec.seconds);
  std::vector<Meter::Recorder*> recs;
  for (int c = 0; c < kClients; ++c) recs.push_back(&meter.recorder());
  const Clock::time_point end = meter.start();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      const auto i = static_cast<std::size_t>(c);
      threads.emplace_back(client, std::ref(s), spec.tracer, spec.seed, c, end,
                           std::ref(*recs[i]), std::ref(rss), std::ref(logs[i]));
    }
    for (auto& t : threads) t.join();
  }
  meter.stop();

  // Untimed: a run that priced too few tail shapes in its window goes on
  // pricing client 0's tail sequence until peak_rss_mb has been read.
  std::vector<gemm::GemmShape> top_up(kBatchShapes);
  while (rss.tail_priced.load() < kRssTailShapes) {
    for (gemm::GemmShape& sh : top_up) sh = logs[0].tail.draw();
    const std::vector<engine::CostEstimate> est =
        s.server->submit_gemm_batch("tenant-0", top_up).get();
    check_batch(*s.reference, top_up, est, logs[0]);
    logs[0].shapes += kBatchShapes;
    logs[0].batched_shapes += kBatchShapes;
    rss.priced(kBatchShapes);
  }

  ClientLog all;
  for (ClientLog& l : logs) {
    all.queue_ms.insert(all.queue_ms.end(), l.queue_ms.begin(), l.queue_ms.end());
    all.exec_ms.insert(all.exec_ms.end(), l.exec_ms.begin(), l.exec_ms.end());
    all.wake_ms.insert(all.wake_ms.end(), l.wake_ms.begin(), l.wake_ms.end());
    all.shapes += l.shapes;
    all.batched_shapes += l.batched_shapes;
    all.calls += l.calls;
    all.failed += l.failed;
    for (auto& e : l.errors) r.fail(e);
  }

  const serve::ServerStats stats = s.server->stats();
  if (stats.submitted != stats.completed || stats.completed != all.shapes) {
    r.fail("cost_queries: server books do not balance (submitted " +
           std::to_string(stats.submitted) + ", completed " +
           std::to_string(stats.completed) + ", client shapes " +
           std::to_string(all.shapes) + ")");
  }
  r.attempted = all.calls;
  r.failed = all.failed;
  meter.report(r, setup_s);
  r.e2e["peak_rss_mb"] = {rss.mb, "MiB"};
  r.notes["calls"] = std::to_string(all.calls);
  r.notes["peak_rss_mb_at_tail_shapes"] = std::to_string(kRssTailShapes);
  r.notes["tail_shapes_priced"] = std::to_string(rss.tail_priced.load());

  add_serve_stats({stats}, all.batched_shapes, r.layers);
  add_result_timings(all.queue_ms, all.exec_ms, r.layers);
  r.layers["serve.wake_ms"] = {mean(all.wake_ms), "ms"};

  r.ladder.config = array_config();
  for (int i = 0; i < 24; ++i) r.ladder.shapes.push_back(s.hot[static_cast<std::size_t>(i)].shape);
  Tail tail;
  tail.mul = (spec.seed * 0x5851f42d4c957f2dULL) | 1;
  for (int i = 0; i < 8; ++i) r.ladder.shapes.push_back(tail.draw());
  r.ladder.models.push_back(shapes_model("cost_queries_shapes", r.ladder.shapes));
  return r;
}

}  // namespace perfbench

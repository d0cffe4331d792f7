// Shared pieces of the ArrayFlex benchmark: run settings, the metric maps a
// workload returns, sample statistics, process counters, and the in-memory
// span tracer that times calls into each library layer from the
// benchmark's own code.
//
// Layers are the library's modules: fleet, serve, engine, mem, gemm, arch,
// nn and hw.  A span is named "<layer>.<call>"; spans that belong to the
// benchmark itself (generation, checks, pacing) are named "client.<what>".

#pragma once

#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.h"
#include "gemm/reference.h"
#include "nn/models.h"

namespace perfbench {

using namespace af;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Process CPU time (user + system, all threads) in seconds.
double process_cpu_seconds();
// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

// Exact order statistics over a sample (sorted copy; linear interpolation).
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
// Mean of the middle half of a sample (the whole sample below four values).
double interquartile_mean(std::vector<double> values);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ---------------------------------------------------------------------------
// Span tracer.  Each thread keeps its own open-span stack, so a span's self
// time (its duration minus the time its direct children cover) is known the
// moment it closes; every span also feeds a per-name aggregate.  The first
// kMaxKeptSpans closed spans per thread are kept verbatim (name, start, end,
// parent, request id) and written out when the run ends.
class Tracer {
 public:
  static constexpr std::size_t kMaxKeptSpans = 100000;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct Aggregate {
    std::int64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  // Per-name aggregates merged over every thread that recorded spans.
  std::map<std::string, Aggregate> aggregates() const;
  // Writes the kept spans as JSON lines; returns false on I/O failure.
  bool write(const std::string& path) const;
  std::size_t kept_spans() const;

 private:
  struct ThreadLog;
  ThreadLog& log();
  void open(const char* name, std::uint64_t request);
  void close();

  const std::uint64_t generation_;
  const Clock::time_point epoch_;
  mutable std::mutex logs_mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// ---------------------------------------------------------------------------
// Set-ups timed per phase; setup_s is their median.
constexpr int kSetups = 41;

// Builds `state` kSetups times through `set_up`, each on the next allowed
// CPU in turn, and returns the median set-up time: unpinned, a
// single-threaded set-up measures whichever virtual CPU it lands on, and on
// a shared host their speeds differ by a third.  Threads a set-up starts
// inherit its CPU mask, so the state the run keeps is built once more,
// unpinned and untimed.
template <typename State, typename SetUp>
double timed_setups(State& state, SetUp&& set_up) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    const Clock::time_point t0 = Clock::now();
    state = set_up();
    times.push_back(seconds_since(t0));
    state = State{};  // torn down while still pinned, untimed
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof allowed, &allowed);
  state = set_up();
  return quantile(times, 0.5);
}

// One measurement phase of one workload.
struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  // null = tracing off
};

// What the per-layer ladder replays: a seeded sample of the workload's own
// inputs, in the array configuration the workload runs.
struct LadderInput {
  arch::ArrayConfig config;
  std::string run_backend = "analytic";  // engine.run_gemm rung backend
  std::vector<gemm::GemmShape> shapes;
  std::vector<nn::Model> models;
};

struct PhaseResult {
  bool correct = true;
  std::vector<std::string> errors;   // first few check failures
  std::int64_t attempted = 0;        // requests the workload issued
  std::int64_t failed = 0;           // failed, rejected or expired
  std::int64_t latency_samples = 0;  // samples behind the latency quantiles
                                     // (all slices together)
  Metrics e2e;                       // end-to-end metrics
  Metrics layers;                    // per-layer metrics measured live
  std::map<std::string, std::string> notes;  // extra report lines
  LadderInput ladder;

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
};

// Measures a run's end-to-end metrics.  The measured window is cut into
// equal time slices (100 ms unless a workload needs longer ones); rates and
// CPU per request are computed per slice and latency quantiles per group of
// one recorder's consecutive slices holding at least 1000 calls, and each
// metric is
// reported as the interquartile mean over slices or groups (the mean of the
// middle half).  A stall of the host (a descheduled virtual CPU, another
// tenant's burst) then moves a few slices, not the result; and where the
// host alternates between a fast and a slow state, the result moves with
// the share of time in each rather than jumping between the two, as a
// median would.  Threads record completed work through their own
// Recorder; a sampler thread snapshots process CPU time at slice bounds.
class Meter {
 public:
  class Recorder {
   public:
    // Completed work: `requests` requests of `shapes` GEMM shapes and `macs`
    // MACs in total.
    void work(std::int64_t requests, std::int64_t shapes, double macs);
    // One client-observed call latency.
    void latency(double ms);
    // Both, for a call that completed that work.
    void record(std::int64_t requests, std::int64_t shapes, double macs,
                double latency_ms) {
      work(requests, shapes, macs);
      latency(latency_ms);
    }

   private:
    friend class Meter;
    struct Slice {
      std::int64_t requests = 0;
      std::int64_t shapes = 0;
      double macs = 0.0;
      std::vector<double> latency_ms;
    };
    explicit Recorder(const Meter& meter)
        : meter_(meter), slices_(static_cast<std::size_t>(meter.slices_)) {}
    const Meter& meter_;
    std::vector<Slice> slices_;
  };

  explicit Meter(double seconds, double slice_seconds = 0.1);
  ~Meter();
  Meter(const Meter&) = delete;
  Meter& operator=(const Meter&) = delete;

  // Starts the clock and the CPU sampler; returns when load must stop.
  Clock::time_point start();
  // A recorder owned by the meter; call once per recording thread.
  Recorder& recorder();
  // Ends the window once all issued work has drained.
  void stop();
  // Sets every end-to-end metric on `r` from the slices.
  void report(PhaseResult& r, double setup_s) const;

 private:
  int slice_of(Clock::time_point t) const;

  const double seconds_;
  const int slices_;
  Clock::time_point t0_;
  Clock::time_point stopped_;
  std::vector<double> cpu_at_;  // process CPU seconds at each slice bound
  std::thread sampler_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Recorder>> recorders_;
};

PhaseResult run_cost_queries(const RunSpec& spec);
PhaseResult run_decode_serving(const RunSpec& spec);
PhaseResult run_cycle_verify(const RunSpec& spec);
PhaseResult run_design_sweep(const RunSpec& spec);

// Fills every per-layer metric the live run did not measure by replaying
// `input` through each layer's public functions.
void run_ladder(const LadderInput& input, std::uint64_t seed,
                Metrics& layers);

}  // namespace perfbench

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
// Opens a span for the rest of the enclosing scope (no-op when untraced).
#define PB_SPAN(tracer, name, request) \
  ::perfbench::Tracer::Span PB_CAT(pb_span_, __LINE__)((tracer), (name), (request))

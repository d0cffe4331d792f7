#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <numeric>

#include "bench.h"

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is this address space's own high-water mark; ru_maxrss would
  // also carry the launching process's peak across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double interquartile_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  return mean(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(cut),
                                  values.end() - static_cast<std::ptrdiff_t>(cut)));
}

// ---------------------------------------------------------------- meter

namespace {
constexpr std::size_t kMinLatencySamples = 1000;
}  // namespace

Meter::Meter(double seconds, double slice_seconds)
    : seconds_(seconds),
      slices_(std::max(1, static_cast<int>(std::lround(seconds / slice_seconds)))) {}

Meter::~Meter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

Clock::time_point Meter::start() {
  cpu_at_.assign(slices_ + 1, 0.0);
  cpu_at_[0] = process_cpu_seconds();
  t0_ = Clock::now();
  const auto bound = [this](int i) {
    return t0_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds_ * i / slices_));
  };
  sampler_ = std::thread([this, bound] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (int i = 1; i < slices_; ++i) {
      if (cv_.wait_until(lock, bound(i), [this] { return stopping_; })) return;
      cpu_at_[static_cast<std::size_t>(i)] = process_cpu_seconds();
    }
  });
  return bound(slices_);
}

Meter::Recorder& Meter::recorder() {
  std::lock_guard<std::mutex> lock(mutex_);
  recorders_.push_back(std::unique_ptr<Recorder>(new Recorder(*this)));
  return *recorders_.back();
}

void Meter::stop() {
  stopped_ = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  cpu_at_[slices_] = process_cpu_seconds();
}

int Meter::slice_of(Clock::time_point t) const {
  const double s = std::chrono::duration<double>(t - t0_).count();
  const int i = static_cast<int>(s / seconds_ * slices_);
  return std::clamp(i, 0, slices_ - 1);  // drain completions join the last
}

void Meter::Recorder::work(std::int64_t requests, std::int64_t shapes, double macs) {
  Slice& s = slices_[static_cast<std::size_t>(meter_.slice_of(Clock::now()))];
  s.requests += requests;
  s.shapes += shapes;
  s.macs += macs;
}

void Meter::Recorder::latency(double ms) {
  slices_[static_cast<std::size_t>(meter_.slice_of(Clock::now()))].latency_ms.push_back(ms);
}

void Meter::report(PhaseResult& r, double setup_s) const {
  std::vector<double> req_rate, shape_rate, mac_rate, cpu_per_req;
  for (int i = 0; i < slices_; ++i) {
    Recorder::Slice all;
    for (const auto& rec : recorders_) {
      const Recorder::Slice& s = rec->slices_[static_cast<std::size_t>(i)];
      all.requests += s.requests;
      all.shapes += s.shapes;
      all.macs += s.macs;
    }
    // The last slice runs until the drain finished.
    const double len = i + 1 < slices_ ? seconds_ / slices_
                                       : std::chrono::duration<double>(stopped_ - t0_).count() -
                                             seconds_ * (slices_ - 1) / slices_;
    const double cpu = cpu_at_[static_cast<std::size_t>(i + 1)] - cpu_at_[static_cast<std::size_t>(i)];
    req_rate.push_back(static_cast<double>(all.requests) / len);
    shape_rate.push_back(static_cast<double>(all.shapes) / len);
    mac_rate.push_back(all.macs / len);
    cpu_per_req.push_back(cpu * 1e6 / static_cast<double>(std::max<std::int64_t>(all.requests, 1)));
  }
  // Latency quantiles come from groups of one recorder's consecutive slices
  // that each hold kMinLatencySamples, so every group's p99 has ten samples
  // beyond it; a short remainder joins the recorder's last group.  Groups
  // stay per recorder (per thread): a thread on a slow virtual CPU then
  // makes its own slow groups instead of tipping a pooled median.
  std::vector<double> p50, p99;
  std::int64_t samples = 0;
  for (const auto& rec : recorders_) {
    std::vector<std::vector<double>> groups(1);
    for (const Recorder::Slice& s : rec->slices_) {
      if (groups.back().size() >= kMinLatencySamples) groups.emplace_back();
      groups.back().insert(groups.back().end(), s.latency_ms.begin(), s.latency_ms.end());
      samples += static_cast<std::int64_t>(s.latency_ms.size());
    }
    if (groups.size() > 1 && groups.back().size() < kMinLatencySamples) {
      std::vector<double> tail = std::move(groups.back());
      groups.pop_back();
      groups.back().insert(groups.back().end(), tail.begin(), tail.end());
    }
    for (const std::vector<double>& g : groups) {
      if (g.empty()) continue;
      p50.push_back(quantile(g, 0.50));
      p99.push_back(quantile(g, 0.99));
    }
  }
  r.e2e["setup_s"] = {setup_s, "s"};
  r.e2e["requests_per_s"] = {interquartile_mean(req_rate), "1/s"};
  r.e2e["shapes_per_s"] = {interquartile_mean(shape_rate), "1/s"};
  r.e2e["sim_macs_per_s"] = {interquartile_mean(mac_rate), "MAC/s"};
  r.e2e["latency_p50_ms"] = {interquartile_mean(p50), "ms"};
  r.e2e["latency_p99_ms"] = {interquartile_mean(p99), "ms"};
  r.e2e["cpu_us_per_req"] = {interquartile_mean(cpu_per_req), "us"};
  r.e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  r.latency_samples = samples;
}

// ---------------------------------------------------------------- tracer

namespace {
std::atomic<std::uint64_t> g_tracer_generation{0};
}  // namespace

struct Tracer::ThreadLog {
  struct Frame {
    const char* name;
    std::int64_t start_ns;
    std::uint64_t id;
    std::uint64_t request;
    double child_ns;
  };
  struct Kept {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
  };
  std::uint32_t thread = 0;
  std::uint64_t next_id = 1;
  std::vector<Frame> stack;
  std::vector<Kept> kept;
  std::map<const char*, Aggregate> agg;  // keyed by the literal's address
};

namespace {
struct ThreadCache {
  std::uint64_t generation = ~std::uint64_t{0};
  void* log = nullptr;
};
thread_local ThreadCache t_cache;
}  // namespace

Tracer::Tracer()
    : generation_(g_tracer_generation.fetch_add(1)),
      epoch_(Clock::now()) {}

Tracer::~Tracer() = default;

Tracer::ThreadLog& Tracer::log() {
  if (t_cache.generation != generation_) {
    auto fresh = std::make_unique<ThreadLog>();
    std::lock_guard<std::mutex> lock(logs_mutex_);
    fresh->thread = static_cast<std::uint32_t>(logs_.size());
    fresh->kept.reserve(std::min<std::size_t>(kMaxKeptSpans, 1 << 16));
    t_cache.generation = generation_;
    t_cache.log = fresh.get();
    logs_.push_back(std::move(fresh));
  }
  return *static_cast<ThreadLog*>(t_cache.log);
}

void Tracer::open(const char* name, std::uint64_t request) {
  ThreadLog& l = log();
  const std::uint64_t id = (std::uint64_t{l.thread} << 40) | l.next_id++;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  l.stack.push_back({name, now, id, request, 0.0});
}

void Tracer::close() {
  ThreadLog& l = log();
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  const ThreadLog::Frame f = l.stack.back();
  l.stack.pop_back();
  const double dur = static_cast<double>(now - f.start_ns);
  std::uint64_t parent = 0;
  if (!l.stack.empty()) {
    l.stack.back().child_ns += dur;
    parent = l.stack.back().id;
  }
  Aggregate& a = l.agg[f.name];
  a.count += 1;
  a.total_ns += dur;
  a.self_ns += dur - f.child_ns;
  if (l.kept.size() < kMaxKeptSpans) {
    l.kept.push_back({f.name, f.start_ns, now, f.id, parent, f.request});
  }
}

Tracer::Span::Span(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->open(name, request);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close();
}

std::map<std::string, Tracer::Aggregate> Tracer::aggregates() const {
  std::lock_guard<std::mutex> lock(logs_mutex_);
  std::map<std::string, Aggregate> out;
  for (const auto& l : logs_) {
    for (const auto& [name, a] : l->agg) {
      Aggregate& o = out[name];
      o.count += a.count;
      o.total_ns += a.total_ns;
      o.self_ns += a.self_ns;
    }
  }
  return out;
}

std::size_t Tracer::kept_spans() const {
  std::lock_guard<std::mutex> lock(logs_mutex_);
  std::size_t n = 0;
  for (const auto& l : logs_) n += l->kept.size();
  return n;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(logs_mutex_);
  for (const auto& l : logs_) {
    for (const ThreadLog::Kept& k : l->kept) {
      out << "{\"name\":\"" << k.name << "\",\"thread\":" << l->thread
          << ",\"id\":" << k.id << ",\"parent\":" << k.parent
          << ",\"request\":" << k.request << ",\"start_ns\":" << k.start_ns
          << ",\"end_ns\":" << k.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

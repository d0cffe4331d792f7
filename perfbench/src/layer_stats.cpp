#include "layer_stats.h"

#include <algorithm>

namespace perfbench {

void add_serve_stats(const std::vector<serve::ServerStats>& servers,
                     std::int64_t non_gemm_requests, Metrics& m) {
  std::int64_t batches = 0, requests = 0, fused = 0, switches = 0, steals = 0;
  std::int64_t hits = 0, misses = 0, rejected = 0, expired = 0, retries = 0;
  double busy_ps = 0.0, reconfig_ps = 0.0;
  for (const serve::ServerStats& s : servers) {
    steals += s.steals;
    hits += s.cost_cache_hits;
    misses += s.cost_cache_misses;
    rejected += s.rejected;
    expired += s.expired;
    retries += s.retries;
    for (const serve::ShardSnapshot& sh : s.shards) {
      batches += sh.batches;
      requests += sh.requests;
      fused += sh.fused_runs;
      switches += sh.mode_switches;
      busy_ps += sh.busy_time_ps;
      reconfig_ps += sh.reconfig_time_ps;
    }
  }
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double gemm_requests =
      static_cast<double>(std::max<std::int64_t>(requests - non_gemm_requests, 0));
  m["serve.batches"] = {static_cast<double>(batches), "count"};
  m["serve.batch_size"] = {ratio(static_cast<double>(requests), static_cast<double>(batches)), "req/batch"};
  m["serve.fused_runs"] = {static_cast<double>(fused), "count"};
  m["serve.fusion_ratio"] = {ratio(gemm_requests, static_cast<double>(fused)), "req/run"};
  m["serve.steal_share"] = {ratio(static_cast<double>(steals), static_cast<double>(batches)), "ratio"};
  m["serve.mode_switches"] = {static_cast<double>(switches), "count"};
  m["serve.sim_busy_ms"] = {(busy_ps + reconfig_ps) * 1e-9, "ms"};
  m["serve.reconfig_share"] = {ratio(reconfig_ps, busy_ps + reconfig_ps), "ratio"};
  m["serve.cost_cache_lookups"] = {static_cast<double>(hits + misses), "count"};
  m["serve.cost_cache_hit_ratio"] = {ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio"};
  m["serve.rejected"] = {static_cast<double>(rejected), "count"};
  m["serve.expired"] = {static_cast<double>(expired), "count"};
  m["serve.retries"] = {static_cast<double>(retries), "count"};
}

void add_result_timings(const std::vector<double>& queue_ms,
                        const std::vector<double>& exec_ms, Metrics& m) {
  m["serve.queue_ms_p50"] = {quantile(queue_ms, 0.50), "ms"};
  m["serve.queue_ms_p99"] = {quantile(queue_ms, 0.99), "ms"};
  m["serve.exec_ms"] = {mean(exec_ms), "ms"};
  m["serve.result_samples"] = {static_cast<double>(queue_ms.size()), "count"};
}

void add_fleet_stats(const fleet::FleetStats& stats, Metrics& m) {
  m["fleet.failovers"] = {static_cast<double>(stats.failovers), "count"};
  m["fleet.hedges"] = {static_cast<double>(stats.hedges), "count"};
  m["fleet.duplicate_results"] = {static_cast<double>(stats.duplicate_results), "count"};
  m["fleet.rerouted_overload"] = {static_cast<double>(stats.rerouted_overload), "count"};
  m["fleet.tickets"] = {static_cast<double>(stats.submitted), "count"};
}

nn::Model shapes_model(const std::string& name,
                       const std::vector<gemm::GemmShape>& shapes) {
  nn::Model model;
  model.name = name;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const gemm::GemmShape& s = shapes[i];
    model.layers.push_back(
        nn::Layer::gemm("g" + std::to_string(i), s.t, s.n, s.m));
  }
  return model;
}

}  // namespace perfbench

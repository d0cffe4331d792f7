// Per-layer metrics read from the library's own books (ServerStats,
// FleetStats) and from the per-request results a workload collected.

#pragma once

#include <vector>

#include "bench.h"
#include "fleet/fleet.h"
#include "serve/server.h"

namespace perfbench {

// serve.* counts and ratios (with their bases) summed over `servers`.
// `non_gemm_requests` are the shard-served requests that never form a
// fused GEMM run (batched cost shapes, inference slices); they are left
// out of serve.fusion_ratio.
void add_serve_stats(const std::vector<serve::ServerStats>& servers,
                     std::int64_t non_gemm_requests, Metrics& m);

// serve.queue_ms_p50/p99 and serve.exec_ms from GemmResult timings.
void add_result_timings(const std::vector<double>& queue_ms,
                        const std::vector<double>& exec_ms, Metrics& m);

// fleet.* counts from FleetStats.
void add_fleet_stats(const fleet::FleetStats& stats, Metrics& m);

// A model with one GEMM layer per shape, for the nn rung.
nn::Model shapes_model(const std::string& name,
                       const std::vector<gemm::GemmShape>& shapes);

}  // namespace perfbench

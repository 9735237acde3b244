// The benchmark's workloads. Each builds its inputs from the seed, sets up
// the pipeline kSetups times, measures for args.seconds, checks outputs and
// records every metric in `report`.
#pragma once

#include <cstddef>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Kernel-pool size (RIHGCN_THREADS) a workload runs with; main() exports
/// it before the library's global pool is first used.
[[nodiscard]] std::size_t kernel_threads(const std::string& workload);

/// district_ticks and campus_fanout: open-loop serving through
/// serve::ForecastServer, plus a separate closed-loop capacity phase.
void run_serving(const Args& args, Report& report);

/// city_backfill: core::ShardedEngine over a held-out span, back to back.
void run_city(const Args& args, Report& report);

}  // namespace perfbench

// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload <district_ticks|campus_fanout|city_backfill>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--depth-factor <k>]
//
// --trace-out names the span file and is required with --trace 1.
//
// Prints the host record, the threads each phase runs by role, every
// metric with its unit and sample count, and as its last line one JSON
// object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Exits 1 when a correctness check fails, 2 on bad arguments
// or an error.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = a.seconds > 0.0;
      } else if (key == "--trace") {
        a.trace = val == "1";
        have_trace = val == "0" || val == "1";
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else if (key == "--depth-factor") {
        a.depth_factor = std::stoul(val);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  const bool known = a.workload == "district_ticks" ||
                     a.workload == "campus_fanout" ||
                     a.workload == "city_backfill";
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace && known && a.depth_factor >= 1 &&
         (!a.trace || !a.trace_out.empty());
}

}  // namespace

std::size_t perfbench::kernel_threads(const std::string& workload) {
  return workload == "city_backfill" ? 4 : 1;
}

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<district_ticks|campus_fanout|city_backfill> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--depth-factor <k>]\n");
    return 2;
  }
  // Open-loop sends wake on absolute deadlines; 1 us timer slack instead of
  // the default 50 us keeps the generator's own lateness small.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  // The library's kernel pool reads RIHGCN_THREADS once, on first use; no
  // server-side override of the flush mode either.
  const std::string kernel =
      std::to_string(perfbench::kernel_threads(args.workload));
  setenv("RIHGCN_THREADS", kernel.c_str(), 1);
  unsetenv("RIHGCN_SERVE_WORKERS");

  perfbench::Report report;
  report.info("workload " + args.workload + " seed " +
              std::to_string(args.seed) + " seconds " +
              std::to_string(args.seconds) + " trace " +
              (args.trace ? "1" : "0"));
  report.info("host: nproc " + std::to_string(perfbench::nproc()) +
              ", cpu \"" + perfbench::cpu_model() + "\", RIHGCN_THREADS " +
              kernel);
  try {
    if (args.workload == "city_backfill") {
      perfbench::run_city(args, report);
    } else {
      perfbench::run_serving(args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  report.print(args.trace);
  return report.correct() ? 0 : 1;
}

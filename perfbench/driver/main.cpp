// perfbench driver: runs one named workload for a fixed time and prints
// the result line (see perfbench/README.md).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--t0-ns <ns>] [--out-dir <dir>]
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hpp"
#include "runtime/multiproc.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench_driver --workload "
               "<live_skew|live_wide|frontdoor_mixed> --seed N "
               "--seconds S --trace 0|1 [--t0-ns NS] [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The router re-executes this binary as its worker processes.
  const int wrc = fastjoin::multiproc_worker_maybe_run(argc, argv);
  if (wrc >= 0) return wrc;

  perfbench::Args args;
  args.t0_ns = perfbench::now_ns();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--t0-ns") {
      args.t0_ns = std::strtoll(v, nullptr, 10);
    } else if (k == "--out-dir") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return usage();

  perfbench::tracing_enable(args.trace);
  perfbench::Report rep;
  int rc = 0;
  if (args.workload == "live_skew") {
    rc = perfbench::run_live(args, rep, false);
  } else if (args.workload == "live_wide") {
    rc = perfbench::run_live(args, rep, true);
  } else if (args.workload == "frontdoor_mixed") {
    rc = perfbench::run_frontdoor(args, rep);
  } else {
    return usage();
  }
  if (rc != 0) return rc;
  if (args.trace) {
    const std::string path = args.out_dir + "/trace_" + args.workload + ".json";
    if (!perfbench::write_chrome_trace(path)) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "wrote " << path << "\n";
  }
  return rep.finish();
}

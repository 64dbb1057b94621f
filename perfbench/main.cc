// privhp_perfbench: one run of one publish->serve workload.
//
//   privhp_perfbench --workload build|mixed --seed N --seconds S
//                    --trace 0|1 --scratch DIR [--git-sha SHA]
//
// Prints a record line (environment and workload parameters) and, last,
// the result line {"correct", "attempted", "failed", "values"}. The
// runner script (run.py) builds this binary and turns the values into
// the metric records named in BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd.h"

#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __VERSION__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.scratch_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "--scratch and a positive --seconds are required\n");
    return 2;
  }

  perfbench::Report report;
  report.Info("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("seconds", args.seconds);
  report.Info("trace", args.trace ? "1" : "0");
  report.Info("git_sha", git_sha);
  report.Info("nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("simd", privhp::SimdLevelName(privhp::ActiveSimdLevel()));
  report.Info("compiler", PERFBENCH_COMPILER);
  report.Info("build_type", PERFBENCH_BUILD_TYPE);

  bool ran = false;
  if (args.workload == "build") {
    ran = perfbench::RunBuild(args, &report);
  } else if (args.workload == "mixed") {
    ran = perfbench::RunMixed(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.Emit();
  if (!ran) {
    std::fprintf(stderr, "perfbench: workload %s could not run\n",
                 args.workload.c_str());
    return 1;
  }
  return 0;
}

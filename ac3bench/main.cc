// ac3bench: the repository benchmark binary. ac3bench/run.py builds and
// drives it; run by hand it prints one JSON object with every measured
// metric, the failure count and the provenance of the run:
//
//   ac3bench --workload swap_sweep --seed 1 --seconds 10 [--trace 1
//            --trace-file out.json] [--tiny]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "ac3bench/bench.h"
#include "src/crypto/sha256.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ac3bench --workload swap_sweep|crash_sweep|"
               "openworld_bursty --seed N --seconds S [--trace 0|1]\n"
               "                [--trace-file PATH] [--tiny]\n");
}

bool ParseArgs(int argc, char** argv, ac3bench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  ac3bench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // At most four workers, so sweep figures stay comparable on hosts with
  // more cores.
  args.workers = std::min(4, cores);

  ac3bench::Result result;
  const bool known = args.workload == "openworld_bursty"
                         ? ac3bench::RunOpenworld(args, &result)
                         : ac3bench::RunSweepWorkload(args, &result);
  if (!known) {
    std::fprintf(stderr, "ac3bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  ac3::runner::Json provenance = ac3::runner::Json::Object();
  provenance.Set("compiler", AC3BENCH_COMPILER);
  provenance.Set("build_type", AC3BENCH_BUILD_TYPE);
  provenance.Set("nproc", cores);
  provenance.Set("sweep_workers", args.workers);
  provenance.Set("sha256_dispatch", ac3::crypto::Sha256::DispatchName(
                                        ac3::crypto::Sha256::ActiveDispatch()));
  provenance.Set("seed", args.seed);
  provenance.Set("workload", args.workload);
  provenance.Set("trace", args.trace);
  provenance.Set("tiny", args.tiny);

  ac3::runner::Json out = result.ToJson();
  out.Set("provenance", std::move(provenance));
  std::fputs(out.Serialize().c_str(), stdout);
  return 0;
}

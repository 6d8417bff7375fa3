// bda_perfbench: one workload of the repo benchmark per invocation.
//
//   bda_perfbench --workload <rapid_refresh|sharded_30s|products>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Human-readable lines go to stdout first; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  The exit code is nonzero
// when any output check failed.  perfbench/run.py builds and runs this.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bda_perfbench: %s\nusage: bda_perfbench --workload "
               "<rapid_refresh|sharded_30s|products> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  a.trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

void print_result(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    // JSON has no NaN/Inf; a metric that could not be formed reads 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Result r;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  try {
    if (args.workload == "rapid_refresh") {
      perfbench::run_rapid_refresh(args, r);
    } else if (args.workload == "sharded_30s") {
      perfbench::run_sharded_30s(args, r);
    } else if (args.workload == "products") {
      perfbench::run_products(args, r);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bda_perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& f : r.failures)
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  if (r.attempted == 0) r.check(false, "no operation was attempted");
  std::fflush(stdout);
  print_result(r);
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}

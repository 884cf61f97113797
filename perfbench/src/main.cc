// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tmp-dir <dir>] [--setup-only 1]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it stamps
// the build and machine. With --setup-only 1 the run stops after its
// set-up and the last line is {"correct", "setup_s"}. Unknown flags exit with code 2; wrong output
// prints the result with "correct": false and exits with code 1.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{cotrain-squirrel|blocks-100k|serve-sampled|serve-lookup} "
               "--seed N --seconds S --trace {0|1} [--tmp-dir DIR] "
               "[--setup-only 1]\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      config.tmp_dir = value;
    } else if (flag == "--setup-only") {
      if (value != "0" && value != "1") {
        return Usage("--setup-only takes 0 or 1");
      }
      config.setup_only = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace need valid values");
  }

  perfbench::Outcome (*run)(const perfbench::RunConfig&) = nullptr;
  if (workload == "cotrain-squirrel") run = perfbench::RunCotrainSquirrel;
  if (workload == "blocks-100k") run = perfbench::RunBlocks100k;
  if (workload == "serve-sampled") run = perfbench::RunServeSampled;
  if (workload == "serve-lookup") run = perfbench::RunServeLookup;
  if (run == nullptr) return Usage(("unknown workload " + workload).c_str());

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  if (!release) {
    std::fprintf(stderr, "perfbench: WARNING: %s build, timings are not "
                 "comparable\n", PERFBENCH_BUILD_TYPE);
  }

  const perfbench::Outcome outcome = run(config);
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  if (config.setup_only) {
    std::printf("%s\n", perfbench::SetupOnlyLine(outcome).c_str());
    std::fflush(stdout);
    return outcome.correct ? 0 : 1;
  }
  std::printf("# env {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %ld, \"cpu\": \"%s\", \"omp_threads\": %d, "
              "\"build_type\": \"%s\", \"release\": %s}\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              CpuModel().c_str(), threads, PERFBENCH_BUILD_TYPE,
              release ? "true" : "false");
  std::printf("%s\n", perfbench::ResultLine(outcome, config.trace).c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

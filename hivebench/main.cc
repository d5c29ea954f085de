// hivebench: end-to-end benchmark of the hivesim libraries.
//
//   hivebench --workload fleet_churn|chaos_swarm|paper_sweep --seed N
//             --seconds S --trace 0|1 --result PATH [--spans-out PATH]
//
// Prints a human-readable report on stdout and writes the run's metrics,
// correctness counts and simulated outputs as JSON to --result. Normally
// driven by run.py, which builds this binary, compares the outputs with
// the committed reference and prints the one-line result.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "hivebench: %s\nusage: hivebench --workload NAME --seed N "
               "--seconds S --trace 0|1 --result PATH [--spans-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hivebench::Options options;
  std::string result_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--result") {
      result_path = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (result_path.empty()) return Usage("--result is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  std::unique_ptr<hivebench::Workload> workload;
  if (options.workload == "fleet_churn") {
    workload = hivebench::MakeFleetChurn(options.seed);
  } else if (options.workload == "chaos_swarm") {
    workload = hivebench::MakeChaosSwarm(options.seed);
  } else if (options.workload == "paper_sweep") {
    workload = hivebench::MakePaperSweep(options.seed);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  hivebench::Report report;
  hivebench::RunBenchmark(*workload, options, report);
  std::fflush(stdout);

  std::FILE* out = std::fopen(result_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "hivebench: cannot write %s\n", result_path.c_str());
    return 1;
  }
  const std::string json =
      report.ToJson(options.workload, options.seed, options.trace);
  std::fputs(json.c_str(), out);
  std::fputc('\n', out);
  return std::fclose(out) == 0 ? 0 : 1;
}

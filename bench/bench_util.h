#ifndef HIVESIM_BENCH_BENCH_UTIL_H_
#define HIVESIM_BENCH_BENCH_UTIL_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/table_writer.h"
#include "telemetry/telemetry.h"

namespace hivesim::bench {

/// One reproduced number: what the paper reports vs. what the simulator
/// measured. Paper values are optional because several figures only show
/// bars without printed numbers.
struct PaperComparison {
  std::string experiment;
  std::string metric;
  std::optional<double> paper;
  double simulated = 0;
};

/// Collects comparisons and prints an aligned table with the relative
/// deviation where a paper value exists. Every bench binary feeds
/// EXPERIMENTS.md from this output.
class ComparisonTable {
 public:
  explicit ComparisonTable(std::string title);

  void Add(const std::string& experiment, const std::string& metric,
           double paper, double simulated);
  /// For figure series without printed paper numbers.
  void AddSimulatedOnly(const std::string& experiment,
                        const std::string& metric, double simulated);

  /// Prints the table to stdout. When the HIVESIM_BENCH_CSV_DIR
  /// environment variable is set, also writes the rows as
  /// `<dir>/<slugified-title>.csv` for external plotting.
  void Print() const;

 private:
  std::string title_;
  std::vector<PaperComparison> rows_;
};

/// Lowercases and replaces non-alphanumerics with '_' (CSV file names).
std::string Slugify(const std::string& text);

/// Prints a section heading so bench output reads like the paper.
void PrintHeading(const std::string& text);

/// Opt-in telemetry for bench binaries: construct at the top of main()
/// with &argc/argv *before* benchmark::Initialize. Strips
/// `--trace-out=PATH` / `--metrics-out=PATH` from argv (google-benchmark
/// rejects flags it does not know), enables telemetry when either was
/// present, and writes the requested dumps on destruction. With neither
/// flag it is a no-op and the run stays on the disabled fast path.
class TelemetryScope {
 public:
  TelemetryScope(int* argc, char** argv);
  ~TelemetryScope();

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  std::string trace_out_;
  std::string metrics_out_;
};

/// Machine-readable perf reporting for the trajectory gate: construct
/// with &argc/argv *before* benchmark::Initialize (it strips
/// `--bench-json=PATH`, which google-benchmark would reject), register
/// deterministic self-check values with `AddCheck`, then let
/// `RunAndReport` drive Initialize + RunSpecifiedBenchmarks.
///
/// When `--bench-json` was given, the run is captured through a
/// collecting reporter (console output is preserved) and written as
///
///   {"area":"<area>",
///    "benches":{"BM_Name/arg":{"ns_per_iter":<min across repetitions>}},
///    "checks":{"<key>":<value>},
///    "max_rss_bytes":<process peak RSS after the run, getrusage>,
///    "schema":"hivesim-bench/1"}
///
/// `hivesim perfgate` compares these artifacts against the committed
/// baselines in bench/baselines/. Timings are compared with a relative
/// threshold; checks must match exactly — they are the bench's
/// determinism self-test values, so a drift there is a correctness
/// regression, not noise. The peak RSS is the area's memory ceiling and
/// is gated with its own (generous) relative threshold. Without the flag
/// everything behaves as before.
class PerfJsonScope {
 public:
  /// `area` names the artifact ("kernel_sim" -> BENCH_kernel_sim.json).
  PerfJsonScope(int* argc, char** argv, std::string area);

  /// Records one deterministic value verified exactly by the perf gate.
  void AddCheck(const std::string& key, double value);

  bool json_requested() const { return !json_out_.empty(); }

  /// benchmark::Initialize + RunSpecifiedBenchmarks (+ JSON artifact
  /// when requested). Returns the process exit code.
  int RunAndReport(int* argc, char** argv);

 private:
  std::string area_;
  std::string json_out_;
  std::map<std::string, double> checks_;
};

/// The network layer's deterministic work counters for one run
/// (`net.solves`, `net.solves_same_ts`, `net.flows_settled`,
/// `net.removals_pinned`; see docs/OBSERVABILITY.md). Registered as
/// perfgate checks, they turn a complexity regression into check drift
/// that no timing noise hides.
struct NetWorkCounters {
  double solves = 0;
  double solves_same_ts = 0;
  double flows_settled = 0;
  double removals_pinned = 0;

  bool operator==(const NetWorkCounters&) const = default;
  /// Registers the four counters as `<prefix>_solves`, ...
  void AddChecks(const std::string& prefix, PerfJsonScope& perf) const;
};

/// Routes the calling thread's metrics into a private registry for the
/// scope's lifetime and drops its trace events, leaving the
/// process-global sinks (and any `--trace-out`/`--metrics-out` dump)
/// untouched: wrap a determinism self-check run in one to read its work
/// counters back without growing the process's peak RSS.
class PrivateMetrics {
 public:
  PrivateMetrics();

  PrivateMetrics(const PrivateMetrics&) = delete;
  PrivateMetrics& operator=(const PrivateMetrics&) = delete;

  NetWorkCounters net_work() const;
  /// Any counter of the scope's registry (0 when never bumped).
  double counter(std::string_view name) const {
    return metrics_.CounterValue(name);
  }

 private:
  telemetry::MetricsRegistry metrics_;
  telemetry::Telemetry::ScopedSinks sinks_;
};

}  // namespace hivesim::bench

#endif  // HIVESIM_BENCH_BENCH_UTIL_H_

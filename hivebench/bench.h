#ifndef HIVEBENCH_BENCH_H_
#define HIVEBENCH_BENCH_H_

// Shared pieces of the hivesim end-to-end benchmark: the in-memory span
// tracer, the run report (metrics, correctness checks, reference
// outputs), and the pass loop every workload runs through.
//
// Vocabulary used throughout:
//   pass     one fixed set of worlds (the whole workload mix); a run
//            repeats passes until its measuring time is used up, and
//            every end-to-end figure is the median over passes.
//   setup    host time before a world's simulated clock starts.
//   run      host time while the simulated clock runs.
// Simulated quantities are always named sim_*; everything else is host
// time.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace hivebench {

/// Monotonic host nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// Spans recorded by the benchmark's own code around each public hivesim
/// call it makes. Kept in memory while the run measures and written once
/// at the end. A span's self time is its duration minus the time its
/// direct child spans cover. Single-threaded: only the benchmark's main
/// thread records.
class Tracer {
 public:
  enum Name : int {
    kSimRun,            ///< sim::Simulator::Run
    kCallback,          ///< The benchmark's own simulator callbacks.
    kStartFlow,         ///< net::Network::StartFlow
    kCancelFlow,        ///< net::Network::CancelFlow
    kFleetBuild,        ///< Topology, nodes and Network of a fleet world.
    kBuildWorld,        ///< core::BuildExperimentWorld
    kCompile,           ///< scenario::Compile
    kArm,               ///< faults::ChaosInjector::Arm
    kComplete,          ///< core::CompleteExperiment
    kRunSweep,          ///< core::RunSweep
    kAnalyze,           ///< telemetry::AnalyzeChromeJson
    kAttachMetrics,     ///< telemetry::AttachMetrics
    kNumNames,
  };
  static const char* NameOf(int name);

  struct Record {
    int name = 0;
    int parent = -1;  ///< Index of the enclosing span, -1 at top level.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t self_ns = 0;
  };

  struct Stats {
    uint64_t calls = 0;
    int64_t self_ns = 0;   ///< Sum over calls.
    double self_p50_ns = 0;
    double self_p99_ns = 0;
  };

  void Open(int name);
  void Close();

  Stats StatsOf(int name) const;
  /// Sum of self time over every span (the traced host time covered).
  int64_t TotalSelfNs() const;
  /// One line per span: index, parent, name, start/end/self ns.
  bool WriteTsv(const std::string& path) const;

 private:
  struct OpenSpan {
    int record = 0;
    int64_t child_ns = 0;
  };
  std::vector<Record> records_;
  std::vector<OpenSpan> stack_;
};

/// RAII span; a null tracer records nothing (the untraced path is one
/// branch).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Open(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Simulated outputs of one pass, compared bit for bit across passes and,
/// for the default seed, against the committed reference (integers
/// exactly, doubles within 1e-9 relative; run.py does that comparison).
class Outputs {
 public:
  void Int(const std::string& name, int64_t value) { ints_[name] = value; }
  void Real(const std::string& name, double value) { reals_[name] = value; }
  bool operator==(const Outputs& other) const {
    return ints_ == other.ints_ && reals_ == other.reals_;
  }
  const std::map<std::string, int64_t>& ints() const { return ints_; }
  const std::map<std::string, double>& reals() const { return reals_; }

 private:
  std::map<std::string, int64_t> ints_;
  std::map<std::string, double> reals_;
};

/// What one pass measured. Rates are derived per pass and reported as
/// the median over passes.
struct PassStats {
  double setup_sec = 0;  ///< Host time in world set-up inside the pass.
  double run_sec = 0;    ///< Host time with simulated clocks running.
  double wall_sec = 0;   ///< The whole pass, set-up and checks included.
  double sim_hours = 0;
  double events = 0;     ///< Simulator events fired.
  double cells = 0;      ///< Worlds (sweep cells) finished.
  double flow_completions = 0;  ///< Counted where the workload can.
  double analyze_sec = 0;       ///< paper_sweep analyzer host time.
  double trace_mb = 0;          ///< paper_sweep Chrome trace MB.
  Outputs outputs;
};

/// Metrics, correctness checks and reference outputs of one run; main.cc
/// prints it and writes it as JSON for run.py.
class Report {
 public:
  /// Counts one attempted operation or check; a false `ok` is a failure
  /// (kept with its description, never turned into a zero row).
  bool Check(bool ok, const std::string& what);

  /// A measured metric. `measured` false marks a per-layer value the
  /// workload does not exercise (written as 0, printed as "-").
  void Set(const std::string& name, double value, const std::string& unit,
           bool measured = true);
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    bool measured = true;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }

  Outputs outputs;

  std::string ToJson(const std::string& workload, uint64_t seed,
                     bool trace) const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);
/// Linear-interpolated quantile q in [0,1] of a sample.
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string spans_out;  ///< Where the traced run writes its spans.
};

/// One benchmark workload: a fixed mix of worlds derived from the seed.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every world of one pass up to the point its simulated clock
  /// would start, then discards it; returns the host seconds of set-up.
  virtual double SetupOnce(Report& report) = 0;
  /// Runs one full pass. `tracer` is null outside the traced phase.
  virtual PassStats RunPass(Report& report, Tracer* tracer) = 0;
  /// Runs one pass with hivesim telemetry routed into `registry`, so the
  /// program's own counters can be read; returns the pass's outputs.
  virtual Outputs CountPass(Report& report,
                            hivesim::telemetry::MetricsRegistry* registry) = 0;
  /// Workload-specific end-to-end figures printed in the report (not
  /// gated), computed from the untraced passes.
  virtual void ReportExtras(Report& report,
                            const std::vector<PassStats>& passes) = 0;
  /// Per-layer values only this workload can measure (span-derived
  /// values for its own calls); everything registry-derived is shared.
  virtual void ReportLayers(Report& report, const Tracer& tracer,
                            const std::vector<PassStats>& traced) = 0;
};

std::unique_ptr<Workload> MakeFleetChurn(uint64_t seed);
std::unique_ptr<Workload> MakeChaosSwarm(uint64_t seed);
std::unique_ptr<Workload> MakePaperSweep(uint64_t seed);

/// Runs the workload under `options` into `report`: set-up repetitions,
/// untraced passes for the end-to-end metrics, and with `options.trace`
/// a traced phase plus a counting pass for the per-layer metrics.
void RunBenchmark(Workload& workload, const Options& options,
                  Report& report);

}  // namespace hivebench

#endif  // HIVEBENCH_BENCH_H_

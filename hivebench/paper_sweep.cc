// paper_sweep: core::RunSweep over series A-D x {CONV, RXLM, RN50,
// WhSmall} x TBS {8192, 32768} x 2 simulated hours on 2 worker threads,
// with per-run telemetry on and no output directory; afterwards every
// cell's Chrome trace goes through AnalyzeChromeJson + AttachMetrics.
// It exercises per-cell world set-up, the sweep pool and aggregator, the
// telemetry-enabled path and the analyzer (the other workloads run with
// telemetry off). The TBS-32768 CONV/RXLM cells carry the paper's
// Fig. 7-10 anchors. A pass is the whole 136-cell grid.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/units.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "core/sweep_runner.h"
#include "net/profiles.h"
#include "telemetry/analysis.h"

namespace hivebench {
namespace {

using namespace hivesim;
using models::ModelId;

constexpr int kSweepThreads = 2;

/// How an anchor's simulated value is read off the TBS-32768 cells.
enum class Measure {
  kSps,          ///< Throughput of the cell.
  kGranularity,  ///< Calculation / communication time of the cell.
  kSpeedup,      ///< Throughput / the single-GPU baseline `base`.
  kRelative,     ///< Throughput / throughput of cell (ref_fleet, model).
};

struct Anchor {
  const char* source;  ///< Where the figure's bench states the anchor.
  const char* label;
  double paper;
  const char* fleet;
  ModelId model;
  Measure measure;
  double base = 0;
  const char* ref_fleet = nullptr;
};

constexpr ModelId kCv = ModelId::kConvNextLarge;
constexpr ModelId kNlp = ModelId::kRobertaXlm;
// The single-GPU A-1 baselines the figures divide by (80 SPS CONV,
// 209 SPS RXLM; bench/bench_fig7_intra_zone.cc:42-43).
constexpr double kCvBase = 80.0;
constexpr double kNlpBase = 209.0;

// Paper values copied from the Fig. 7-10 benches, one row per
// ComparisonTable::Add call there.
const Anchor kAnchors[] = {
    {"bench/bench_fig7_intra_zone.cc:58", "A-2 NLP SPS", 211.4, "A-2", kNlp,
     Measure::kSps},
    {"bench/bench_fig7_intra_zone.cc:60", "A-8 CV SPS", 261.9, "A-8", kCv,
     Measure::kSps},
    {"bench/bench_fig7_intra_zone.cc:61", "A-8 CV speedup", 3.2, "A-8", kCv,
     Measure::kSpeedup, kCvBase},
    {"bench/bench_fig7_intra_zone.cc:62", "A-8 CV granularity", 5.19, "A-8",
     kCv, Measure::kGranularity},
    {"bench/bench_fig7_intra_zone.cc:64", "A-8 NLP SPS", 575.1, "A-8", kNlp,
     Measure::kSps},
    {"bench/bench_fig7_intra_zone.cc:65", "A-8 NLP speedup", 2.75, "A-8",
     kNlp, Measure::kSpeedup, kNlpBase},
    {"bench/bench_fig7_intra_zone.cc:67", "A-8 NLP granularity", 1.15, "A-8",
     kNlp, Measure::kGranularity},
    {"bench/bench_fig8_transatlantic.cc:55", "B-2 CV SPS", 68.4, "B-2", kCv,
     Measure::kSps},
    {"bench/bench_fig8_transatlantic.cc:58", "B-2 NLP SPS", 177.3, "B-2",
     kNlp, Measure::kSps},
    {"bench/bench_fig8_transatlantic.cc:59", "B-2 NLP granularity", 2.21,
     "B-2", kNlp, Measure::kGranularity},
    {"bench/bench_fig8_transatlantic.cc:61", "B-4 CV SPS", 135.8, "B-4", kCv,
     Measure::kSps},
    {"bench/bench_fig8_transatlantic.cc:64", "B-8 CV speedup vs A-1",
     3.2 * 0.98, "B-8", kCv, Measure::kSpeedup, kCvBase},
    {"bench/bench_fig8_transatlantic.cc:67", "B-8 NLP speedup vs A-1", 2.15,
     "B-8", kNlp, Measure::kSpeedup, kNlpBase},
    {"bench/bench_fig9_intercontinental.cc:69", "C-3 CV relative to A-3",
     0.95, "C-3", kCv, Measure::kRelative, 0, "A-3"},
    {"bench/bench_fig9_intercontinental.cc:73", "C-3 NLP relative to A-3",
     0.66, "C-3", kNlp, Measure::kRelative, 0, "A-3"},
    {"bench/bench_fig9_intercontinental.cc:77", "C-8 CV speedup vs A-1",
     3.02, "C-8", kCv, Measure::kSpeedup, kCvBase},
    {"bench/bench_fig9_intercontinental.cc:79", "C-8 CV granularity", 3.33,
     "C-8", kCv, Measure::kGranularity},
    {"bench/bench_fig9_intercontinental.cc:82", "C-8 NLP relative to A-8",
     0.59, "C-8", kNlp, Measure::kRelative, 0, "A-8"},
    {"bench/bench_fig9_intercontinental.cc:84", "C-8 NLP granularity", 0.4,
     "C-8", kNlp, Measure::kGranularity},
    {"bench/bench_fig10_multicloud.cc:48", "D-1 CV granularity", 14.48, "D-1",
     kCv, Measure::kGranularity},
    {"bench/bench_fig10_multicloud.cc:49", "D-3 CV granularity", 12.72, "D-3",
     kCv, Measure::kGranularity},
    {"bench/bench_fig10_multicloud.cc:50", "D-1 NLP granularity", 2.73, "D-1",
     kNlp, Measure::kGranularity},
    {"bench/bench_fig10_multicloud.cc:51", "D-3 NLP granularity", 1.99, "D-3",
     kNlp, Measure::kGranularity},
    {"bench/bench_fig10_multicloud.cc:53", "D-3 CV relative to D-1", 0.985,
     "D-3", kCv, Measure::kRelative, 0, "D-1"},
    {"bench/bench_fig10_multicloud.cc:56", "D-2 NLP relative to D-1", 1.0,
     "D-2", kNlp, Measure::kRelative, 0, "D-1"},
};

/// Names of every site of the standard world: the zone labels of the
/// network's per-zone-pair byte counters.
std::vector<std::string> ZoneNames() {
  const net::Topology world = net::StandardWorld();
  std::vector<std::string> names;
  for (size_t i = 0; i < world.num_sites(); ++i) {
    names.push_back(world.site(static_cast<net::SiteId>(i)).name);
  }
  return names;
}

class PaperSweep : public Workload {
 public:
  explicit PaperSweep(uint64_t seed) {
    spec_.title = "hivebench-paper-sweep";
    for (auto series : {core::ASeries(), core::BSeries(), core::CSeries(),
                        core::DSeries()}) {
      spec_.clusters.insert(spec_.clusters.end(), series.begin(),
                            series.end());
    }
    spec_.models = {kCv, kNlp, ModelId::kResNet50, ModelId::kWhisperSmall};
    spec_.target_batch_sizes = {8192, 32768};
    spec_.seeds = {seed};
    spec_.duration_sec = 2 * kHour;
    cells_ = core::ExpandSweep(spec_);
  }

  double SetupOnce(Report& report) override {
    double setup = 0;
    for (const core::SweepCell& cell : cells_) {
      const int64_t start = NowNs();
      auto world = core::BuildExperimentWorld(cell.cluster.cluster,
                                              cell.config);
      setup += (NowNs() - start) * 1e-9;
      report.Check(world.ok(), cell.name + ": build failed");
    }
    return setup;
  }

  PassStats RunPass(Report& report, Tracer* tracer) override {
    return Pass(report, tracer, nullptr);
  }

  Outputs CountPass(Report& report,
                    telemetry::MetricsRegistry* registry) override {
    return Pass(report, nullptr, registry).outputs;
  }

  void ReportExtras(Report& report,
                    const std::vector<PassStats>& passes) override {
    std::vector<double> completions, analyze;
    for (const PassStats& p : passes) {
      completions.push_back(p.flow_completions / p.run_sec);
      analyze.push_back(p.trace_mb / p.analyze_sec);
    }
    report.Set("flow_completions_per_s", Median(completions), "1/s");
    report.Set("analyze_mb_per_s", Median(analyze), "MB/s");
    report.Set("paper_err_pct", paper_err_pct_, "%");

    std::printf("\nPaper anchors (TBS 32768 cells; simulated values are "
                "what bench_fig7-10 print for the same cells at seed 1)\n");
    std::printf("  %-28s %10s %12s %8s  %s\n", "anchor", "paper",
                "simulated", "err", "source");
    for (size_t i = 0; i < std::size(kAnchors); ++i) {
      const Anchor& a = kAnchors[i];
      std::printf("  %-28s %10.4g %12.6g %7.1f%%  %s\n", a.label, a.paper,
                  anchor_values_[i],
                  100 * std::abs(anchor_values_[i] - a.paper) / a.paper,
                  a.source);
    }
  }

  void ReportLayers(Report& report, const Tracer& tracer,
                    const std::vector<PassStats>& traced) override {
    double cells = 0, trace_mb = 0;
    for (const PassStats& p : traced) {
      cells += p.cells;
      trace_mb += p.trace_mb;
    }
    const Tracer::Stats sweep = tracer.StatsOf(Tracer::kRunSweep);
    const Tracer::Stats analyze = tracer.StatsOf(Tracer::kAnalyze);
    const Tracer::Stats attach = tracer.StatsOf(Tracer::kAttachMetrics);
    report.Set("core.run_sweep.ns_per_cell",
               static_cast<double>(sweep.self_ns) / cells, "ns");
    report.Set("telemetry.trace_mb",
               trace_mb / static_cast<double>(traced.size()), "MB");
    report.Set("telemetry.analyze.self_ns_per_mb",
               static_cast<double>(analyze.self_ns + attach.self_ns) /
                   trace_mb,
               "ns");
  }

 private:
  PassStats Pass(Report& report, Tracer* tracer,
                 telemetry::MetricsRegistry* registry) {
    PassStats pass;
    core::SweepOptions options;
    options.threads = kSweepThreads;
    options.per_run_telemetry = true;
    const int64_t t0 = NowNs();
    Result<core::SweepRunSummary> summary = [&] {
      ScopedSpan span(tracer, Tracer::kRunSweep);
      return core::RunSweep(spec_, options);
    }();
    const int64_t t1 = NowNs();
    if (!report.Check(summary.ok(), "paper_sweep: RunSweep failed")) {
      return pass;
    }

    std::vector<const core::SweepCellOutcome*> by_index(summary->cells.size());
    for (size_t i = 0; i < summary->cells.size(); ++i) {
      const core::SweepCell& cell = summary->cells[i];
      const core::SweepCellOutcome& outcome = summary->outcomes[i];
      if (!report.Check(outcome.ok, cell.name + ": " + outcome.error)) {
        continue;
      }
      by_index[i] = &outcome;
      CheckCell(cell, outcome, report, &pass);
      if (registry != nullptr) registry->Merge(outcome.metrics);
    }

    const int64_t t2 = NowNs();
    for (size_t i = 0; i < summary->cells.size(); ++i) {
      if (by_index[i] == nullptr) continue;
      Analyze(summary->cells[i], *by_index[i], report, tracer, &pass);
    }
    const int64_t t3 = NowNs();

    RecordAnchors(*summary, report, &pass);
    pass.run_sec = (t1 - t0) * 1e-9;
    pass.analyze_sec = (t3 - t2) * 1e-9;
    pass.wall_sec = (t3 - t0) * 1e-9;
    return pass;
  }

  void CheckCell(const core::SweepCell& cell,
                 const core::SweepCellOutcome& outcome, Report& report,
                 PassStats* pass) {
    const telemetry::MetricsRegistry& m = outcome.metrics;
    const core::ExperimentResult& r = outcome.result;
    report.Check(r.train.epochs > 0 && r.train.throughput_sps > 0,
                 cell.name + ": trained no epochs");
    // Bytes conservation through the program's own meters: the
    // zone-pair byte counters must add up to the delivered total.
    const double delivered = m.CounterValue("net.bytes_delivered");
    double by_zone = 0;
    for (const std::string& src : zones_) {
      for (const std::string& dst : zones_) {
        by_zone += m.CounterValue(telemetry::LabeledName(
            "net.bytes_delivered", {{"src_zone", src}, {"dst_zone", dst}}));
      }
    }
    report.Check(std::abs(delivered - by_zone) <= 1e-9 * delivered,
                 cell.name + ": zone byte counters do not add up");
    const std::string& key = cell.name;
    pass->outputs.Real(key + "/sps", r.train.throughput_sps);
    pass->outputs.Real(key + "/granularity", r.train.granularity);
    pass->outputs.Real(key + "/bytes_delivered", delivered);
    pass->outputs.Int(key + "/epochs", r.train.epochs);
    pass->outputs.Int(key + "/events",
                      static_cast<int64_t>(m.CounterValue("sim.events_fired")));
    pass->outputs.Int(key + "/trace_bytes",
                      static_cast<int64_t>(outcome.trace_json.size()));
    pass->events += m.CounterValue("sim.events_fired");
    pass->flow_completions += m.CounterValue("net.flows_completed");
    pass->sim_hours += cell.config.duration_sec / kHour;
    pass->trace_mb += static_cast<double>(outcome.trace_json.size()) / 1e6;
    pass->cells += 1;
  }

  void Analyze(const core::SweepCell& cell,
               const core::SweepCellOutcome& outcome, Report& report,
               Tracer* tracer, PassStats* pass) {
    Result<telemetry::AnalysisReport> analysis = [&] {
      ScopedSpan span(tracer, Tracer::kAnalyze);
      return telemetry::AnalyzeChromeJson(outcome.trace_json);
    }();
    if (!report.Check(analysis.ok(), cell.name + ": analyzer failed")) {
      return;
    }
    {
      ScopedSpan span(tracer, Tracer::kAttachMetrics);
      telemetry::AttachMetrics(&*analysis, outcome.metrics);
    }
    report.Check(!analysis->reconciliation.empty(),
                 cell.name + ": no reconciliation rows");
    for (const telemetry::ReconciliationRow& row : analysis->reconciliation) {
      report.Check(std::abs(row.delta_sec) <= 1e-9,
                   cell.name + ": analyzer reconciliation off for " +
                       row.name);
    }
    pass->outputs.Real(cell.name + "/critical_sec",
                       analysis->totals.critical_sec());
    pass->outputs.Int(cell.name + "/rounds",
                      static_cast<int64_t>(analysis->rounds.size()));
  }

  void RecordAnchors(const core::SweepRunSummary& summary, Report& report,
                     PassStats* pass) {
    auto find = [&](const char* fleet, ModelId model)
        -> const core::ExperimentResult* {
      for (size_t i = 0; i < summary.cells.size(); ++i) {
        const core::SweepCell& cell = summary.cells[i];
        if (cell.cluster.name == fleet && cell.config.model == model &&
            cell.config.target_batch_size == 32768 &&
            summary.outcomes[i].ok) {
          return &summary.outcomes[i].result;
        }
      }
      return nullptr;
    };
    std::vector<double> values, errors;
    for (const Anchor& a : kAnchors) {
      const core::ExperimentResult* cell = find(a.fleet, a.model);
      const core::ExperimentResult* ref =
          a.ref_fleet != nullptr ? find(a.ref_fleet, a.model) : cell;
      double value = 0;
      if (cell != nullptr && ref != nullptr) {
        const double sps = cell->train.throughput_sps;
        switch (a.measure) {
          case Measure::kSps: value = sps; break;
          case Measure::kGranularity: value = cell->train.granularity; break;
          case Measure::kSpeedup: value = sps / a.base; break;
          case Measure::kRelative:
            value = sps / ref->train.throughput_sps;
            break;
        }
      }
      report.Check(std::isfinite(value) && value > 0,
                   std::string("paper_sweep: no value for anchor ") +
                       a.label);
      pass->outputs.Real(std::string("anchor/") + a.label, value);
      values.push_back(value);
      errors.push_back(100 * std::abs(value - a.paper) / a.paper);
    }
    const double err = Median(errors);
    pass->outputs.Real("paper_err_pct", err);
    anchor_values_ = std::move(values);
    paper_err_pct_ = err;
  }

  core::SweepSpec spec_;
  std::vector<core::SweepCell> cells_;
  const std::vector<std::string> zones_ = ZoneNames();
  std::vector<double> anchor_values_;
  double paper_err_pct_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePaperSweep(uint64_t seed) {
  return std::make_unique<PaperSweep>(seed);
}

}  // namespace hivebench

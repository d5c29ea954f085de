#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/json.h"

namespace hivebench {

using hivesim::JsonWriter;
using hivesim::telemetry::MetricsRegistry;

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    // Keep the first few descriptions; the count stays exact.
    if (failures_.size() < 20) failures_.push_back(what);
  }
  return ok;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, bool measured) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric = {name, value, unit, measured};
      return;
    }
  }
  metrics_.push_back({name, value, unit, measured});
}

std::string Report::ToJson(const std::string& workload, uint64_t seed,
                           bool trace) const {
  JsonWriter json;
  json.BeginObject();
  json.Key("workload").String(workload);
  json.Key("seed").Int(static_cast<int64_t>(seed));
  json.Key("trace").Bool(trace);
  json.Key("attempted").Int(static_cast<int64_t>(attempted_));
  json.Key("failed").Int(static_cast<int64_t>(failed_));
  json.Key("failures").BeginArray();
  for (const std::string& failure : failures_) json.String(failure);
  json.EndArray();
  json.Key("metrics").BeginObject();
  for (const Metric& metric : metrics_) {
    json.Key(metric.name).BeginObject();
    json.Key("value").Number(metric.value);
    json.Key("unit").String(metric.unit);
    json.Key("measured").Bool(metric.measured);
    json.EndObject();
  }
  json.EndObject();
  json.Key("outputs").BeginObject();
  json.Key("int").BeginObject();
  for (const auto& [name, value] : outputs.ints()) json.Key(name).Int(value);
  json.EndObject();
  json.Key("real").BeginObject();
  for (const auto& [name, value] : outputs.reals()) {
    json.Key(name).Number(value);
  }
  json.EndObject();
  json.EndObject();
  json.EndObject();
  return json.ToString();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

// Set-up is repeated at least this often and for at least this long.
constexpr int kMinSetupReps = 7;
constexpr double kMinSetupSec = 0.5;

/// The gated end-to-end metrics (BENCHMARK.json "end_to_end") other than
/// setup_s, which comes from the set-up repetitions.
struct EndToEnd {
  double events_per_s = 0;
  double sim_hours_per_s = 0;
  double cells_per_s = 0;
  double peak_rss_mb = 0;
};

template <typename Fn>
double MedianOver(const std::vector<PassStats>& passes, Fn&& fn) {
  std::vector<double> values;
  for (const PassStats& pass : passes) values.push_back(fn(pass));
  return Median(std::move(values));
}

EndToEnd Summarize(const std::vector<PassStats>& passes,
                   double peak_rss_mb) {
  EndToEnd e2e;
  e2e.events_per_s = MedianOver(
      passes, [](const PassStats& p) { return p.events / p.run_sec; });
  e2e.sim_hours_per_s = MedianOver(
      passes, [](const PassStats& p) { return p.sim_hours / p.run_sec; });
  e2e.cells_per_s = MedianOver(
      passes, [](const PassStats& p) { return p.cells / p.wall_sec; });
  e2e.peak_rss_mb = peak_rss_mb;
  return e2e;
}

void CheckSameOutputs(const std::vector<PassStats>& passes,
                      const Outputs& expected, Report& report,
                      const char* phase) {
  for (size_t i = 0; i < passes.size(); ++i) {
    report.Check(passes[i].outputs == expected,
                 std::string(phase) + " pass " + std::to_string(i) +
                     " is not bit-identical to the first pass");
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer values read from the program's own MetricsRegistry during
/// the counting pass (counts are per pass).
void RegistryLayers(Report& report, const MetricsRegistry& m) {
  auto c = [&m](const char* name) { return m.CounterValue(name); };
  auto ratio = [&report](const char* name, double num, double den) {
    report.Set(name, Ratio(num, den), "ratio", den > 0);
  };
  report.Set("sim.events_fired", c("sim.events_fired"), "count");
  ratio("sim.cancel_frac", c("sim.events_cancelled"),
        c("sim.events_scheduled"));

  report.Set("net.flows_started", c("net.flows_started"), "count");
  report.Set("net.flows_completed", c("net.flows_completed"), "count");
  ratio("net.cancel_frac", c("net.flows_cancelled"), c("net.flows_started"));
  report.Set("net.messages", c("net.messages"), "count");

  report.Set("dht.lookups", c("dht.lookups"), "count");
  const auto hops = m.HistogramP50("dht.lookup_hops");
  report.Set("dht.lookup_hops.p50", hops.ok() ? *hops : 0, "hops",
             hops.ok());
  ratio("dht.miss_frac", c("dht.lookup_misses"), c("dht.lookups"));
  report.Set("dht.rpc_timeouts", c("dht.rpc_timeouts"), "count");

  report.Set("collective.rounds", c("collective.rounds"), "count");
  report.Set("collective.transfers_per_round",
             Ratio(c("collective.transfers"), c("collective.rounds")),
             "count", c("collective.rounds") > 0);
  ratio("collective.abort_frac", c("collective.aborts"),
        c("collective.rounds") + c("collective.aborts"));

  report.Set("trainer.epochs", c("trainer.epochs"), "count");
  report.Set("trainer.round_retries", c("trainer.round_retries"), "count");
  report.Set("trainer.rounds_degraded", c("trainer.rounds_degraded"),
             "count");
  ratio("mm.timeout_frac", c("mm.timeouts"), c("mm.rounds"));
  ratio("trainer.comm_share", c("trainer.comm_sec"),
        c("trainer.calc_sec") + c("trainer.comm_sec"));
  report.Set("chaos.events", c("chaos.events"), "count");
}

/// Every per-layer metric BENCHMARK.json lists, with its unit. Values a
/// workload does not exercise stay unmeasured (written as 0).
const std::vector<std::pair<const char*, const char*>>& LayerCatalog() {
  static const auto& catalog =
      *new std::vector<std::pair<const char*, const char*>>{
          {"sim.events_fired", "count"},
          {"sim.cancel_frac", "ratio"},
          {"sim.run.self_ns_per_event", "ns"},
          {"sim.self_share", "ratio"},
          {"net.start_flow.calls", "count"},
          {"net.start_flow.self_ns_p50", "ns"},
          {"net.start_flow.self_ns_p99", "ns"},
          {"net.cancel_flow.calls", "count"},
          {"net.cancel_flow.self_ns_p50", "ns"},
          {"net.live_flows_mean", "count"},
          {"net.self_share", "ratio"},
          {"net.flows_started", "count"},
          {"net.flows_completed", "count"},
          {"net.cancel_frac", "ratio"},
          {"net.messages", "count"},
          {"dht.lookups", "count"},
          {"dht.lookup_hops.p50", "hops"},
          {"dht.miss_frac", "ratio"},
          {"dht.rpc_timeouts", "count"},
          {"collective.rounds", "count"},
          {"collective.transfers_per_round", "count"},
          {"collective.abort_frac", "ratio"},
          {"trainer.epochs", "count"},
          {"trainer.round_retries", "count"},
          {"trainer.rounds_degraded", "count"},
          {"mm.timeout_frac", "ratio"},
          {"trainer.comm_share", "ratio"},
          {"core.build_world.self_ns", "ns"},
          {"scenario.compile.self_ns", "ns"},
          {"faults.arm.self_ns", "ns"},
          {"chaos.events", "count"},
          {"core.complete_experiment.ns_per_sim_hour", "ns"},
          {"core.run_sweep.ns_per_cell", "ns"},
          {"telemetry.trace_mb", "MB"},
          {"telemetry.analyze.self_ns_per_mb", "ns"},
          {"overhead.setup_s_pct", "%"},
          {"overhead.events_per_s_pct", "%"},
          {"overhead.sim_hours_per_s_pct", "%"},
          {"overhead.cells_per_s_pct", "%"},
          {"overhead.peak_rss_mb_pct", "%"},
      };
  return catalog;
}

void PrintMetric(const Report::Metric& metric) {
  if (metric.measured) {
    std::printf("  %-42s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  } else {
    std::printf("  %-42s %16s %s\n", metric.name.c_str(), "-",
                metric.unit.c_str());
  }
}

void PrintSpanTable(const Tracer& tracer, size_t passes) {
  const double total = static_cast<double>(tracer.TotalSelfNs());
  std::printf(
      "\nTraced spans (per pass; self = span minus child spans; %zu "
      "passes)\n",
      passes);
  std::printf("  %-26s %12s %12s %8s %12s %12s\n", "span", "calls",
              "self_ms", "share", "self_p50_ns", "self_p99_ns");
  for (int name = 0; name < Tracer::kNumNames; ++name) {
    const Tracer::Stats stats = tracer.StatsOf(name);
    if (stats.calls == 0) continue;
    std::printf("  %-26s %12.1f %12.3f %7.1f%% %12.0f %12.0f\n",
                Tracer::NameOf(name),
                static_cast<double>(stats.calls) / passes,
                static_cast<double>(stats.self_ns) * 1e-6 / passes,
                total > 0 ? 100.0 * stats.self_ns / total : 0.0,
                stats.self_p50_ns, stats.self_p99_ns);
  }
}

}  // namespace

void RunBenchmark(Workload& workload, const Options& options,
                  Report& report) {
  // Set-up is repeated and its median reported, so work moved out of the
  // timed run into set-up still shows.
  std::vector<double> setups;
  const int64_t setup_start = NowNs();
  while (setups.size() < kMinSetupReps ||
         (NowNs() - setup_start) * 1e-9 < kMinSetupSec) {
    setups.push_back(workload.SetupOnce(report));
  }
  const double setup_s = Median(setups);

  // The first pass warms caches and the allocator and is not timed; its
  // outputs are what every later pass must reproduce bit for bit.
  report.outputs = workload.RunPass(report, nullptr).outputs;
  const double warm_rss_mb = PeakRssMb();

  // Timed passes until `seconds` are used: at least one, and another only
  // while one of the mean length so far still fits. A traced run
  // alternates untraced and traced passes, so drift in machine speed
  // falls on both sides of the overhead comparison alike.
  Tracer tracer;
  std::vector<PassStats> passes, traced;
  const int64_t start = NowNs();
  double elapsed = 0;
  do {
    passes.push_back(workload.RunPass(report, nullptr));
    if (options.trace) traced.push_back(workload.RunPass(report, &tracer));
    elapsed = static_cast<double>(NowNs() - start) * 1e-9;
  } while (elapsed + elapsed / passes.size() <= options.seconds);
  CheckSameOutputs(passes, report.outputs, report, "untraced");
  // Peak RSS only grows, so a traced run takes its untraced value from
  // the warm-up pass.
  const EndToEnd e2e =
      Summarize(passes, options.trace ? warm_rss_mb : PeakRssMb());

  std::printf("hivebench %s: %zu set-ups, 1 warm-up pass, %zu timed "
              "passes%s\n",
              options.workload.c_str(), setups.size(), passes.size(),
              options.trace ? ", each followed by a traced one" : "");
  std::printf("\nEnd-to-end (median over passes; host time unless sim_*)\n");
  report.Set("setup_s", setup_s, "s");
  report.Set("events_per_s", e2e.events_per_s, "1/s");
  report.Set("sim_hours_per_s", e2e.sim_hours_per_s, "h/s");
  report.Set("cells_per_s", e2e.cells_per_s, "1/s");
  report.Set("peak_rss_mb", e2e.peak_rss_mb, "MB");
  for (const Report::Metric& metric : report.metrics()) PrintMetric(metric);
  std::vector<double> rates;
  for (const PassStats& p : passes) rates.push_back(p.events / p.run_sec);
  std::printf("  (events_per_s over passes: min %.6g, quartiles %.6g %.6g, "
              "max %.6g)\n",
              Quantile(rates, 0), Quantile(rates, 0.25), Quantile(rates, 0.75),
              Quantile(rates, 1));
  const size_t gated = report.metrics().size();
  std::printf("\nWorkload-specific end-to-end (reported, not gated)\n");
  workload.ReportExtras(report, passes);
  for (size_t i = gated; i < report.metrics().size(); ++i) {
    PrintMetric(report.metrics()[i]);
  }

  if (!options.trace) return;

  CheckSameOutputs(traced, report.outputs, report, "traced");
  const EndToEnd traced_e2e = Summarize(traced, PeakRssMb());

  MetricsRegistry registry;
  const Outputs counted = workload.CountPass(report, &registry);
  report.Check(counted == report.outputs,
               "outputs with telemetry on differ from telemetry off");

  RegistryLayers(report, registry);
  workload.ReportLayers(report, tracer, traced);

  // Tracing overhead: the traced-minus-untraced difference as a share of
  // the untraced value, signed so that a positive value is a cost.
  auto cost_pct = [](double traced_value, double untraced_value,
                     bool higher_is_better) {
    const double diff = traced_value - untraced_value;
    return 100.0 * (higher_is_better ? -diff : diff) / untraced_value;
  };
  // paper_sweep sets its worlds up inside RunSweep, so its passes carry
  // no set-up time of their own.
  auto pass_setup = [](const PassStats& p) { return p.setup_sec; };
  const double untraced_setup = MedianOver(passes, pass_setup);
  report.Set("overhead.setup_s_pct",
             untraced_setup > 0
                 ? cost_pct(MedianOver(traced, pass_setup), untraced_setup,
                            false)
                 : 0,
             "%", untraced_setup > 0);
  report.Set("overhead.events_per_s_pct",
             cost_pct(traced_e2e.events_per_s, e2e.events_per_s, true), "%");
  report.Set("overhead.sim_hours_per_s_pct",
             cost_pct(traced_e2e.sim_hours_per_s, e2e.sim_hours_per_s, true),
             "%");
  report.Set("overhead.cells_per_s_pct",
             cost_pct(traced_e2e.cells_per_s, e2e.cells_per_s, true), "%");
  report.Set("overhead.peak_rss_mb_pct",
             cost_pct(traced_e2e.peak_rss_mb, e2e.peak_rss_mb, false), "%");

  for (const auto& [name, unit] : LayerCatalog()) {
    bool present = false;
    for (const Report::Metric& metric : report.metrics()) {
      present = present || metric.name == name;
    }
    if (!present) report.Set(name, 0, unit, /*measured=*/false);
  }

  PrintSpanTable(tracer, traced.size());
  std::printf("\nPer-layer (counts per pass from the MetricsRegistry; "
              "\"-\" = layer not exercised)\n");
  for (const auto& [name, unit] : LayerCatalog()) {
    for (const Report::Metric& metric : report.metrics()) {
      if (metric.name == name) PrintMetric(metric);
    }
  }
  if (!options.spans_out.empty()) {
    report.Check(tracer.WriteTsv(options.spans_out),
                 "cannot write spans to " + options.spans_out);
  }
}

}  // namespace hivebench

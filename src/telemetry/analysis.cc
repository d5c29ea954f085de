#include "telemetry/analysis.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "common/table_writer.h"

namespace hivesim::telemetry {

namespace {

// Fixed bucket ladder (1-2-5 decades, seconds) for the straggler
// histograms; percentiles interpolate inside these buckets.
const std::vector<double>& StragglerBounds() {
  static const std::vector<double> bounds = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.2,  0.5, 1,
      2,     5,     10,    20,   50,   100,  200,  500,  1000};
  return bounds;
}

// Per-phase accumulation in trace microseconds; converted to seconds
// exactly once at the end.
struct PhaseMicros {
  double calc = 0;
  double matchmake_wait = 0;
  double matchmake = 0;
  double flow = 0;
  double overhead = 0;

  void Add(Phase phase, double dur_us) {
    switch (phase) {
      case Phase::kCalc: calc += dur_us; break;
      case Phase::kMatchmakeWait: matchmake_wait += dur_us; break;
      case Phase::kMatchmake: matchmake += dur_us; break;
      case Phase::kFlow: flow += dur_us; break;
      case Phase::kOverhead: overhead += dur_us; break;
    }
  }

  PhaseTotals ToSeconds() const {
    PhaseTotals totals;
    totals.calc_sec = calc / 1e6;
    totals.matchmake_wait_sec = matchmake_wait / 1e6;
    totals.matchmake_sec = matchmake / 1e6;
    totals.flow_sec = flow / 1e6;
    totals.overhead_sec = overhead / 1e6;
    return totals;
  }
};

StragglerPercentiles Percentiles(const MetricsRegistry& metrics,
                                 std::string_view name) {
  StragglerPercentiles p;
  p.count = metrics.HistogramCount(name);
  if (p.count == 0) return p;
  p.p50 = metrics.HistogramP50(name).value_or(0);
  p.p95 = metrics.HistogramP95(name).value_or(0);
  p.p99 = metrics.HistogramP99(name).value_or(0);
  return p;
}

void WritePercentiles(JsonWriter& json, const StragglerPercentiles& p) {
  json.BeginObject();
  json.Key("count").Int(static_cast<int64_t>(p.count));
  json.Key("p50").Number(p.p50);
  json.Key("p95").Number(p.p95);
  json.Key("p99").Number(p.p99);
  json.EndObject();
}

std::string FormatSeconds(double sec) { return StrFormat("%.3f", sec); }

std::string FormatShare(double numerator, double denominator) {
  if (denominator <= 0) return "-";
  return StrFormat("%.1f%%", 100.0 * numerator / denominator);
}

}  // namespace

Result<AnalysisReport> AnalyzeDataset(const TraceDataset& dataset,
                                      const AnalysisOptions& options) {
  AnalysisReport report;
  report.options = options;
  HIVESIM_ASSIGN_OR_RETURN(report.model, BuildRoundModel(dataset));

  // Links are model.links indices, ordered by name where the binding
  // link's tie-break and the report need it.
  const RoundModel& model = report.model;
  const size_t num_links = model.links.size();
  const auto by_name = [&model](int a, int b) {
    return model.links[static_cast<size_t>(a)] <
           model.links[static_cast<size_t>(b)];
  };

  PhaseMicros total_us;
  std::vector<LinkStat> links(num_links);
  std::map<int, PeerStat> peers;
  std::map<int, int> peer_zone;  // Peer -> model.zones index.
  MetricsRegistry straggler_metrics;
  straggler_metrics.DefineHistogram("round_comm_sec", StragglerBounds());
  straggler_metrics.DefineHistogram("critical_flow_sec", StragglerBounds());

  std::vector<double> round_link_us(num_links, 0.0);
  std::vector<int> round_links;  // Links with critical time this round.
  for (const Round& round : model.rounds) {
    PhaseMicros round_us;
    int last_flow = -1;
    for (const Segment& seg : round.critical) {
      round_us.Add(seg.phase, seg.dur_us());
      if (seg.phase == Phase::kFlow) {
        const FlowRef& flow = round.flows[static_cast<size_t>(seg.flow)];
        const size_t link = static_cast<size_t>(flow.link);
        if (std::find(round_links.begin(), round_links.end(), flow.link) ==
            round_links.end()) {
          round_links.push_back(flow.link);
        }
        round_link_us[link] += seg.dur_us();
        links[link].critical_sec += seg.dur_us();  // us for now.
        peers[flow.src].critical_sec += seg.dur_us();
        last_flow = seg.flow;
        straggler_metrics.Observe("critical_flow_sec",
                                  seg.dur_us() / 1e6);
      }
    }
    for (const FlowRef& flow : round.flows) {
      const size_t link = static_cast<size_t>(flow.link);
      links[link].bytes += flow.bytes;
      ++links[link].flows;
      if (flow.src_zone >= 0) peer_zone.emplace(flow.src, flow.src_zone);
      if (flow.dst_zone >= 0) peer_zone.emplace(flow.dst, flow.dst_zone);
    }

    RoundSummary summary;
    summary.run = round.run;
    summary.epoch = round.epoch;
    summary.start_sec = round.start_us / 1e6;
    summary.end_sec = round.end_us / 1e6;
    summary.phases = round_us.ToSeconds();
    // In name order, the strict > keeps the lexicographically smallest
    // link on ties.
    std::sort(round_links.begin(), round_links.end(), by_name);
    int binding = -1;
    for (const int link : round_links) {
      if (binding < 0 || round_link_us[static_cast<size_t>(link)] >
                             round_link_us[static_cast<size_t>(binding)]) {
        binding = link;
      }
    }
    if (binding >= 0) {
      summary.binding_link = model.links[static_cast<size_t>(binding)];
    }
    for (const int link : round_links) {
      round_link_us[static_cast<size_t>(link)] = 0;
    }
    round_links.clear();
    if (last_flow >= 0) {
      summary.straggler_peer =
          round.flows[static_cast<size_t>(last_flow)].src;
      ++peers[summary.straggler_peer].straggler_rounds;
    }
    summary.retries = round.retries;
    summary.degraded = round.degraded;
    summary.chaos = round.chaos;
    straggler_metrics.Observe(
        "round_comm_sec",
        (round_us.matchmake_wait + round_us.matchmake + round_us.flow +
         round_us.overhead) /
            1e6);
    report.rounds.push_back(std::move(summary));

    total_us.calc += round_us.calc;
    total_us.matchmake_wait += round_us.matchmake_wait;
    total_us.matchmake += round_us.matchmake;
    total_us.flow += round_us.flow;
    total_us.overhead += round_us.overhead;
  }
  report.totals = total_us.ToSeconds();

  // Per-peer timelines (peer/<n> lanes) for the straggler section; each
  // lane and each name is read once.
  std::vector<std::pair<bool, int>> lane_peer;
  lane_peer.reserve(dataset.lanes.size());
  for (const std::string& lane : dataset.lanes) {
    int peer = -1;
    const bool is_peer = std::sscanf(lane.c_str(), "peer/%d", &peer) == 1;
    lane_peer.emplace_back(is_peer, peer);
  }
  enum class Timeline { kOther, kAccumulate, kAverage, kSync };
  std::vector<Timeline> timeline;
  timeline.reserve(dataset.names.size());
  for (const std::string& name : dataset.names) {
    timeline.push_back(name == "accumulate" ? Timeline::kAccumulate
                       : name == "average"  ? Timeline::kAverage
                       : name == "sync"     ? Timeline::kSync
                                            : Timeline::kOther);
  }
  for (const CanonEvent& e : dataset.events) {
    const auto [is_peer, peer] = lane_peer[static_cast<size_t>(e.lane)];
    if (e.instant || !is_peer) continue;
    PeerStat& stat = peers[peer];
    switch (timeline[static_cast<size_t>(e.name)]) {  // us for now.
      case Timeline::kAccumulate: stat.accumulate_sec += e.dur_us; break;
      case Timeline::kAverage: stat.average_sec += e.dur_us; break;
      case Timeline::kSync: stat.sync_sec += e.dur_us; break;
      case Timeline::kOther: break;
    }
  }

  // A link is reported once a round-assigned flow used it.
  std::vector<int> used_links;
  for (size_t i = 0; i < num_links; ++i) {
    if (links[i].flows > 0) used_links.push_back(static_cast<int>(i));
  }
  std::sort(used_links.begin(), used_links.end(), by_name);
  for (const int link : used_links) {
    LinkStat stat = links[static_cast<size_t>(link)];
    stat.link = model.links[static_cast<size_t>(link)];
    stat.critical_sec /= 1e6;
    report.links.push_back(std::move(stat));
  }
  std::sort(report.links.begin(), report.links.end(),
            [](const LinkStat& a, const LinkStat& b) {
              if (a.critical_sec != b.critical_sec) {
                return a.critical_sec > b.critical_sec;
              }
              return a.link < b.link;
            });

  for (auto& [peer, stat] : peers) {
    stat.peer = peer;
    const auto zone = peer_zone.find(peer);
    stat.zone = zone != peer_zone.end()
                    ? model.zones[static_cast<size_t>(zone->second)]
                    : "?";
    stat.critical_sec /= 1e6;
    stat.accumulate_sec /= 1e6;
    stat.average_sec /= 1e6;
    stat.sync_sec /= 1e6;
    report.peers.push_back(stat);
  }

  report.round_comm = Percentiles(straggler_metrics, "round_comm_sec");
  report.critical_flow =
      Percentiles(straggler_metrics, "critical_flow_sec");

  const double critical_sec = report.totals.critical_sec();
  const double factor = options.what_if_factor;
  const double removable = factor > 1 ? 1.0 - 1.0 / factor : 0.0;
  for (const LinkStat& link : report.links) {
    if (static_cast<int>(report.headroom.size()) >= options.top_k) break;
    if (!(link.critical_sec > 0) || !(critical_sec > 0)) break;
    HeadroomEstimate estimate;
    estimate.link = link.link;
    estimate.critical_share = link.critical_sec / critical_sec;
    estimate.speedup_bound =
        1.0 / (1.0 - estimate.critical_share * removable);
    report.headroom.push_back(std::move(estimate));
  }
  return report;
}

Result<AnalysisReport> AnalyzeChromeJson(std::string_view json_text,
                                         const AnalysisOptions& options) {
  TraceDataset dataset;
  HIVESIM_ASSIGN_OR_RETURN(dataset, DatasetFromChromeJson(json_text));
  return AnalyzeDataset(dataset, options);
}

namespace {

void Reconcile(AnalysisReport* report, double calc, double comm,
               double matchmake_wait) {
  report->reconciliation.clear();
  const PhaseTotals& t = report->totals;
  ReconciliationRow row;
  row.name = "trainer.calc_sec";
  row.trace_sec = t.calc_sec;
  row.counter_sec = calc;
  row.delta_sec = row.trace_sec - row.counter_sec;
  report->reconciliation.push_back(row);
  row.name = "trainer.comm_sec";
  row.trace_sec = t.comm_sec();
  row.counter_sec = comm;
  row.delta_sec = row.trace_sec - row.counter_sec;
  report->reconciliation.push_back(row);
  row.name = "trainer.matchmake_wait_sec";
  row.trace_sec = t.matchmake_wait_sec + t.matchmake_sec;
  row.counter_sec = matchmake_wait;
  row.delta_sec = row.trace_sec - row.counter_sec;
  report->reconciliation.push_back(row);
}

}  // namespace

void AttachMetrics(AnalysisReport* report, const MetricsRegistry& metrics) {
  Reconcile(report, metrics.CounterValue("trainer.calc_sec"),
            metrics.CounterValue("trainer.comm_sec"),
            metrics.CounterValue("trainer.matchmake_wait_sec"));
}

Status AttachMetricsJson(AnalysisReport* report, const JsonValue& doc) {
  const JsonValue* counters = doc.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return Status::InvalidArgument(
        "not a metrics snapshot: missing counters object");
  }
  const auto counter = [counters](const char* name) {
    const JsonValue* v = counters->Find(name);
    return v != nullptr ? v->NumberOr(0) : 0.0;
  };
  Reconcile(report, counter("trainer.calc_sec"),
            counter("trainer.comm_sec"),
            counter("trainer.matchmake_wait_sec"));
  return Status::OK();
}

std::string AnalysisReport::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String("hivesim-analysis/1");
  json.Key("headroom").BeginArray();
  for (const HeadroomEstimate& h : headroom) {
    json.BeginObject();
    json.Key("critical_share").Number(h.critical_share);
    json.Key("link").String(h.link);
    json.Key("speedup_bound").Number(h.speedup_bound);
    json.Key("what_if_factor").Number(options.what_if_factor);
    json.EndObject();
  }
  json.EndArray();
  json.Key("links").BeginArray();
  for (const LinkStat& link : links) {
    json.BeginObject();
    json.Key("bytes").Number(link.bytes);
    json.Key("critical_sec").Number(link.critical_sec);
    json.Key("flows").Int(static_cast<int64_t>(link.flows));
    json.Key("link").String(link.link);
    json.EndObject();
  }
  json.EndArray();
  json.Key("peers").BeginArray();
  for (const PeerStat& peer : peers) {
    json.BeginObject();
    json.Key("accumulate_sec").Number(peer.accumulate_sec);
    json.Key("average_sec").Number(peer.average_sec);
    json.Key("critical_sec").Number(peer.critical_sec);
    json.Key("peer").Int(peer.peer);
    json.Key("straggler_rounds").Int(
        static_cast<int64_t>(peer.straggler_rounds));
    json.Key("sync_sec").Number(peer.sync_sec);
    json.Key("zone").String(peer.zone);
    json.EndObject();
  }
  json.EndArray();
  if (!reconciliation.empty()) {
    json.Key("reconciliation").BeginArray();
    for (const ReconciliationRow& row : reconciliation) {
      json.BeginObject();
      json.Key("counter_sec").Number(row.counter_sec);
      json.Key("delta_sec").Number(row.delta_sec);
      json.Key("name").String(row.name);
      json.Key("trace_sec").Number(row.trace_sec);
      json.EndObject();
    }
    json.EndArray();
  }
  json.Key("rounds").BeginArray();
  for (const RoundSummary& round : rounds) {
    json.BeginObject();
    json.Key("binding_link").String(round.binding_link);
    json.Key("calc_sec").Number(round.phases.calc_sec);
    json.Key("chaos").BeginArray();
    for (const std::string& name : round.chaos) json.String(name);
    json.EndArray();
    json.Key("degraded").Bool(round.degraded);
    json.Key("end_sec").Number(round.end_sec);
    json.Key("epoch").Int(round.epoch);
    json.Key("flow_sec").Number(round.phases.flow_sec);
    json.Key("matchmake_sec").Number(round.phases.matchmake_sec);
    json.Key("matchmake_wait_sec").Number(round.phases.matchmake_wait_sec);
    json.Key("overhead_sec").Number(round.phases.overhead_sec);
    json.Key("retries").Int(round.retries);
    json.Key("run").Int(round.run);
    json.Key("start_sec").Number(round.start_sec);
    json.Key("straggler_peer").Int(round.straggler_peer);
    json.EndObject();
  }
  json.EndArray();
  json.Key("stragglers").BeginObject();
  json.Key("critical_flow_sec");
  WritePercentiles(json, critical_flow);
  json.Key("round_comm_sec");
  WritePercentiles(json, round_comm);
  json.EndObject();
  json.Key("totals").BeginObject();
  json.Key("calc_sec").Number(totals.calc_sec);
  json.Key("comm_sec").Number(totals.comm_sec());
  json.Key("critical_sec").Number(totals.critical_sec());
  json.Key("flow_sec").Number(totals.flow_sec);
  json.Key("matchmake_sec").Number(totals.matchmake_sec);
  json.Key("matchmake_wait_sec").Number(totals.matchmake_wait_sec);
  json.Key("modeled_sec").Number(model.modeled_us / 1e6);
  json.Key("overhead_sec").Number(totals.overhead_sec);
  json.Key("rounds").Int(static_cast<int64_t>(rounds.size()));
  json.Key("runs").Int(model.num_runs);
  json.Key("unmodeled_sec").Number(model.unmodeled_us / 1e6);
  json.EndObject();
  json.EndObject();
  return json.ToString();
}

void AnalysisReport::PrintTable(std::ostream& os) const {
  const double critical_sec = totals.critical_sec();
  os << "critical-path attribution (hivesim-analysis/1): "
     << rounds.size() << " round(s), " << model.num_runs << " run(s), "
     << FormatSeconds(model.modeled_us / 1e6) << " s modeled, "
     << FormatSeconds(model.unmodeled_us / 1e6) << " s unmodeled\n\n";

  TableWriter phase_table({"Phase", "Critical s", "Share"});
  const auto phase_row = [&](const char* name, double sec) {
    phase_table.AddRow(
        {name, FormatSeconds(sec), FormatShare(sec, critical_sec)});
  };
  phase_row("calc", totals.calc_sec);
  phase_row("flow (WAN)", totals.flow_sec);
  phase_row("comm overhead", totals.overhead_sec);
  phase_row("matchmake", totals.matchmake_sec);
  phase_row("matchmake-wait", totals.matchmake_wait_sec);
  phase_table.AddSeparator();
  phase_row("total", critical_sec);
  phase_table.Print(os);

  if (!links.empty()) {
    os << "\nWAN links by critical-path time\n";
    TableWriter link_table({"Link", "Critical s", "Share", "GB", "Flows"});
    size_t shown = 0;
    for (const LinkStat& link : links) {
      if (shown++ >= 10) break;
      link_table.AddRow({link.link, FormatSeconds(link.critical_sec),
                         FormatShare(link.critical_sec, critical_sec),
                         StrFormat("%.3f", link.bytes / 1e9),
                         StrFormat("%llu",
                                   static_cast<unsigned long long>(
                                       link.flows))});
    }
    link_table.Print(os);
  }

  os << "\nStragglers\n";
  os << StrFormat(
      "  round comm s:     p50 %.3f  p95 %.3f  p99 %.3f  (n=%llu)\n",
      round_comm.p50, round_comm.p95, round_comm.p99,
      static_cast<unsigned long long>(round_comm.count));
  os << StrFormat(
      "  critical flow s:  p50 %.3f  p95 %.3f  p99 %.3f  (n=%llu)\n",
      critical_flow.p50, critical_flow.p95, critical_flow.p99,
      static_cast<unsigned long long>(critical_flow.count));
  if (!peers.empty()) {
    TableWriter peer_table({"Peer", "Zone", "Critical s",
                            "Straggler rounds", "Sync s"});
    // Peers ranked by critical-path time (ties by id) — the senders
    // whose transfers most often bound the round.
    std::vector<const PeerStat*> ranked;
    ranked.reserve(peers.size());
    for (const PeerStat& peer : peers) ranked.push_back(&peer);
    std::sort(ranked.begin(), ranked.end(),
              [](const PeerStat* a, const PeerStat* b) {
                if (a->critical_sec != b->critical_sec) {
                  return a->critical_sec > b->critical_sec;
                }
                return a->peer < b->peer;
              });
    size_t shown = 0;
    for (const PeerStat* peer : ranked) {
      if (shown++ >= 8) break;
      peer_table.AddRow(
          {StrFormat("%d", peer->peer), peer->zone,
           FormatSeconds(peer->critical_sec),
           StrFormat("%llu",
                     static_cast<unsigned long long>(
                         peer->straggler_rounds)),
           FormatSeconds(peer->sync_sec)});
    }
    peer_table.Print(os);
  }

  if (!headroom.empty()) {
    os << StrFormat("\nHeadroom (what-if: link bandwidth x%.1f)\n",
                    options.what_if_factor);
    for (const HeadroomEstimate& h : headroom) {
      os << StrFormat(
          "  %s carries %.1f%% of critical-path time; speeding it "
          "x%.1f bounds overall speedup at %.2fx\n",
          h.link.c_str(), 100.0 * h.critical_share,
          options.what_if_factor, h.speedup_bound);
    }
  }

  if (!reconciliation.empty()) {
    os << "\nReconciliation vs trainer counters\n";
    TableWriter rec_table({"Counter", "Trace s", "Counter s", "Delta s"});
    for (const ReconciliationRow& row : reconciliation) {
      rec_table.AddRow({row.name, StrFormat("%.6f", row.trace_sec),
                        StrFormat("%.6f", row.counter_sec),
                        StrFormat("%+.9f", row.delta_sec)});
    }
    rec_table.Print(os);
  }
}

}  // namespace hivesim::telemetry

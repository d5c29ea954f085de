// fleet_churn: single-thread worlds of ~30k peers over the eight
// StandardWorld sites, driven the way bench/bench_fleet.cc drives
// BM_Fleet: flow churn at one in-flight flow per 8 peers (~90%
// intra-site), cancel storms every 0.5 sim-s, and fleet-wide heartbeat
// cohorts. Unlike BM_Fleet, whose storm stops once the last flow has
// been started (one storm, whose victims have mostly finished already),
// storms here last as long as flows are in flight and only pick flows
// that are. It loads net flow progress, metering and the solver plus the
// simulator's cohort dispatch at the scale where per-event cost grows
// with the number of live flows; hivemind, dht, collective and
// telemetry do no work. A pass is one world.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiles.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace hivebench {
namespace {

using namespace hivesim;

constexpr int kPeers = 30000;
constexpr int kHeartbeatTicks = 4;
constexpr double kCancelPeriodSec = 0.5;
constexpr int kCancelsPerTick = 8;

/// One fleet world. Everything up to the constructor's return is set-up;
/// Run() starts the simulated clock. Callbacks capture `this`, so the
/// world is pinned.
class FleetWorld {
 public:
  FleetWorld(uint64_t seed, Tracer* tracer, Report* report)
      : rng_(seed), tracer_(tracer), report_(report) {
    {
      ScopedSpan span(tracer_, Tracer::kFleetBuild);
      topology_ = net::StandardWorld();
      const size_t num_sites = topology_.num_sites();
      by_site_.resize(num_sites);
      const int per_site = std::max(2, kPeers / static_cast<int>(num_sites));
      nodes_.reserve(static_cast<size_t>(per_site) * num_sites);
      for (net::SiteId site = 0; site < num_sites; ++site) {
        for (int i = 0; i < per_site; ++i) {
          const net::NodeId id =
              topology_.AddNode(site, net::CloudVmNetConfig());
          nodes_.push_back(id);
          by_site_[site].push_back(id);
        }
      }
      network_ = std::make_unique<net::Network>(&sim_, &topology_);
    }
    const int concurrent = std::max(8, static_cast<int>(nodes_.size()) / 8);
    total_flows_ = concurrent * 2;
    flow_ids_.resize(static_cast<size_t>(total_flows_));
    live_pos_.resize(static_cast<size_t>(total_flows_));
    for (int i = 0; i < concurrent; ++i) Launch();
    sim_.Schedule(kCancelPeriodSec, [this] { CancelTick(); });
    // Every peer heartbeats at the same whole-second marks: one
    // same-timestamp cohort of fleet size per tick. The callbacks are
    // trivial, so they stay unwrapped and count as simulator dispatch.
    for (int tick = 1; tick <= kHeartbeatTicks; ++tick) {
      for (size_t p = 0; p < nodes_.size(); ++p) {
        sim_.ScheduleAt(static_cast<double>(tick), [this] { ++heartbeats_; });
      }
    }
  }

  FleetWorld(const FleetWorld&) = delete;
  FleetWorld& operator=(const FleetWorld&) = delete;

  void Run() {
    ScopedSpan span(tracer_, Tracer::kSimRun);
    sim_.Run();
  }

  /// Checks the world's invariants and records its outputs.
  void Finish(Outputs* out) {
    double egress = 0, ingress = 0;
    for (net::NodeId n = 0; n < topology_.num_nodes(); ++n) {
      egress += network_->NodeEgressBytes(n);
      ingress += network_->NodeIngressBytes(n);
    }
    report_->Check(std::abs(egress - ingress) <=
                       1e-9 * std::max(egress, ingress),
                   "fleet_churn: egress bytes != ingress bytes");
    report_->Check(egress > 0, "fleet_churn: no bytes delivered");
    report_->Check(
        started_ok_ == completions_ + cancels_ &&
            network_->active_flows() == 0 && sim_.pending() == 0,
        "fleet_churn: flows started != completed + cancelled");
    report_->Check(heartbeats_ == kHeartbeatTicks * nodes_.size(),
                   "fleet_churn: heartbeat cohort lost events");
    out->Real("egress_bytes", egress);
    out->Real("sim_end_sec", sim_.Now());
    out->Int("flows_started", static_cast<int64_t>(started_ok_));
    out->Int("flows_completed", static_cast<int64_t>(completions_));
    out->Int("flows_cancelled", static_cast<int64_t>(cancels_));
    out->Int("heartbeats", static_cast<int64_t>(heartbeats_));
    out->Int("events_fired", static_cast<int64_t>(sim_.events_fired()));
  }

  double sim_hours() const { return sim_.Now() / kHour; }
  uint64_t events() const { return sim_.events_fired(); }
  uint64_t completions() const { return completions_; }
  double live_flows_mean() const {
    return live_samples_ > 0 ? live_sum_ / live_samples_ : 0;
  }

 private:
  void Launch() {
    if (started_ >= total_flows_) return;
    const int launch = started_++;
    const net::NodeId src = Pick(nodes_);
    net::NodeId dst;
    if (rng_.UniformInt(0, 9) < 9) {
      dst = Pick(by_site_[topology_.SiteOf(src)]);  // Rack-local.
    } else {
      dst = Pick(nodes_);  // Cross-site: shares a WAN path resource.
    }
    if (dst == src) dst = nodes_[(src + 1) % nodes_.size()];
    const double bytes = rng_.Uniform(2 * kMB, 16 * kMB);
    Result<net::FlowId> id = [&] {
      ScopedSpan span(tracer_, Tracer::kStartFlow);
      return network_->StartFlow(src, dst, bytes,
                                 [this, launch] { OnComplete(launch); });
    }();
    if (report_->Check(id.ok(), "fleet_churn: StartFlow failed")) {
      ++started_ok_;
      flow_ids_[static_cast<size_t>(launch)] = *id;
      live_pos_[static_cast<size_t>(launch)] = live_.size();
      live_.push_back(launch);
    }
  }

  void OnComplete(int launch) {
    ScopedSpan span(tracer_, Tracer::kCallback);
    ++completions_;
    Forget(launch);
    Launch();
  }

  /// Drops a finished or cancelled flow from the in-flight set.
  void Forget(int launch) {
    const size_t pos = live_pos_[static_cast<size_t>(launch)];
    live_[pos] = live_.back();
    live_pos_[static_cast<size_t>(live_[pos])] = pos;
    live_.pop_back();
  }

  // Cancel storm: abort a few in-flight flows (spot preemptions) and
  // backfill while the churn still has flows to start. Storms repeat
  // every 0.5 sim-s for as long as flows are in flight.
  void CancelTick() {
    ScopedSpan span(tracer_, Tracer::kCallback);
    live_sum_ += static_cast<double>(network_->active_flows());
    ++live_samples_;
    for (int k = 0; k < kCancelsPerTick && !live_.empty(); ++k) {
      const int victim = live_[static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(live_.size()) - 1))];
      const bool cancelled = [&] {
        ScopedSpan cancel_span(tracer_, Tracer::kCancelFlow);
        return network_->CancelFlow(flow_ids_[static_cast<size_t>(victim)]);
      }();
      if (report_->Check(cancelled, "fleet_churn: in-flight flow did not "
                                    "cancel")) {
        ++cancels_;
        Forget(victim);
        Launch();
      }
    }
    if (!live_.empty() || started_ < total_flows_) {
      sim_.Schedule(kCancelPeriodSec, [this] { CancelTick(); });
    }
  }

  net::NodeId Pick(const std::vector<net::NodeId>& from) {
    return from[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
  }

  sim::Simulator sim_;
  net::Topology topology_;
  std::unique_ptr<net::Network> network_;
  Rng rng_;
  Tracer* tracer_;
  Report* report_;
  std::vector<net::NodeId> nodes_;
  std::vector<std::vector<net::NodeId>> by_site_;
  // Flows by launch number, and the launches currently in flight
  // (`live_pos_` is each launch's index in `live_`).
  std::vector<net::FlowId> flow_ids_;
  std::vector<int> live_;
  std::vector<size_t> live_pos_;
  int total_flows_ = 0;
  int started_ = 0;
  uint64_t started_ok_ = 0;
  uint64_t completions_ = 0;
  uint64_t cancels_ = 0;
  uint64_t heartbeats_ = 0;
  double live_sum_ = 0;
  uint64_t live_samples_ = 0;
};

class FleetChurn : public Workload {
 public:
  explicit FleetChurn(uint64_t seed) : seed_(seed) {}

  double SetupOnce(Report& report) override {
    const int64_t start = NowNs();
    auto world = std::make_unique<FleetWorld>(seed_, nullptr, &report);
    return (NowNs() - start) * 1e-9;  // Before the world is torn down.
  }

  PassStats RunPass(Report& report, Tracer* tracer) override {
    PassStats pass;
    const int64_t t0 = NowNs();
    auto world = std::make_unique<FleetWorld>(seed_, tracer, &report);
    const int64_t t1 = NowNs();
    world->Run();
    const int64_t t2 = NowNs();
    world->Finish(&pass.outputs);
    pass.sim_hours = world->sim_hours();
    pass.events = static_cast<double>(world->events());
    pass.flow_completions = static_cast<double>(world->completions());
    live_flows_mean_ = world->live_flows_mean();
    world.reset();
    pass.setup_sec = (t1 - t0) * 1e-9;
    pass.run_sec = (t2 - t1) * 1e-9;
    pass.wall_sec = (NowNs() - t0) * 1e-9;
    pass.cells = 1;
    return pass;
  }

  Outputs CountPass(Report& report,
                    telemetry::MetricsRegistry* registry) override {
    telemetry::TraceRecorder trace;
    telemetry::Telemetry::ScopedSinks sinks(&trace, registry);
    return RunPass(report, nullptr).outputs;
  }

  void ReportExtras(Report& report,
                    const std::vector<PassStats>& passes) override {
    std::vector<double> rates;
    for (const PassStats& p : passes) {
      rates.push_back(p.flow_completions / p.run_sec);
    }
    report.Set("flow_completions_per_s", Median(rates), "1/s");
  }

  void ReportLayers(Report& report, const Tracer& tracer,
                    const std::vector<PassStats>& traced) override {
    const double passes = static_cast<double>(traced.size());
    const Tracer::Stats run = tracer.StatsOf(Tracer::kSimRun);
    const Tracer::Stats start = tracer.StatsOf(Tracer::kStartFlow);
    const Tracer::Stats cancel = tracer.StatsOf(Tracer::kCancelFlow);
    double events = 0;
    for (const PassStats& p : traced) events += p.events;
    report.Set("sim.run.self_ns_per_event",
               static_cast<double>(run.self_ns) / events, "ns");
    report.Set("net.start_flow.calls", start.calls / passes, "count");
    report.Set("net.start_flow.self_ns_p50", start.self_p50_ns, "ns");
    report.Set("net.start_flow.self_ns_p99", start.self_p99_ns, "ns");
    report.Set("net.cancel_flow.calls", cancel.calls / passes, "count");
    report.Set("net.cancel_flow.self_ns_p50", cancel.self_p50_ns, "ns");
    // Sampled at each cancel tick; the world is identical in every pass.
    report.Set("net.live_flows_mean", live_flows_mean_, "count");
    const double total = static_cast<double>(tracer.TotalSelfNs());
    report.Set("sim.self_share", run.self_ns / total, "ratio");
    report.Set("net.self_share",
               (start.self_ns + cancel.self_ns +
                tracer.StatsOf(Tracer::kFleetBuild).self_ns) /
                   total,
               "ratio");
  }

 private:
  uint64_t seed_;
  double live_flows_mean_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetChurn(uint64_t seed) {
  return std::make_unique<FleetChurn>(seed);
}

}  // namespace hivebench

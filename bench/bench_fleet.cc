// Fleet-scale kernel benchmark: the ROADMAP's 10k-100k peer worlds as a
// single series. Each BM_Fleet/<peers> run builds a multicloud world with
// <peers> VMs spread over the paper's eight sites and drives it through
//
//   * flow churn sized to the fleet (one in-flight flow per eight peers,
//     ~90% intra-site so components stay small the way production
//     traffic does, ~10% crossing WAN paths), with periodic cancel
//     storms exercising the removal path, and
//   * an event storm: every peer heartbeats at the same whole-second
//     timestamps, producing same-timestamp cohorts of fleet size that
//     land on the simulator's batched dispatch.
//
// This is the scalability proof for the SoA solver slabs and the cohort
// dispatch (docs/PERFORMANCE.md): flow-events/sec must hold roughly flat
// from 1k to 100k peers, and the area's peak RSS — recorded in the
// --bench-json artifact — is the memory ceiling the perf gate tracks.
//
// Like the other gated benches, the binary self-checks determinism first
// (same seed => same meters, completions, event count, and network work
// counters) and exits non-zero on divergence.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiles.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace {

using namespace hivesim;

struct FleetResult {
  double total_bytes = 0;
  uint64_t completions = 0;
  uint64_t heartbeats = 0;
  uint64_t events_fired = 0;
  // Only filled by RunCountedFleet: the network's work counters and the
  // queue entries that took the 4-ary heap (`sim.events_heaped`).
  bench::NetWorkCounters work;
  double events_heaped = 0;
};

FleetResult RunFleet(int peers, uint64_t seed) {
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  const size_t num_sites = topo.num_sites();
  std::vector<net::NodeId> nodes;
  std::vector<std::vector<net::NodeId>> by_site(num_sites);
  nodes.reserve(static_cast<size_t>(peers));
  const int per_site =
      std::max(2, peers / static_cast<int>(num_sites));
  for (net::SiteId site = 0; site < num_sites; ++site) {
    for (int i = 0; i < per_site; ++i) {
      const net::NodeId id = topo.AddNode(site, net::CloudVmNetConfig());
      nodes.push_back(id);
      by_site[site].push_back(id);
    }
  }
  net::Network network(&sim, &topo);
  Rng rng(seed);

  FleetResult result;
  const int concurrent = std::max(8, peers / 8);
  const int total_flows = concurrent * 2;
  int started = 0;
  std::vector<net::FlowId> inflight;

  std::function<void()> launch = [&] {
    if (started >= total_flows) return;
    ++started;
    const net::NodeId src =
        nodes[static_cast<size_t>(rng.UniformInt(0, nodes.size() - 1))];
    net::NodeId dst;
    if (rng.UniformInt(0, 9) < 9) {
      // Intra-site: rack-local gradient exchange. Components stay small
      // (the two NICs), which is what lets fleet worlds scale.
      const std::vector<net::NodeId>& local = by_site[topo.SiteOf(src)];
      dst = local[static_cast<size_t>(rng.UniformInt(0, local.size() - 1))];
    } else {
      // Cross-site: rides a shared WAN path resource.
      dst = nodes[static_cast<size_t>(rng.UniformInt(0, nodes.size() - 1))];
    }
    if (dst == src) dst = nodes[(src + 1) % nodes.size()];
    const double bytes = rng.Uniform(2 * kMB, 16 * kMB);
    auto id = network.StartFlow(src, dst, bytes, [&] {
      ++result.completions;
      launch();
    });
    if (id.ok()) inflight.push_back(*id);
  };
  for (int i = 0; i < concurrent; ++i) launch();

  // Cancel storms: every 0.5 s of sim time, abort a few in-flight flows
  // (spot preemptions) and backfill.
  std::function<void()> cancel_tick = [&] {
    for (int k = 0; k < 8 && !inflight.empty(); ++k) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, inflight.size() - 1));
      const net::FlowId victim = inflight[pick];
      inflight[pick] = inflight.back();
      inflight.pop_back();
      if (network.CancelFlow(victim)) launch();
    }
    if (started < total_flows) sim.Schedule(0.5, cancel_tick);
  };
  sim.Schedule(0.5, cancel_tick);

  // Event storm: all peers heartbeat at the same whole-second marks, so
  // every tick is one same-timestamp cohort of fleet size.
  constexpr int kHeartbeatTicks = 4;
  for (int tick = 1; tick <= kHeartbeatTicks; ++tick) {
    for (size_t p = 0; p < nodes.size(); ++p) {
      sim.ScheduleAt(static_cast<double>(tick),
                     [&result] { ++result.heartbeats; });
    }
  }

  sim.Run();
  for (net::NodeId n = 0; n < nodes.size(); ++n) {
    result.total_bytes += network.NodeEgressBytes(n);
  }
  result.events_fired = sim.events_fired();
  return result;
}

void BM_Fleet(benchmark::State& state) {
  const int peers = static_cast<int>(state.range(0));
  uint64_t flow_events = 0;
  for (auto _ : state) {
    FleetResult r = RunFleet(peers, /*seed=*/29);
    benchmark::DoNotOptimize(r.total_bytes);
    flow_events += r.completions;
  }
  state.SetItemsProcessed(static_cast<int64_t>(flow_events));
  state.counters["flow_completions/s"] = benchmark::Counter(
      static_cast<double>(flow_events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fleet)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The self-check world, with its metrics in a private registry so the
// network's work counters join the checked result.
FleetResult RunCountedFleet() {
  bench::PrivateMetrics metrics;
  FleetResult result = RunFleet(1000, 29);
  result.work = metrics.net_work();
  result.events_heaped = metrics.counter("sim.events_heaped");
  return result;
}

// Same-seed runs must be bit-reproducible before any timing is trusted.
FleetResult CheckFleetDeterminism() {
  const FleetResult a = RunCountedFleet();
  const FleetResult b = RunCountedFleet();
  if (a.total_bytes != b.total_bytes || a.completions != b.completions ||
      a.heartbeats != b.heartbeats || a.events_fired != b.events_fired ||
      a.work != b.work || a.events_heaped != b.events_heaped) {
    std::fprintf(stderr,
                 "FLEET_DETERMINISM FAILED: bytes %.17g vs %.17g, "
                 "completions %llu vs %llu, heartbeats %llu vs %llu, "
                 "events %llu vs %llu\n",
                 a.total_bytes, b.total_bytes,
                 (unsigned long long)a.completions,
                 (unsigned long long)b.completions,
                 (unsigned long long)a.heartbeats,
                 (unsigned long long)b.heartbeats,
                 (unsigned long long)a.events_fired,
                 (unsigned long long)b.events_fired);
    std::exit(1);
  }
  std::printf("FLEET_DETERMINISM OK (%llu completions, %llu heartbeats, "
              "%llu events; %.0f solves, %.0f at a repeated timestamp, "
              "%.0f flow settles, %.0f pinned removals, %.0f events "
              "heaped)\n",
              (unsigned long long)a.completions,
              (unsigned long long)a.heartbeats,
              (unsigned long long)a.events_fired, a.work.solves,
              a.work.solves_same_ts, a.work.flows_settled,
              a.work.removals_pinned, a.events_heaped);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  hivesim::bench::TelemetryScope telemetry_scope(&argc, argv);
  hivesim::bench::PerfJsonScope perf(&argc, argv, "fleet");
  const FleetResult fleet = CheckFleetDeterminism();
  perf.AddCheck("fleet_total_bytes", fleet.total_bytes);
  perf.AddCheck("fleet_completions", static_cast<double>(fleet.completions));
  perf.AddCheck("fleet_heartbeats", static_cast<double>(fleet.heartbeats));
  perf.AddCheck("fleet_events_fired",
                static_cast<double>(fleet.events_fired));
  fleet.work.AddChecks("fleet", perf);
  perf.AddCheck("fleet_events_heaped", fleet.events_heaped);
  return perf.RunAndReport(&argc, argv);
}

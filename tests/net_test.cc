#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiler.h"
#include "net/profiles.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace hivesim::net {
namespace {

/// Two-site fixture: a fast local site and a slow remote one.
class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&sim_, &topo_) {}

  void BuildTwoSites(double local_gbps = 10, double wan_mbps = 100,
                     double wan_rtt_ms = 100) {
    a_ = topo_.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
    b_ = topo_.AddSite("b", Provider::kGoogleCloud, Continent::kEu);
    topo_.SetPath(a_, a_, GbpsToBytesPerSec(local_gbps), MsToSec(1));
    topo_.SetPath(b_, b_, GbpsToBytesPerSec(local_gbps), MsToSec(1));
    topo_.SetPath(a_, b_, MbpsToBytesPerSec(wan_mbps), MsToSec(wan_rtt_ms));
    n0_ = topo_.AddNode(a_);
    n1_ = topo_.AddNode(a_);
    n2_ = topo_.AddNode(b_);
  }

  sim::Simulator sim_;
  Topology topo_;
  Network network_;
  SiteId a_ = 0, b_ = 0;
  NodeId n0_ = 0, n1_ = 0, n2_ = 0;
};

TEST_F(NetworkTest, SingleFlowUsesFullPath) {
  BuildTwoSites();
  bool done = false;
  double done_at = -1;
  // 125 MB over a 10 Gb/s local path = 0.1 s.
  ASSERT_TRUE(network_
                  .StartFlow(n0_, n1_, 125 * kMB,
                             [&] {
                               done = true;
                               done_at = sim_.Now();
                             })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(done_at, 0.1, 1e-6);
}

TEST_F(NetworkTest, TwoFlowsShareLinkFairly) {
  BuildTwoSites();
  int completed = 0;
  double last = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(network_
                    .StartFlow(n0_, n1_, 125 * kMB,
                               [&] {
                                 ++completed;
                                 last = sim_.Now();
                               })
                    .ok());
  }
  sim_.Run();
  EXPECT_EQ(completed, 2);
  // Two equal flows sharing 10 Gb/s finish together at 0.2 s.
  EXPECT_NEAR(last, 0.2, 1e-6);
}

TEST_F(NetworkTest, WanFlowLimitedByPathBandwidth) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/100, /*wan_rtt_ms=*/1);
  double done_at = -1;
  // 12.5 MB at 100 Mb/s = 1 s.
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 12.5 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, TcpWindowCapsHighRttFlow) {
  // 1 MB window at 200 ms RTT caps a stream at 5 MB/s = 40 Mb/s even
  // though the path carries 1000 Mb/s.
  a_ = topo_.AddSite("a", Provider::kOnPremise, Continent::kEu);
  b_ = topo_.AddSite("b", Provider::kGoogleCloud, Continent::kUs);
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(1000), MsToSec(200));
  NodeNetConfig small;
  small.tcp_window_bytes = 1e6;
  n0_ = topo_.AddNode(a_, small);
  n2_ = topo_.AddNode(b_);
  double done_at = -1;
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 5 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, MultiStreamRaisesWindowCap) {
  a_ = topo_.AddSite("a", Provider::kOnPremise, Continent::kEu);
  b_ = topo_.AddSite("b", Provider::kGoogleCloud, Continent::kUs);
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(1000), MsToSec(200));
  NodeNetConfig small;
  small.tcp_window_bytes = 1e6;
  n0_ = topo_.AddNode(a_, small);
  n2_ = topo_.AddNode(b_);
  double done_at = -1;
  FlowOptions opts;
  opts.streams = 4;  // 4 x 5 MB/s = 20 MB/s.
  ASSERT_TRUE(network_
                  .StartFlow(n0_, n2_, 5 * kMB,
                             [&] { done_at = sim_.Now(); }, opts)
                  .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 0.25, 1e-6);
}

TEST_F(NetworkTest, AppRateCapRespected) {
  BuildTwoSites();
  FlowOptions opts;
  opts.app_rate_cap_bps = 12.5 * kMB;  // 100 Mb/s serialization bound.
  double done_at = -1;
  ASSERT_TRUE(network_
                  .StartFlow(n0_, n1_, 12.5 * kMB,
                             [&] { done_at = sim_.Now(); }, opts)
                  .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, ZeroByteFlowDeliversAfterHalfRtt) {
  BuildTwoSites(10, 100, /*wan_rtt_ms=*/200);
  double done_at = -1;
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 0, [&] { done_at = sim_.Now(); }).ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 0.1, 1e-9);
}

TEST_F(NetworkTest, CancelStopsDeliveryAndKeepsPartialMeter) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/80, /*wan_rtt_ms=*/1);
  bool done = false;
  auto flow = network_.StartFlow(n0_, n2_, 100 * kMB, [&] { done = true; });
  ASSERT_TRUE(flow.ok());
  sim_.RunUntil(1.0);  // 10 MB/s for 1 s -> 10 MB delivered.
  EXPECT_TRUE(network_.CancelFlow(*flow));
  sim_.Run();
  EXPECT_FALSE(done);
  EXPECT_NEAR(network_.BytesBetweenNodes(n0_, n2_), 10 * kMB, kMB * 0.01);
  EXPECT_FALSE(network_.CancelFlow(*flow));  // Already gone.
}

TEST_F(NetworkTest, CancelLatencyOnlyFlowSuppressesDelivery) {
  // Latency-only flows are tracked like any other: cancelling one must
  // report success and the completion callback must never fire.
  BuildTwoSites(10, 100, /*wan_rtt_ms=*/200);
  bool done = false;
  auto flow = network_.StartFlow(n0_, n2_, 0, [&] { done = true; });
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(network_.active_flows(), 1u);
  EXPECT_TRUE(network_.CancelFlow(*flow));
  sim_.Run();
  EXPECT_FALSE(done);
  EXPECT_EQ(network_.active_flows(), 0u);
  EXPECT_FALSE(network_.CancelFlow(*flow));  // Already gone.
  EXPECT_DOUBLE_EQ(network_.BytesBetweenNodes(n0_, n2_), 0.0);
}

TEST_F(NetworkTest, LatencyOnlyFlowMetersDeliveredBytes) {
  // Sub-epsilon payloads ride the latency-only path but still count as
  // delivered traffic for the egress cost engine.
  BuildTwoSites();
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 0.5, nullptr).ok());
  sim_.Run();
  EXPECT_DOUBLE_EQ(network_.BytesBetweenNodes(n0_, n2_), 0.5);
  EXPECT_DOUBLE_EQ(network_.NodeEgressBytes(n0_), 0.5);
  EXPECT_DOUBLE_EQ(network_.NodeIngressBytes(n2_), 0.5);
}

TEST_F(NetworkTest, MessageBytesMeteredOnDeliveryNotAtSend) {
  // A run stopped mid-flight must not have booked undelivered
  // control-plane bytes into egress cost.
  BuildTwoSites(10, /*wan_mbps=*/80, /*wan_rtt_ms=*/200);
  ASSERT_TRUE(network_.SendMessage(n0_, n2_, 1 * kMB, nullptr).ok());
  sim_.RunUntil(0.05);  // In flight: one-way delay is 0.2 s.
  EXPECT_DOUBLE_EQ(network_.BytesBetweenNodes(n0_, n2_), 0.0);
  sim_.Run();
  EXPECT_NEAR(network_.BytesBetweenNodes(n0_, n2_), 1 * kMB, 1.0);
}

TEST_F(NetworkTest, PerStreamCapUsesMinOfEndpointWindows) {
  // The receiver's 1 MB window at 200 ms RTT caps the stream at 5 MB/s
  // even though the sender has the default 8 MB window: both endpoints
  // bound the bytes in flight (the paper's RTT-window model for
  // asymmetric endpoints).
  a_ = topo_.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
  b_ = topo_.AddSite("b", Provider::kOnPremise, Continent::kEu);
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(1000), MsToSec(200));
  NodeNetConfig small;
  small.tcp_window_bytes = 1e6;
  n0_ = topo_.AddNode(a_);         // 8 MB default send window.
  n2_ = topo_.AddNode(b_, small);  // 1 MB receive window.
  double done_at = -1;
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 5 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, MetersTrackNodeAndSiteTraffic) {
  BuildTwoSites(10, 100, 1);
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 10 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n1_, n2_, 5 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n0_, n1_, 2 * kMB, nullptr).ok());
  sim_.Run();
  EXPECT_NEAR(network_.NodeEgressBytes(n0_), 12 * kMB, 1.0);
  EXPECT_NEAR(network_.NodeIngressBytes(n2_), 15 * kMB, 1.0);
  EXPECT_NEAR(network_.BytesBetweenSites(a_, b_), 15 * kMB, 1.0);
  EXPECT_NEAR(network_.BytesBetweenSites(a_, a_), 2 * kMB, 1.0);
  EXPECT_NEAR(network_.BytesBetweenSites(b_, a_), 0, 1e-9);
  network_.ResetMeters();
  EXPECT_DOUBLE_EQ(network_.NodeEgressBytes(n0_), 0);
}

TEST_F(NetworkTest, SitePairAggregateMatchesNodePairSums) {
  // BytesBetweenSites is served from an aggregate maintained at metering
  // time; it must equal the brute-force sum over all node pairs for every
  // directed site pair, including partially delivered flows.
  BuildTwoSites(10, 100, 1);
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 10 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n1_, n2_, 5 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n0_, n1_, 2 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.SendMessage(n2_, n0_, 64 * kKB, nullptr).ok());
  sim_.RunUntil(0.05);  // Mid-flight: some flows only partially metered.

  auto check_all_pairs = [&] {
    for (SiteId s = 0; s < topo_.num_sites(); ++s) {
      for (SiteId d = 0; d < topo_.num_sites(); ++d) {
        double sum = 0;
        for (NodeId a = 0; a < topo_.num_nodes(); ++a) {
          for (NodeId b = 0; b < topo_.num_nodes(); ++b) {
            if (topo_.SiteOf(a) == s && topo_.SiteOf(b) == d) {
              sum += network_.BytesBetweenNodes(a, b);
            }
          }
        }
        EXPECT_NEAR(network_.BytesBetweenSites(s, d), sum, 1e-6)
            << "site pair " << s << "->" << d;
      }
    }
  };
  check_all_pairs();
  sim_.Run();  // Everything delivered.
  check_all_pairs();
  network_.ResetMeters();
  check_all_pairs();  // Aggregate resets with the node meters.
  EXPECT_DOUBLE_EQ(network_.BytesBetweenSites(a_, b_), 0);
}

TEST_F(NetworkTest, PeakEgressRateRecorded) {
  BuildTwoSites(10, 100, 1);
  ASSERT_TRUE(network_.StartFlow(n0_, n1_, 125 * kMB, nullptr).ok());
  sim_.Run();
  EXPECT_NEAR(network_.NodePeakEgressRate(n0_), GbpsToBytesPerSec(10),
              GbpsToBytesPerSec(0.01));
}

TEST_F(NetworkTest, InvalidEndpointsRejected) {
  BuildTwoSites();
  EXPECT_FALSE(network_.StartFlow(99, n1_, 1, nullptr).ok());
  EXPECT_FALSE(network_.StartFlow(n0_, n1_, -5, nullptr).ok());
}

TEST_F(NetworkTest, BandwidthFreedWhenFlowFinishes) {
  BuildTwoSites();
  // Small flow finishes first; big flow then speeds up.
  double small_done = -1, big_done = -1;
  ASSERT_TRUE(network_
                  .StartFlow(n0_, n1_, 125 * kMB,
                             [&] { small_done = sim_.Now(); })
                  .ok());
  ASSERT_TRUE(network_
                  .StartFlow(n1_, n0_, 250 * kMB,
                             [&] { big_done = sim_.Now(); })
                  .ok());
  sim_.Run();
  // Opposite directions on a full-duplex path: both run at 10 Gb/s.
  EXPECT_NEAR(small_done, 0.1, 1e-6);
  EXPECT_NEAR(big_done, 0.2, 1e-6);
}

TEST_F(NetworkTest, MessageDelayIsLatencyPlusSerialization) {
  BuildTwoSites(10, /*wan_mbps=*/80, /*wan_rtt_ms=*/200);
  // 1 MB at the single-stream cap (80 Mb/s = 10 MB/s) + RTT/2.
  auto delay = network_.MessageDelay(n0_, n2_, 1 * kMB);
  ASSERT_TRUE(delay.ok());
  EXPECT_NEAR(*delay, 0.1 + 0.1, 1e-6);
  double delivered_at = -1;
  ASSERT_TRUE(network_
                  .SendMessage(n0_, n2_, 1 * kMB,
                               [&] { delivered_at = sim_.Now(); })
                  .ok());
  sim_.Run();
  EXPECT_NEAR(delivered_at, 0.2, 1e-6);
  // Message bytes are metered like any traffic.
  EXPECT_NEAR(network_.BytesBetweenNodes(n0_, n2_), 1 * kMB, 1.0);
}

TEST_F(NetworkTest, RefreshAppliesLiveLinkDegradation) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/100, /*wan_rtt_ms=*/1);
  double done_at = -1;
  // 25 MB at 100 Mb/s would take 2 s...
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 25 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.RunUntil(1.0);  // Half delivered.
  // ...but the WAN degrades to 25 Mb/s at t=1 (e.g. congestion event).
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(25), MsToSec(1));
  network_.Refresh();
  sim_.Run();
  // Remaining 12.5 MB at 25 Mb/s = 4 s more.
  EXPECT_NEAR(done_at, 5.0, 0.01);
}

TEST_F(NetworkTest, RefreshAppliesLinkRecoveryToo) {
  BuildTwoSites(10, /*wan_mbps=*/25, /*wan_rtt_ms=*/1);
  double done_at = -1;
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 25 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.RunUntil(4.0);  // 12.5 MB delivered at 25 Mb/s.
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(100), MsToSec(1));
  network_.Refresh();
  sim_.Run();
  // The flow's stream cap was fixed at start (25 Mb/s): recovery cannot
  // exceed the cap it negotiated, so it still finishes at 8 s.
  EXPECT_NEAR(done_at, 8.0, 0.01);
}

// --- Lazy metering contract: meters read as of the last network event ---

TEST_F(NetworkTest, MidFlightQueryReadsAsOfLastNetworkEvent) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/80, /*wan_rtt_ms=*/1);
  // 10 MB/s over the WAN plus a long local flow into n0. After t=0 the
  // only network events are the start at t=1 and the cancel at t=3.
  const NodeId n3 = topo_.AddNode(a_);
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 100 * kMB, nullptr).ok());
  auto side = network_.StartFlow(n1_, n0_, 1e12, nullptr);
  ASSERT_TRUE(side.ok());
  const double side_rate = network_.FlowRate(*side);
  ASSERT_GT(side_rate, 0);
  sim_.Schedule(1.0, [&] {
    ASSERT_TRUE(network_.StartFlow(n3, n2_, 1e12, nullptr).ok());
  });
  sim_.RunUntil(1.5);
  // The last network event was the start at t=1, not Now() = 1.5.
  EXPECT_NEAR(network_.BytesBetweenNodes(n0_, n2_), 10 * kMB, 1e-3);
  EXPECT_NEAR(network_.NodeEgressBytes(n0_), 10 * kMB, 1e-3);
  EXPECT_NEAR(network_.BytesBetweenSites(a_, b_), 10 * kMB, 1e-3);
  EXPECT_NEAR(network_.NodeIngressBytes(n0_), side_rate, 1e-3);
  // A repeated query at the same event time reads the same bytes.
  EXPECT_EQ(network_.NodeEgressBytes(n0_), network_.NodeEgressBytes(n0_));

  // From t=1 the WAN path is shared by two flows (5 MB/s each). The next
  // event (cancel at t=3) moves the meters to t=3.
  sim_.Schedule(1.5, [&] { EXPECT_TRUE(network_.CancelFlow(*side)); });
  sim_.RunUntil(3.5);
  EXPECT_NEAR(network_.BytesBetweenNodes(n0_, n2_), 20 * kMB, 1e-3);
  EXPECT_NEAR(network_.BytesBetweenNodes(n3, n2_), 10 * kMB, 1e-3);
  EXPECT_NEAR(network_.NodeIngressBytes(n0_), 3 * side_rate, 1e-3);
}

TEST_F(NetworkTest, ResetMetersMidFlightNeitherLosesNorLeaksBytes) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/80, /*wan_rtt_ms=*/1);
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(/*trace=*/nullptr, &metrics);
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 100 * kMB, nullptr).ok());
  auto side = network_.StartFlow(n1_, n0_, 1e12, nullptr);
  ASSERT_TRUE(side.ok());
  sim_.Schedule(1.0, [&] { EXPECT_TRUE(network_.CancelFlow(*side)); });
  sim_.RunUntil(1.0);
  // No meter was read before the reset: the 10 MB delivered by t=1 must
  // still land on the old side of it.
  network_.ResetMeters();
  EXPECT_DOUBLE_EQ(network_.NodeEgressBytes(n0_), 0);
  sim_.Run();
  EXPECT_NEAR(network_.BytesBetweenNodes(n0_, n2_), 90 * kMB, 1e-3);
  EXPECT_NEAR(network_.BytesBetweenSites(a_, b_), 90 * kMB, 1e-3);
  // Telemetry counters never reset: before + after is the whole flow.
  EXPECT_NEAR(metrics.CounterValue(telemetry::LabeledName(
                  "net.bytes_delivered", {{"src_zone", "a"},
                                          {"dst_zone", "b"}})),
              100 * kMB, 1e-3);
}

TEST_F(NetworkTest, CancelAfterTwoRateChangesMetersDeliveredBytes) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/80, /*wan_rtt_ms=*/1);
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(&trace, &metrics);
  const double total = 100 * kMB;
  auto flow = network_.StartFlow(n0_, n2_, total, nullptr);
  ASSERT_TRUE(flow.ok());
  Result<FlowId> rival = Status::NotFound("not started");
  // Rate 10 MB/s, halved at t=1 by a rival on the WAN path, restored at
  // t=3 when the rival is cancelled; the flow itself is cancelled at t=4.
  sim_.Schedule(1.0, [&] {
    rival = network_.StartFlow(n1_, n2_, total, nullptr);
    ASSERT_TRUE(rival.ok());
  });
  sim_.Schedule(3.0, [&] { EXPECT_TRUE(network_.CancelFlow(*rival)); });
  sim_.Schedule(4.0, [&] { EXPECT_TRUE(network_.CancelFlow(*flow)); });
  sim_.Run();
  const double delivered = network_.BytesBetweenNodes(n0_, n2_);
  EXPECT_NEAR(delivered, 30 * kMB, 30 * kMB * 1e-12);
  EXPECT_NEAR(network_.BytesBetweenNodes(n1_, n2_), 10 * kMB,
              10 * kMB * 1e-12);
  // The cancel instant reports total - remaining from the flow's own
  // state; the meter must have booked exactly that.
  bool found = false;
  for (const auto& event : trace.events()) {
    if (event.name != "flow-cancel 0->2") continue;
    found = true;
    EXPECT_NE(event.args_json.find(StrFormat("\"delivered_bytes\":%.0f",
                                             delivered)),
              std::string::npos)
        << event.args_json;
  }
  EXPECT_TRUE(found);
}

TEST_F(NetworkTest, SameTimestampArrivalsShareOneSolve) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/100, /*wan_rtt_ms=*/1);
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(/*trace=*/nullptr, &metrics);
  std::vector<FlowId> flows;
  // Six flows out of n0 at one instant: one component (n0's egress NIC).
  sim_.Schedule(1.0, [&] {
    for (int i = 0; i < 6; ++i) {
      auto flow =
          network_.StartFlow(n0_, i % 2 == 0 ? n2_ : n1_, 100 * kGB, nullptr);
      ASSERT_TRUE(flow.ok());
      flows.push_back(*flow);
    }
    EXPECT_EQ(metrics.CounterValue("net.solves"), 0);  // Not yet.
  });
  sim_.RunUntil(1.0);
  EXPECT_EQ(metrics.CounterValue("net.solves"), 1);
  EXPECT_EQ(metrics.HistogramCount("net.component_flows"), 1u);
  // The rates are those of the final component: three flows share the
  // WAN path.
  for (size_t i = 0; i < flows.size(); i += 2) {
    EXPECT_NEAR(network_.FlowRate(flows[i]), MbpsToBytesPerSec(100) / 3,
                1e-3);
  }

  // Reading a rate after every arrival forces one solve per arrival, the
  // order the network used before arrivals were batched.
  sim_.Schedule(1.0, [&] {
    for (int i = 0; i < 4; ++i) {
      auto flow = network_.StartFlow(n1_, n0_, 100 * kGB, nullptr);
      ASSERT_TRUE(flow.ok());
      EXPECT_GT(network_.FlowRate(*flow), 0);
    }
  });
  sim_.RunUntil(2.0);
  EXPECT_EQ(metrics.CounterValue("net.solves"), 5);
  EXPECT_EQ(metrics.HistogramCount("net.component_flows"), 5u);
}

// A flow slot freed and taken again at one timestamp: the new flow must
// run on its own deadline, and the old flow's deadline (cancelled or
// fired) must never complete it. Freed slots are reused last-in
// first-out, so each restart below lands in the slot just freed.
TEST_F(NetworkTest, RecycledFlowSlotKeepsItsOwnDeadline) {
  BuildTwoSites();
  int a_done = 0;
  std::vector<double> b_done, c_done;
  // 125 MB over 10 Gb/s: 0.1 s alone.
  auto a = network_.StartFlow(n0_, n1_, 125 * kMB, [&] { ++a_done; });
  ASSERT_TRUE(a.ok());
  sim_.Schedule(0.05, [&] {
    ASSERT_TRUE(network_.CancelFlow(*a));  // A's deadline was at 0.1.
    auto b = network_.StartFlow(n0_, n1_, 125 * kMB, [&] {
      b_done.push_back(sim_.Now());
      // Finishing frees B's slot; C takes it at the same instant.
      auto c = network_.StartFlow(n0_, n1_, 125 * kMB,
                                  [&] { c_done.push_back(sim_.Now()); });
      ASSERT_TRUE(c.ok());
    });
    ASSERT_TRUE(b.ok());
  });
  sim_.Run();
  EXPECT_EQ(a_done, 0);
  ASSERT_EQ(b_done.size(), 1u);
  EXPECT_NEAR(b_done[0], 0.15, 1e-9);
  ASSERT_EQ(c_done.size(), 1u);
  EXPECT_NEAR(c_done[0], 0.25, 1e-9);
  // The cancel tick plus one deadline each for B and C: A's cancelled
  // deadline never fires.
  EXPECT_EQ(sim_.events_fired(), 3u);
  EXPECT_EQ(network_.active_flows(), 0u);
}

// --- Batched arrivals against the one-solve-per-arrival order ---
//
// Each case runs twice: batched, and with a `FlowRate` read after every
// `StartFlow`, which solves the arrival at once (the eager order).

/// One site of nodes with the given NIC egress (and, when given, ingress)
/// capacities in bytes/sec; 0 is the 10 Gb/s default.
struct NicWorld {
  explicit NicWorld(const std::vector<double>& egress_bps,
                    const std::vector<double>& ingress_bps = {}) {
    const SiteId a = topo.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
    topo.SetPath(a, a, GbpsToBytesPerSec(100), MsToSec(1));
    for (size_t i = 0; i < egress_bps.size(); ++i) {
      NodeNetConfig config;
      config.nic_egress_bps = egress_bps[i];
      if (i < ingress_bps.size()) config.nic_ingress_bps = ingress_bps[i];
      nodes.push_back(topo.AddNode(a, config));
    }
  }
  sim::Simulator sim;
  Topology topo;
  std::vector<NodeId> nodes;
};

// A removal water-fills every part it splits off in one round sequence,
// so its rate bits differ from solving each part alone. A cancel at a
// timestamp with pending arrivals must solve them first, exactly where
// the eager order solved them, or a later solve of the arrival's part
// alone would overwrite the removal's rates.
TEST(ArrivalOrderTest, CancelSplittingAComponentSolvesArrivalsFirst) {
  // After the cancel: part X is x alone on n0's NIC (c0), part Y is three
  // flows on n1's NIC (c1). The joint solve freezes X at c0 first and
  // reaches Y's level as c0 + (c1 - 3 c0) / 3, which is not c1 / 3 in
  // floating point for these capacities.
  const double c0 = 227756287;
  const double c1 = 1159085833;
  ASSERT_NE(c0 + (c1 - 3 * c0) / 3, c1 / 3);
  std::vector<std::vector<double>> rates;
  for (const bool solve_each_arrival : {true, false}) {
    NicWorld w({c0, c1, 0, 0, 0, 0});
    Network network(&w.sim, &w.topo);
    const std::vector<NodeId>& n = w.nodes;
    std::vector<FlowId> flows;
    const auto start = [&](NodeId src, NodeId dst) {
      auto flow = network.StartFlow(src, dst, 100 * kGB, nullptr);
      ASSERT_TRUE(flow.ok());
      flows.push_back(*flow);
      if (solve_each_arrival) network.FlowRate(*flow);
    };
    start(n[0], n[2]);  // x
    start(n[1], n[3]);  // y1
    start(n[1], n[5]);  // y3
    start(n[0], n[3]);  // Links X and Y through n0's NIC and n3's.
    w.sim.RunUntil(1.0);
    w.sim.Schedule(0.0, [&] {
      start(n[1], n[4]);  // y2, pending in the batched run.
      EXPECT_TRUE(network.CancelFlow(flows[3]));
    });
    w.sim.RunUntil(2.0);
    rates.emplace_back();
    for (const FlowId id : flows) rates.back().push_back(network.FlowRate(id));
    EXPECT_EQ(rates.back()[0], c0);
    EXPECT_EQ(rates.back()[1], c0 + (c1 - 3 * c0) / 3);
  }
  EXPECT_EQ(rates[1], rates[0]);
}

// A deadline due at a timestamp where its component just gained an
// arrival fires unflushed. The flush inside `FinishFlow` then gives the
// finishing flow a fresh deadline, which must be cancelled: the eager
// order never fires it.
TEST(ArrivalOrderTest, DeadlineBesidePendingArrivalFiresNoStrayEvent) {
  std::vector<uint64_t> events;
  for (const bool solve_each_arrival : {true, false}) {
    NicWorld w({0, 0, 0, 0});
    Network network(&w.sim, &w.topo);
    const std::vector<NodeId>& n = w.nodes;
    double a_done = -1, b_done = -1;
    // A and B share nothing and finish at the same instant. A's callback
    // starts C, which shares B's NIC, before B's deadline fires.
    ASSERT_TRUE(network
                    .StartFlow(n[0], n[1], 100 * kMB,
                               [&] {
                                 a_done = w.sim.Now();
                                 auto c = network.StartFlow(n[2], n[1],
                                                            100 * kMB, nullptr);
                                 ASSERT_TRUE(c.ok());
                                 if (solve_each_arrival) network.FlowRate(*c);
                               })
                    .ok());
    ASSERT_TRUE(network
                    .StartFlow(n[2], n[3], 100 * kMB,
                               [&] { b_done = w.sim.Now(); })
                    .ok());
    w.sim.Run();
    EXPECT_GT(a_done, 0);
    EXPECT_NEAR(b_done, a_done, 1e-9 * a_done);
    events.push_back(w.sim.events_fired());
  }
  EXPECT_EQ(events[1], events[0]);
}

// A network destroyed while an arrival solve is pending must withdraw
// its end-of-timestamp hook: under ASan a call into the freed network is
// a heap-use-after-free.
TEST(NetworkLifetimeTest, DestroyedNetworkWithPendingArrivalsIsNotCalledBack) {
  sim::Simulator sim;
  Topology topo;
  const SiteId a = topo.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
  topo.SetPath(a, a, GbpsToBytesPerSec(10), MsToSec(1));
  const NodeId n0 = topo.AddNode(a);
  const NodeId n1 = topo.AddNode(a);
  bool completed = false;
  sim.Schedule(1.0, [&] {
    auto network = std::make_unique<Network>(&sim, &topo);
    ASSERT_TRUE(network
                    ->StartFlow(n0, n1, 125 * kMB,
                                [&completed] { completed = true; })
                    .ok());
    ASSERT_EQ(network->active_flows(), 1u);
  });
  sim.Schedule(2.0, [] {});
  sim.Run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(sim.Now(), 2.0);
  EXPECT_EQ(sim.events_fired(), 2u);
}

// --- Pinned components: removals without a re-solve ---
//
// Each case runs twice: as is, and with `Refresh()` after every removal,
// which re-solves every component from scratch. A removal that skips its
// re-solve must leave exactly what the re-solve computes.

struct PinnedFlow {
  int src;
  int dst;
  double cap;  // app_rate_cap_bps; the paths and windows allow more.
};

struct RemovalRun {
  std::vector<double> rates_before;  // Every flow, before the removal.
  std::vector<double> rates_after;   // After it (0 for the victim).
  std::vector<double> done_at;       // Completion time per flow, or -1.
  std::vector<double> peaks;         // NodePeakEgressRate per node.
  uint64_t events_fired = 0;
  double removal_solves = 0;   // net.solves run by the removal.
  double removal_cancels = 0;  // sim.events_cancelled by the removal.
  double removals_pinned = 0;  // Whole run.
  double solves = 0;           // Whole run.
};

// Starts `flows` (1 GB each) at t=0 in `w`, cancels flow `victim` at t=1
// and runs to the end.
RemovalRun RunRemoval(NicWorld& w, const std::vector<PinnedFlow>& flows,
                      size_t victim, bool refresh_after_removal) {
  RemovalRun run;
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(/*trace=*/nullptr, &metrics);
  Network network(&w.sim, &w.topo);
  std::vector<FlowId> ids;
  run.done_at.assign(flows.size(), -1);
  for (size_t i = 0; i < flows.size(); ++i) {
    FlowOptions options;
    options.app_rate_cap_bps = flows[i].cap;
    auto id = network.StartFlow(
        w.nodes[flows[i].src], w.nodes[flows[i].dst], 1 * kGB,
        [&, i] {
          run.done_at[i] = w.sim.Now();
          if (refresh_after_removal) network.Refresh();
        },
        options);
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
  }
  w.sim.RunUntil(1.0);
  for (const FlowId id : ids) run.rates_before.push_back(network.FlowRate(id));
  w.sim.Schedule(0.0, [&] {
    const double solves = metrics.CounterValue("net.solves");
    const double cancels = metrics.CounterValue("sim.events_cancelled");
    EXPECT_TRUE(network.CancelFlow(ids[victim]));
    if (refresh_after_removal) network.Refresh();
    run.removal_solves = metrics.CounterValue("net.solves") - solves;
    run.removal_cancels =
        metrics.CounterValue("sim.events_cancelled") - cancels;
  });
  w.sim.RunUntil(1.0);
  for (const FlowId id : ids) run.rates_after.push_back(network.FlowRate(id));
  w.sim.Run();
  for (const NodeId n : w.nodes) {
    run.peaks.push_back(network.NodePeakEgressRate(n));
  }
  run.events_fired = w.sim.events_fired();
  run.removals_pinned = metrics.CounterValue("net.removals_pinned");
  run.solves = metrics.CounterValue("net.solves");
  return run;
}

// Runs the case live and with a re-solve after every removal, checks
// that both agree exactly, and returns the live run.
RemovalRun RunAgainstRefresh(const std::vector<double>& egress_bps,
                             const std::vector<double>& ingress_bps,
                             const std::vector<PinnedFlow>& flows,
                             size_t victim) {
  NicWorld live_world(egress_bps, ingress_bps);
  const RemovalRun live = RunRemoval(live_world, flows, victim, false);
  NicWorld twin_world(egress_bps, ingress_bps);
  const RemovalRun twin = RunRemoval(twin_world, flows, victim, true);
  EXPECT_EQ(live.rates_before, twin.rates_before);
  EXPECT_EQ(live.rates_after, twin.rates_after);
  EXPECT_EQ(live.done_at, twin.done_at);
  EXPECT_EQ(live.peaks, twin.peaks);
  EXPECT_EQ(live.events_fired, twin.events_fired);
  return live;
}

TEST(PinnedComponentTest, RemovalFromPinnedComponentRunsNoSolve) {
  // Integer caps an octave apart, NICs far above their sums: one
  // component (n0's egress NIC and n1's ingress NIC link all four).
  const std::vector<PinnedFlow> flows = {
      {0, 1, 1e8}, {0, 2, 2e8}, {0, 3, 4e8}, {4, 1, 3e8}};
  const RemovalRun run =
      RunAgainstRefresh({0, 0, 0, 0, 0}, {}, flows, /*victim=*/1);
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(run.rates_before[i], flows[i].cap);
    EXPECT_EQ(run.rates_after[i], i == 1 ? 0.0 : flows[i].cap);
  }
  EXPECT_EQ(run.removal_solves, 0);
  EXPECT_EQ(run.removal_cancels, 1);  // The victim's own deadline.
  // The arrivals' solve is the only one: the cancel and the two
  // completions that leave survivors skip theirs.
  EXPECT_EQ(run.solves, 1);
  EXPECT_EQ(run.removals_pinned, 3);
  EXPECT_EQ(run.done_at[2], 2.5);  // 1 GB at 400 MB/s.
  EXPECT_EQ(run.peaks[0], 7e8);
}

TEST(PinnedComponentTest, CapWithinEpsilonOfALowerOneIsNotPinned) {
  // Within 1e-9 B/s of a lower cap, a flow freezes at that level, below
  // its own cap, with every NIC far from full; alone it reaches its cap.
  const double a = 1000;
  const double b = 1000 + 5e-10;
  const std::vector<PinnedFlow> flows = {{0, 1, a}, {0, 2, b}};
  const RemovalRun run =
      RunAgainstRefresh({0, 0, 0}, {}, flows, /*victim=*/0);
  EXPECT_EQ(run.rates_before[1], a);
  EXPECT_EQ(run.rates_after[1], b);
  EXPECT_EQ(run.removal_solves, 1);
}

TEST(PinnedComponentTest, TightNicRemovalRaisesSurvivor) {
  // n0's NIC (300 MB/s) holds both 200 MB/s flows below their caps.
  const std::vector<PinnedFlow> flows = {{0, 1, 2e8}, {0, 2, 2e8}};
  const RemovalRun run =
      RunAgainstRefresh({3e8, 0, 0}, {}, flows, /*victim=*/0);
  EXPECT_EQ(run.rates_before[1], 1.5e8);
  EXPECT_EQ(run.rates_after[1], 2e8);
  EXPECT_EQ(run.removal_solves, 1);
  EXPECT_EQ(run.removals_pinned, 0);
}

TEST(PinnedComponentTest, LevelStepThatRoundsIsNotPinned) {
  // Every step of the full solve (0 -> a -> c -> b) stays within a 2x
  // band and is exact, but once c leaves, the step a -> b rounds.
  const double a = 100000000.3;
  const double c = 150000000.0;
  const double b = 250000000.1;
  ASSERT_NE(a + (b - a), b);
  const std::vector<PinnedFlow> flows = {{0, 1, a}, {0, 2, c}, {0, 3, b}};
  const RemovalRun run =
      RunAgainstRefresh({0, 0, 0, 0}, {}, flows, /*victim=*/1);
  EXPECT_EQ(run.rates_before, (std::vector<double>{a, c, b}));
  EXPECT_EQ(run.rates_after[2], a + (b - a));
  EXPECT_EQ(run.removal_solves, 1);
}

TEST(PinnedComponentTest, MoreThanThirtyTwoDistinctCapsAcrossOctavesSolve) {
  // Integer caps from 1 to 33 MB/s: every step is exact, but beyond a 2x
  // band only 32 distinct caps are checked pairwise.
  for (const int num_caps : {32, 33}) {
    std::vector<PinnedFlow> flows;
    for (int k = 1; k <= num_caps; ++k) flows.push_back({0, 1, k * 1e6});
    const RemovalRun run =
        RunAgainstRefresh({0, 0}, {}, flows, /*victim=*/0);
    EXPECT_EQ(run.rates_before.back(), num_caps * 1e6);
    EXPECT_EQ(run.removal_solves, num_caps == 32 ? 0 : 1) << num_caps;
  }
}

TEST(PinnedComponentTest, SummedCapsWithinSlackOfNicSolve) {
  // n1's ingress NIC is exactly the sum of its three flows' caps: all
  // five flows reach their caps, but once a flow elsewhere on n0's NIC
  // leaves, the re-solve stops one of n1's flows a hair short of its cap.
  const double c1 = 222908723.9;
  const double c2 = 284492237.9;
  const double c5 = 258880825.3;
  const std::vector<PinnedFlow> flows = {{0, 1, c1},
                                         {0, 1, c2},
                                         {0, 2, 198838825.2},
                                         {0, 3, 221685380.0},
                                         {0, 1, c5}};
  const double nic = c1 + c2 + c5;
  const RemovalRun run =
      RunAgainstRefresh({0, 0, 0, 0}, {0, nic, 0, 0}, flows, /*victim=*/2);
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(run.rates_before[i], flows[i].cap);
  }
  EXPECT_LT(run.rates_after[1], c2);
  EXPECT_EQ(run.removal_solves, 1);
}

TEST(PinnedComponentTest, WideCapSpreadKeepsPeakEgressExact) {
  // A 4e-9 B/s flow beside ~1e8 B/s ones: its removal lets the re-solve
  // sum n0's egress in a new order (the last user takes the freed
  // place), which here rounds above the old peak.
  const double a = 101316799.2;
  const double b = 183746908.2;
  const double c = 125935401.4;
  const double tiny = 4e-9;
  ASSERT_GT((a + c) + b, ((a + tiny) + b) + c);
  const std::vector<PinnedFlow> flows = {
      {0, 1, a}, {0, 2, tiny}, {0, 3, b}, {0, 4, c}};
  const RemovalRun run =
      RunAgainstRefresh({0, 0, 0, 0, 0}, {}, flows, /*victim=*/1);
  EXPECT_EQ(run.rates_before, (std::vector<double>{a, tiny, b, c}));
  EXPECT_EQ(run.peaks[0], (a + c) + b);
  EXPECT_EQ(run.removal_solves, 1);
}

TEST(PinnedComponentTest, LargeComponentIsNeverPinned) {
  // Above 2^14 flows the egress-sum rounding argument no longer holds.
  for (const int num_flows : {1 << 14, (1 << 14) + 1}) {
    NicWorld w({0, 0});
    telemetry::MetricsRegistry metrics;
    telemetry::Telemetry::ScopedSinks sinks(/*trace=*/nullptr, &metrics);
    Network network(&w.sim, &w.topo);
    FlowOptions options;
    options.app_rate_cap_bps = 1e4;
    std::vector<FlowId> ids;
    for (int i = 0; i < num_flows; ++i) {
      auto id = network.StartFlow(w.nodes[0], w.nodes[1], 1 * kGB, nullptr,
                                  options);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    w.sim.RunUntil(1.0);
    ASSERT_EQ(metrics.CounterValue("net.solves"), 1);
    EXPECT_TRUE(network.CancelFlow(ids[0]));
    EXPECT_EQ(metrics.CounterValue("net.solves"),
              num_flows == 1 << 14 ? 1 : 2)
        << num_flows;
  }
}

TEST(PinnedComponentTest, RefreshThatRemovesPathSlackEndsThePin) {
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(/*trace=*/nullptr, &metrics);
  sim::Simulator sim;
  Topology topo;
  const SiteId a = topo.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
  const SiteId b = topo.AddSite("b", Provider::kGoogleCloud, Continent::kEu);
  topo.SetPath(a, a, GbpsToBytesPerSec(100), MsToSec(1));
  topo.SetPath(b, b, GbpsToBytesPerSec(100), MsToSec(1));
  topo.SetPath(a, b, 1e9, MsToSec(10));  // 8 MB windows: 800 MB/s a stream.
  Network network(&sim, &topo);
  std::vector<FlowId> ids;
  for (const double cap : {1e8, 2e8, 3e8}) {
    FlowOptions options;
    options.app_rate_cap_bps = cap;
    auto id = network.StartFlow(topo.AddNode(a), topo.AddNode(b), 100 * kGB,
                                nullptr, options);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  sim.RunUntil(1.0);
  EXPECT_EQ(metrics.CounterValue("net.solves"), 1);
  EXPECT_TRUE(network.CancelFlow(ids[1]));  // Pinned: no solve.
  EXPECT_EQ(metrics.CounterValue("net.solves"), 1);
  // The path shrinks to the survivors' summed caps: they still reach
  // them, but with no slack left the component is no longer pinned.
  topo.SetPath(a, b, 4e8, MsToSec(10));
  network.Refresh();
  EXPECT_EQ(metrics.CounterValue("net.solves"), 2);
  EXPECT_EQ(network.FlowRate(ids[0]), 1e8);
  EXPECT_EQ(network.FlowRate(ids[2]), 3e8);
  EXPECT_TRUE(network.CancelFlow(ids[0]));
  EXPECT_EQ(metrics.CounterValue("net.solves"), 3);
  EXPECT_EQ(metrics.CounterValue("net.removals_pinned"), 1);
  EXPECT_EQ(network.FlowRate(ids[2]), 3e8);
}

// --- Topology ---

TEST(TopologyTest, MissingPathIsNotFound) {
  Topology t;
  SiteId a = t.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
  SiteId b = t.AddSite("b", Provider::kGoogleCloud, Continent::kEu);
  EXPECT_FALSE(t.PathBetween(a, b).ok());
  t.SetPath(a, b, 100, 0.1);
  EXPECT_TRUE(t.PathBetween(a, b).ok());
  EXPECT_TRUE(t.PathBetween(b, a).ok());  // Symmetric.
}

TEST(TopologyTest, SingleStreamCapMinOfPathAndWindow) {
  Topology t;
  SiteId a = t.AddSite("a", Provider::kOnPremise, Continent::kEu);
  SiteId b = t.AddSite("b", Provider::kGoogleCloud, Continent::kUs);
  t.SetPath(a, b, MbpsToBytesPerSec(1000), MsToSec(100));
  NodeNetConfig cfg;
  cfg.tcp_window_bytes = 1e6;  // 1 MB / 0.1 s = 10 MB/s = 80 Mb/s.
  NodeId n0 = t.AddNode(a, cfg);
  NodeId n1 = t.AddNode(b);
  auto cap = t.SingleStreamCap(n0, n1);
  ASSERT_TRUE(cap.ok());
  EXPECT_NEAR(BytesPerSecToMbps(*cap), 80, 0.1);
  // The cloud node's big window makes the path the limit in reverse.
  auto rcap = t.SingleStreamCap(n1, n0);
  ASSERT_TRUE(rcap.ok());
  EXPECT_NEAR(BytesPerSecToMbps(*rcap), 640, 0.1);  // 8 MB / 0.1 s.
}

// --- StandardWorld against the paper's tables ---

class StandardWorldTest : public ::testing::Test {
 protected:
  StandardWorldTest()
      : topo_(StandardWorld()), network_(&sim_, &topo_), profiler_(&network_) {
    for (SiteId s = 0; s < kNumStandardSites; ++s) {
      nodes_[s] = topo_.AddNode(
          s, s == kOnPremEu ? OnPremNetConfig() : CloudVmNetConfig());
    }
  }

  double IperfMbps(SiteId from, SiteId to, int streams = 1) {
    auto r = profiler_.Iperf(nodes_[from], nodes_[to], 10.0, streams);
    EXPECT_TRUE(r.ok());
    return BytesPerSecToMbps(r.value_or(0));
  }

  sim::Simulator sim_;
  Topology topo_;
  Network network_;
  Profiler profiler_;
  NodeId nodes_[kNumStandardSites];
};

TEST_F(StandardWorldTest, Table3IntraZoneNearSevenGbps) {
  EXPECT_NEAR(IperfMbps(kGcUs, kGcUs), 6900, 70);
}

TEST_F(StandardWorldTest, Table3TransatlanticSingleStream) {
  EXPECT_NEAR(IperfMbps(kGcUs, kGcEu), 210, 10);
}

TEST_F(StandardWorldTest, Table3WorstLinkEuAsia) {
  EXPECT_NEAR(IperfMbps(kGcEu, kGcAsia), 80, 5);
  auto ping = profiler_.PingMs(nodes_[kGcEu], nodes_[kGcAsia]);
  ASSERT_TRUE(ping.ok());
  EXPECT_NEAR(*ping, 270, 1);
}

TEST_F(StandardWorldTest, Table4InterCloudGcAws) {
  const double mbps = IperfMbps(kGcUs, kAwsUsWest);
  EXPECT_GT(mbps, 1500);
  EXPECT_LT(mbps, 1900);
}

TEST_F(StandardWorldTest, Table5OnPremSingleStreamToEuAndUs) {
  // Paper: 0.45-0.55 Gb/s to the EU T4s; 50-80 Mb/s to the US.
  const double eu = IperfMbps(kOnPremEu, kGcEu);
  EXPECT_GT(eu, 450);
  EXPECT_LT(eu, 560);
  const double us = IperfMbps(kOnPremEu, kGcUs);
  EXPECT_GT(us, 50);
  EXPECT_LT(us, 80);
}

TEST_F(StandardWorldTest, Sec7MultiStreamReachesPhysicalCapacity) {
  // 80 streams: ~6 Gb/s within the EU, ~4 Gb/s to the US (Section 7).
  const double eu = IperfMbps(kOnPremEu, kGcEu, 80);
  EXPECT_NEAR(eu, 6000, 100);
  const double us = IperfMbps(kOnPremEu, kGcUs, 80);
  EXPECT_NEAR(us, 4000, 100);
}

TEST_F(StandardWorldTest, EveryStandardSitePairHasAPath) {
  for (SiteId a = 0; a < kNumStandardSites; ++a) {
    for (SiteId b = 0; b < kNumStandardSites; ++b) {
      EXPECT_TRUE(topo_.PathBetween(a, b).ok())
          << topo_.site(a).name << " <-> " << topo_.site(b).name;
    }
  }
}

TEST_F(StandardWorldTest, ProviderAndContinentMetadata) {
  EXPECT_EQ(topo_.site(kGcAus).continent, Continent::kAus);
  EXPECT_EQ(topo_.site(kAwsUsWest).provider, Provider::kAws);
  EXPECT_EQ(ProviderName(Provider::kLambdaLabs), "LambdaLabs");
  EXPECT_EQ(ContinentName(Continent::kAsia), "ASIA");
}

}  // namespace
}  // namespace hivesim::net

#ifndef HIVESIM_NET_NETWORK_H_
#define HIVESIM_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace hivesim::net {

/// Handle to a transfer in flight.
using FlowId = uint64_t;

/// Per-flow knobs.
struct FlowOptions {
  /// Application-level rate cap in bytes/sec. Hivemind's gradient
  /// serialization is CPU-bound around ~1.1 Gb/s per stream (Section 4
  /// observed at most 1.1 Gb/s while averaging on a 7 Gb/s network); the
  /// training runtime passes that bound here.
  double app_rate_cap_bps = std::numeric_limits<double>::infinity();
  /// Number of parallel TCP streams carrying this flow. Each stream is
  /// window/RTT-capped individually, so `streams > 1` raises the per-flow
  /// ceiling on high-latency paths (the Section 7 multi-stream insight).
  int streams = 1;
};

/// Flow-level network simulation on top of a `Topology`.
///
/// Every transfer is a fluid flow that receives a max-min fair share of
/// three shared resources — the sender's NIC, the receiver's NIC, and the
/// directed inter-site path — further limited by its TCP window/RTT cap
/// and an optional application cap. Rates are recomputed whenever a flow
/// starts or ends, and all byte progress is metered per node pair so the
/// cloud cost engine can price egress exactly.
///
/// Byte progress is settled lazily: each flow keeps
/// `(remaining_bytes, rate_bps, settled_sec)` and is advanced only when
/// its rate is about to change, when its deadline fires, when it is
/// cancelled, or when a meter is read. A network event therefore costs
/// O(flows whose rate changed), not O(live flows). The meters report
/// traffic as of the last network event (flow start, cancel, deadline or
/// `Refresh`), exactly as eager per-event progress did; see
/// docs/PERFORMANCE.md ("Lazy flow settlement").
///
/// The solver is incremental: each flow's resource keys are computed once
/// at `StartFlow` and kept in a persistent resource table, so a flow
/// arrival/removal only re-solves the *dirty component* — the flows
/// transitively sharing a resource with the changed flow.
///
/// Arrivals are batched per timestamp: `StartFlow` only registers the
/// flow, and each component that gained flows is solved once, from the
/// simulator's end-of-timestamp hook, so a collective stage that starts k
/// transfers at one instant pays one solve of the final component, not k
/// solves of a growing one. Rates are therefore those as of the end of
/// the timestamp, and the peak-egress meter only sees states that persist
/// past it. Removals (`CancelFlow`, completions) still solve at once,
/// after first solving any pending arrivals; `FlowRate` and
/// `NodePeakEgressRate` also solve pending arrivals before answering. See
/// docs/PERFORMANCE.md ("One solve per timestamp (arrivals)").
///
/// A removal from a *pinned* component skips its re-solve. Every solve
/// marks its flows pinned when each one sits exactly at its own stream
/// cap with room to spare on every shared resource (the four conditions
/// at `ComponentPinned`); any subset of such a component solves to the
/// same caps bit for bit, so the survivors' rates, settle points,
/// deadlines and peak-egress sums cannot move, and skipping is exact.
/// See docs/PERFORMANCE.md ("Pinned components: removals without a
/// re-solve").
///
/// Storage is structure-of-arrays at fleet scale: flows and resources
/// live in index-based slabs (`flow_slab_` / `res_slab_`, free-listed,
/// never shrinking), resource user-lists hold slab indices, and each
/// flow caches its resources' slab indices — the component BFS, the
/// freeze bookkeeping, and the peak-egress sums are all direct array
/// indexing with no hashed lookup. Within a component the water-filling
/// rounds run over contiguous parallel arrays (`comp_res_remaining_`,
/// `comp_res_unfrozen_`, `comp_flow_cap_`, ...), so the per-round
/// `delta = min(remaining/unfrozen)` scan and the
/// `remaining -= delta * unfrozen` update are branch-light loops the
/// compiler can vectorize. The arithmetic is bit-identical to
/// progressive filling; see docs/PERFORMANCE.md for the invariants.
class Network : private sim::EndOfTimestampHook {
 public:
  using FlowCallback = std::function<void()>;

  Network(sim::Simulator* sim, const Topology* topology);
  /// Withdraws a pending arrival solve, so the simulator never calls back
  /// into a destroyed network. The simulator must outlive the network.
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Begins transferring `bytes` from `src` to `dst`; `on_complete` fires
  /// (at most once) when the last byte is delivered. Sub-byte flows
  /// complete after one RTT/2 (pure latency); they are tracked and
  /// cancellable like any other flow, and their bytes are metered on
  /// delivery.
  Result<FlowId> StartFlow(NodeId src, NodeId dst, double bytes,
                           FlowCallback on_complete,
                           FlowOptions options = FlowOptions());

  /// Aborts a flow; bytes already delivered stay metered (a cancelled
  /// latency-only flow never delivered, so it meters nothing). Returns
  /// false if the flow already completed.
  bool CancelFlow(FlowId id);

  /// Latency-dominated delivery for small control-plane messages (DHT
  /// RPCs, heartbeats): arrives after RTT/2 plus serialization at the
  /// single-stream rate, without participating in fair-share contention.
  /// Bytes are still metered.
  Status SendMessage(NodeId src, NodeId dst, double bytes,
                     FlowCallback on_delivered);

  /// The one-way delay SendMessage would incur right now.
  Result<double> MessageDelay(NodeId src, NodeId dst, double bytes) const;

  /// Re-reads the topology and recomputes all flow rates (pending
  /// arrivals included). Call after changing a path with
  /// `Topology::SetPath` mid-simulation (live WAN degradation/recovery);
  /// in-flight flows keep their per-flow stream caps but shared path
  /// capacities take effect immediately.
  void Refresh();

  /// Current fair-share rate of a flow in bytes/sec (0 if unknown). Not
  /// const: flows started at this timestamp are solved first, so the
  /// answer is the rate as of the end of the timestamp so far.
  double FlowRate(FlowId id);

  /// Number of flows in flight (fair-share and latency-only).
  size_t active_flows() const {
    return live_flows_ + latency_flows_.size();
  }

  // --- Traffic accounting (all cumulative since construction/reset) ---
  //
  // Byte meters read as of the last network event, not `Now()`. A byte
  // query first settles every live flow up to that event (`SettleMeters`,
  // at most one O(live flows) pass per event timestamp), so the queries
  // are not const.

  /// Bytes delivered from node `src` to node `dst`.
  double BytesBetweenNodes(NodeId src, NodeId dst);
  /// Bytes delivered from any node in `src` to any node in `dst`
  /// (directional; includes src == dst for intra-site traffic). A single
  /// lookup in a site-pair aggregate maintained alongside the node-pair
  /// meters on every delivery.
  double BytesBetweenSites(SiteId src, SiteId dst);
  /// Total bytes sent by a node.
  double NodeEgressBytes(NodeId node);
  /// Total bytes received by a node.
  double NodeIngressBytes(NodeId node);
  /// Highest instantaneous egress rate the node has reached (bytes/sec),
  /// pending arrivals solved first.
  double NodePeakEgressRate(NodeId node);

  /// Books every live flow's bytes up to the last network event into the
  /// meters and the `net.bytes_delivered` telemetry counters. The byte
  /// queries and `ResetMeters` call it themselves; call it directly
  /// before reading telemetry totals without a meter query (end of run).
  void SettleMeters();

  /// Zeroes all meters (peaks included); in-flight flows keep running.
  /// Bytes delivered before the last network event stay on the old side
  /// of the reset.
  void ResetMeters();

  const Topology& topology() const { return *topology_; }
  sim::Simulator& simulator() { return *sim_; }

 private:
  // Shared-resource identifiers for the fair-share solver.
  enum class ResourceKind : uint8_t { kEgress, kIngress, kPath };
  struct ResourceKey {
    ResourceKind kind;
    uint64_t a;  // node id or src site.
    uint64_t b;  // unused or dst site.
    bool operator==(const ResourceKey& o) const {
      return kind == o.kind && a == o.a && b == o.b;
    }
  };
  struct ResourceKeyHash {
    size_t operator()(const ResourceKey& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.kind) << 62) ^
                                   (k.a * 0x9e3779b97f4a7c15ULL) ^ k.b);
    }
  };

  /// Index into `flow_slab_` / `res_slab_`. Slab entries never move, so
  /// slots are stable for an entry's whole lifetime and safe to cache.
  using FlowSlot = uint32_t;
  using ResSlot = uint32_t;

  struct Flow {
    FlowId id = 0;  // 0 marks a free slab slot.
    NodeId src = 0;
    NodeId dst = 0;
    SiteId src_site = 0;
    SiteId dst_site = 0;
    double started_sec = 0;
    double total_bytes = 0;
    double remaining_bytes = 0;  // As of `settled_sec`.
    double rate_bps = 0;       // Current fair share.
    double settled_sec = 0;    // Progress is booked up to this time.
    double stream_cap_bps = 0; // min(path, streams * window/RTT, app cap).
    // Set by the last solve of this flow's component when that component
    // is pinned (`ComponentPinned`): removing the flow then needs no
    // re-solve. A new flow starts unpinned and is solved before any
    // removal reads the bit.
    bool pinned = false;
    FlowCallback on_complete;
    sim::EventId completion_event = 0;
    bool has_completion_event = false;
    // Resource keys this flow contends on, fixed at StartFlow (NICs and,
    // cross-site, the directed inter-site path), plus the resources'
    // slab slots — valid as long as the flow lives, because a resource
    // outlives its last user.
    ResourceKey keys[3];
    ResSlot res_slots[3];
    int num_keys = 0;
  };

  /// Persistent per-resource state: the capacity snapshot and the live
  /// flows contending on it (by flow slab slot). Updated on flow
  /// add/remove; capacities are re-read from the topology by `Refresh`.
  struct Resource {
    ResourceKey key{ResourceKind::kEgress, 0, 0};
    double capacity_bps = 0;
    bool live = false;  // False marks a free slab slot.
    std::vector<FlowSlot> flows;
  };

  // A sub-epsilon transfer riding pure latency: no fair-share state, just
  // a cancellable delivery event whose bytes are metered on arrival.
  struct LatencyFlow {
    NodeId src = 0;
    NodeId dst = 0;
    double started_sec = 0;
    double bytes = 0;
    FlowCallback on_complete;
    sim::EventId completion_event = 0;
  };

  /// Takes a flow slab slot from the free list (growing the slab and its
  /// parallel mark/position arrays together when empty).
  FlowSlot AllocFlowSlot();
  /// Clears the slot (id=0 releases the callback) and recycles it.
  void FreeFlowSlot(FlowSlot slot);
  ResSlot AllocResSlot();
  void FreeResSlot(ResSlot slot);

  /// Marks `Now()` as the time of the latest network event: the point
  /// meter queries settle up to. O(1) — no flow is touched.
  void Progress();
  /// Advances one flow from its `settled_sec` to `now` at its current
  /// rate and books the delivered bytes into the meters. Every flow must
  /// be settled before its `rate_bps` changes or it leaves the network.
  void SettleFlow(Flow& flow, double now);
  /// Registers the flow at `slot` in the resource table, creating
  /// resources with the given capacity snapshots on first use, and caches
  /// the resource slots on the flow.
  void AddFlowToResources(FlowSlot slot, const double* caps);
  /// Unregisters the flow at `slot`; resources left without users are
  /// dropped.
  void RemoveFlowFromResources(FlowSlot slot);
  void OnEndOfTimestamp() override { FlushArrivals(); }
  /// Solves each component holding a pending arrival once, in arrival
  /// order, and clears the list, withdrawing the end-of-timestamp hook
  /// when it has not run yet. Removals call it before touching the
  /// resource table, queries before reading rates.
  void FlushArrivals();
  /// Re-solves the max-min fair allocation for the connected component of
  /// flows reachable from the `seeds` resource slots (flows transitively
  /// sharing a resource); freed seeds are skipped. Rates outside the
  /// component are untouched, and completion events inside it are only
  /// rescheduled when the flow's rate moved by more than epsilon.
  void SolveComponent(const ResSlot* seeds, int num_seeds);
  /// Whether the component `SolveComponent` just solved is pinned: every
  /// removal from it, and from what is left after one, solves to the
  /// same rates bit for bit. Reads the solve's scratch arrays.
  bool ComponentPinned() const;
  /// Unregisters and frees a removed flow, then re-solves what it leaves
  /// behind unless its component was pinned (`net.removals_pinned`
  /// counts the skipped solves).
  void RemoveFlow(FlowSlot slot);
  /// Fires when the flow occupying `slot` is expected to finish; a no-op
  /// once the slot's generation has moved past `generation` (the flow is
  /// gone and the slot may hold another).
  void OnFlowDeadline(FlowSlot slot, uint32_t generation);
  void FinishFlow(FlowSlot slot);
  /// Delivers a latency-only flow: meters its bytes and fires the callback.
  void FinishLatencyFlow(FlowId id);
  void MeterBytes(NodeId src, NodeId dst, double bytes);
  void MeterBytesSited(NodeId src, NodeId dst, SiteId src_site,
                       SiteId dst_site, double bytes);
  /// Telemetry handle for the per-zone-pair byte counter of a site pair.
  telemetry::CounterHandle& ZoneBytesCounter(SiteId src_site,
                                             SiteId dst_site);

  sim::Simulator* sim_;
  const Topology* topology_;
  FlowId next_flow_id_ = 1;
  double last_update_ = 0.0;
  // `last_update_` value of the last SettleMeters pass: all live flows
  // are settled up to it.
  double meters_settled_sec_ = 0.0;
  // Time of the previous component solve (`net.solves_same_ts`); only
  // tracked while telemetry is on.
  double last_solve_sec_ = -std::numeric_limits<double>::infinity();

  // --- SoA slabs -------------------------------------------------------
  // Flows and resources live in flat slabs addressed by slot; the hash
  // maps exist only at the API boundary (FlowId -> slot) and for resource
  // creation (key -> slot). Hot paths never hash.
  std::vector<Flow> flow_slab_;
  std::vector<FlowSlot> free_flow_slots_;
  // Per-slot occupancy generation, bumped when a slot is freed. A
  // deadline event carries its flow's (slot, generation) — 8 bytes
  // beside `this`, so the closure fits std::function's inline buffer.
  std::vector<uint32_t> flow_generation_;
  size_t live_flows_ = 0;
  std::vector<Resource> res_slab_;
  std::vector<ResSlot> free_res_slots_;
  std::unordered_map<FlowId, FlowSlot> flow_index_;
  std::unordered_map<ResourceKey, ResSlot, ResourceKeyHash> res_index_;

  // Slab-parallel solver bookkeeping: component-visit epochs and the
  // slot's position in the current component's dense arrays. Kept out of
  // the structs so the BFS touches tight arrays, not 100+-byte records.
  std::vector<uint64_t> flow_mark_;
  std::vector<uint32_t> flow_comp_pos_;
  std::vector<uint64_t> res_mark_;
  std::vector<uint32_t> res_comp_pos_;
  uint64_t solve_epoch_ = 0;
  // Flows started since the last solve of their component, in start
  // order. The first arrival requests the end-of-timestamp hook; every
  // path that empties the list runs or withdraws it.
  std::vector<FlowSlot> pending_arrivals_;

  // Per-component SoA scratch (cleared per solve, capacity retained).
  // Flow arrays are parallel and sorted by (stream cap, flow id);
  // resource arrays are parallel and compacted in place as resources
  // drain. `comp_res_unfrozen_` holds small integer counts as doubles so
  // the water-level update multiplies without conversion.
  std::vector<FlowSlot> comp_flow_slots_;
  std::vector<double> comp_flow_cap_;
  std::vector<double> comp_flow_rate_;
  std::vector<uint8_t> comp_flow_frozen_;
  std::vector<ResSlot> comp_res_slots_;
  std::vector<double> comp_res_remaining_;
  std::vector<double> comp_res_unfrozen_;

  std::unordered_map<FlowId, LatencyFlow> latency_flows_;

  std::unordered_map<uint64_t, double> bytes_by_node_pair_;
  std::unordered_map<uint64_t, double> bytes_by_site_pair_;
  std::vector<double> node_egress_bytes_;
  std::vector<double> node_ingress_bytes_;
  std::vector<double> node_peak_egress_;

  telemetry::CounterHandle bytes_delivered_counter_{"net.bytes_delivered"};
  telemetry::CounterHandle flows_started_counter_{"net.flows_started"};
  telemetry::CounterHandle flows_cancelled_counter_{"net.flows_cancelled"};
  telemetry::CounterHandle flows_completed_counter_{"net.flows_completed"};
  telemetry::CounterHandle messages_counter_{"net.messages"};
  // Deterministic work counters: the simulator's own cost, not the
  // simulated world's (docs/OBSERVABILITY.md).
  telemetry::CounterHandle solves_counter_{"net.solves"};
  telemetry::CounterHandle solves_same_ts_counter_{"net.solves_same_ts"};
  telemetry::CounterHandle flows_settled_counter_{"net.flows_settled"};
  telemetry::CounterHandle removals_pinned_counter_{"net.removals_pinned"};
  std::unordered_map<uint64_t, telemetry::CounterHandle> zone_counters_;
};

}  // namespace hivesim::net

#endif  // HIVESIM_NET_NETWORK_H_

#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/strings.h"

namespace hivesim::net {

namespace {
// Flows are megabytes; anything below one byte is floating-point residue.
constexpr double kEpsilonBytes = 1.0;
constexpr double kEpsilonRate = 1e-9;

// Limits of a pinned component (Network::ComponentPinned). The cap ratio
// and the flow count keep the rounding of any egress sum over its flows
// below 1/16 of the smallest cap; the distinct-cap limit bounds the
// pairwise level-step check outside a 2x band.
constexpr size_t kMaxPinnedFlows = size_t{1} << 14;
constexpr double kMaxPinnedCapRatio = 0x1p20;
constexpr int kMaxPinnedDistinctCaps = 32;
// Each resource's summed caps stay at or below this fraction of its
// capacity: far more slack than the solver's rounding can eat.
constexpr double kPinnedSlack = 1 - 0x1p-20;

uint64_t NodePairKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

uint64_t SitePairKey(SiteId src, SiteId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}
}  // namespace

Network::Network(sim::Simulator* sim, const Topology* topology)
    : sim_(sim), topology_(topology) {
  node_egress_bytes_.resize(topology_->num_nodes(), 0.0);
  node_ingress_bytes_.resize(topology_->num_nodes(), 0.0);
  node_peak_egress_.resize(topology_->num_nodes(), 0.0);
}

Network::~Network() {
  if (!pending_arrivals_.empty()) sim_->WithdrawEndOfTimestamp(this);
}

Network::FlowSlot Network::AllocFlowSlot() {
  ++live_flows_;
  if (!free_flow_slots_.empty()) {
    const FlowSlot slot = free_flow_slots_.back();
    free_flow_slots_.pop_back();
    return slot;
  }
  const FlowSlot slot = static_cast<FlowSlot>(flow_slab_.size());
  flow_slab_.emplace_back();
  flow_generation_.push_back(0);
  flow_mark_.push_back(0);
  flow_comp_pos_.push_back(0);
  return slot;
}

void Network::FreeFlowSlot(FlowSlot slot) {
  Flow& flow = flow_slab_[slot];
  flow.id = 0;
  flow.on_complete = nullptr;
  flow.has_completion_event = false;
  flow.num_keys = 0;
  ++flow_generation_[slot];
  free_flow_slots_.push_back(slot);
  --live_flows_;
}

Network::ResSlot Network::AllocResSlot() {
  if (!free_res_slots_.empty()) {
    const ResSlot slot = free_res_slots_.back();
    free_res_slots_.pop_back();
    return slot;
  }
  const ResSlot slot = static_cast<ResSlot>(res_slab_.size());
  res_slab_.emplace_back();
  res_mark_.push_back(0);
  res_comp_pos_.push_back(0);
  return slot;
}

void Network::FreeResSlot(ResSlot slot) {
  Resource& res = res_slab_[slot];
  res.live = false;
  res.flows.clear();  // Keeps capacity for the slot's next occupant.
  free_res_slots_.push_back(slot);
}

Result<FlowId> Network::StartFlow(NodeId src, NodeId dst, double bytes,
                                  FlowCallback on_complete,
                                  FlowOptions options) {
  if (src >= topology_->num_nodes() || dst >= topology_->num_nodes()) {
    return Status::InvalidArgument("flow endpoints out of range");
  }
  if (bytes < 0) {
    return Status::InvalidArgument("negative flow size");
  }
  Path path;
  HIVESIM_ASSIGN_OR_RETURN(path, topology_->PathBetweenNodes(src, dst));

  // Grow meters lazily if nodes were added after construction.
  if (node_egress_bytes_.size() < topology_->num_nodes()) {
    node_egress_bytes_.resize(topology_->num_nodes(), 0.0);
    node_ingress_bytes_.resize(topology_->num_nodes(), 0.0);
    node_peak_egress_.resize(topology_->num_nodes(), 0.0);
  }

  const FlowId id = next_flow_id_++;
  if (bytes <= kEpsilonBytes) {
    // Latency-only delivery. The flow is tracked so it can be cancelled
    // (the completion must not fire after CancelFlow), and its payload is
    // metered on delivery like any other traffic.
    LatencyFlow lf;
    lf.src = src;
    lf.dst = dst;
    lf.started_sec = sim_->Now();
    lf.bytes = bytes;
    lf.on_complete = std::move(on_complete);
    lf.completion_event = sim_->Schedule(
        path.rtt_sec / 2.0, [this, id] { FinishLatencyFlow(id); });
    latency_flows_.emplace(id, std::move(lf));
    flows_started_counter_.Add();
    return id;
  }

  Progress();

  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.src_site = topology_->SiteOf(src);
  flow.dst_site = topology_->SiteOf(dst);
  flow.started_sec = sim_->Now();
  flow.total_bytes = bytes;
  flow.remaining_bytes = bytes;
  flow.rate_bps = 0;
  flow.settled_sec = flow.started_sec;
  flow.on_complete = std::move(on_complete);
  flows_started_counter_.Add();

  // Per-flow ceiling: `streams` TCP streams, each limited by the smaller
  // of the two endpoints' windows over the path RTT (the send window and
  // the receive window both bound bytes in flight — the paper's RTT-window
  // model for asymmetric endpoints) and any per-stream pacing on the
  // path; the aggregate never exceeds the physical path or the
  // application cap.
  const int streams = std::max(1, options.streams);
  double per_stream = std::numeric_limits<double>::infinity();
  if (path.rtt_sec > 0) {
    const double window =
        std::min(topology_->ConfigOf(src).tcp_window_bytes,
                 topology_->ConfigOf(dst).tcp_window_bytes);
    per_stream = window / path.rtt_sec;
  }
  if (path.single_stream_bps > 0) {
    per_stream = std::min(per_stream, path.single_stream_bps);
  }
  double cap = std::min(path.bandwidth_bps, streams * per_stream);
  cap = std::min(cap, options.app_rate_cap_bps);
  flow.stream_cap_bps = cap;

  // The flow's shared resources, fixed for its lifetime: the endpoint
  // NICs and, cross-site, the directed inter-site path. Capacities are
  // snapshotted when a resource first appears (Refresh re-reads them).
  double caps[3];
  int n = 0;
  flow.keys[n] = {ResourceKind::kEgress, flow.src, 0};
  caps[n++] = topology_->EgressCap(flow.src);
  flow.keys[n] = {ResourceKind::kIngress, flow.dst, 0};
  caps[n++] = topology_->IngressCap(flow.dst);
  if (flow.src_site != flow.dst_site) {
    // Cross-site flows contend on the directed inter-site path. Intra-
    // site traffic rides a non-blocking fabric: the per-VM-pair rate is
    // already folded into the flow's stream cap, and only the NICs are
    // shared resources.
    flow.keys[n] = {ResourceKind::kPath, flow.src_site, flow.dst_site};
    caps[n++] = path.bandwidth_bps;
  }
  flow.num_keys = n;

  const FlowSlot slot = AllocFlowSlot();
  flow_slab_[slot] = std::move(flow);
  flow_index_.emplace(id, slot);
  AddFlowToResources(slot, caps);
  // Solved at the end of the timestamp, together with every other flow
  // that joins its component by then (FlushArrivals).
  if (pending_arrivals_.empty()) sim_->DeferToEndOfTimestamp(this);
  pending_arrivals_.push_back(slot);
  return id;
}

bool Network::CancelFlow(FlowId id) {
  auto lit = latency_flows_.find(id);
  if (lit != latency_flows_.end()) {
    sim_->Cancel(lit->second.completion_event);
    if (telemetry::Enabled()) {
      flows_cancelled_counter_.Add();
      telemetry::Instant(
          sim_->Now(), "net",
          StrFormat("flow-cancel %u->%u", lit->second.src, lit->second.dst),
          StrFormat(
              "{\"src_zone\":\"%s\",\"dst_zone\":\"%s\"}",
              topology_->site(topology_->SiteOf(lit->second.src)).name.c_str(),
              topology_->site(topology_->SiteOf(lit->second.dst)).name.c_str()));
    }
    latency_flows_.erase(lit);
    return true;
  }
  auto it = flow_index_.find(id);
  if (it == flow_index_.end()) return false;
  const FlowSlot slot = it->second;
  // Solves the flow's component if it gained arrivals, so the pinned bit
  // read by RemoveFlow is that of the component the flow leaves.
  FlushArrivals();
  Progress();
  Flow& flow = flow_slab_[slot];
  SettleFlow(flow, sim_->Now());
  if (flow.has_completion_event) {
    sim_->Cancel(flow.completion_event);
  }
  if (telemetry::Enabled()) {
    flows_cancelled_counter_.Add();
    telemetry::Instant(
        sim_->Now(), "net",
        StrFormat("flow-cancel %u->%u", flow.src, flow.dst),
        StrFormat(
            "{\"delivered_bytes\":%.0f,\"src_zone\":\"%s\","
            "\"dst_zone\":\"%s\"}",
            flow.total_bytes - flow.remaining_bytes,
            topology_->site(flow.src_site).name.c_str(),
            topology_->site(flow.dst_site).name.c_str()));
  }
  RemoveFlow(slot);
  return true;
}

Result<double> Network::MessageDelay(NodeId src, NodeId dst,
                                     double bytes) const {
  Path path;
  HIVESIM_ASSIGN_OR_RETURN(path, topology_->PathBetweenNodes(src, dst));
  double cap = 0;
  HIVESIM_ASSIGN_OR_RETURN(cap, topology_->SingleStreamCap(src, dst));
  const double serialize = cap > 0 ? bytes / cap : 0.0;
  return path.rtt_sec / 2.0 + serialize;
}

Status Network::SendMessage(NodeId src, NodeId dst, double bytes,
                            FlowCallback on_delivered) {
  double delay = 0;
  HIVESIM_ASSIGN_OR_RETURN(delay, MessageDelay(src, dst, bytes));
  messages_counter_.Add();
  // Metered on delivery, consistent with flow metering: a run stopped
  // mid-flight must not book undelivered control-plane bytes as egress.
  sim_->Schedule(delay,
                 [this, src, dst, bytes, cb = std::move(on_delivered)] {
                   MeterBytes(src, dst, bytes);
                   if (cb) cb();
                 });
  return Status::OK();
}

void Network::Refresh() {
  Progress();
  // The re-solve below covers every component, pending arrivals' too.
  if (!pending_arrivals_.empty()) {
    sim_->WithdrawEndOfTimestamp(this);
    pending_arrivals_.clear();
  }
  // Topology paths may have changed (WAN degradation/recovery): re-read
  // every resource's capacity, then re-solve all components. Flows keep
  // their per-flow stream caps by contract. Both passes walk the slabs in
  // slot order — deterministic, and each capacity update is independent.
  for (Resource& res : res_slab_) {
    if (!res.live) continue;
    switch (res.key.kind) {
      case ResourceKind::kEgress:
        res.capacity_bps =
            topology_->EgressCap(static_cast<NodeId>(res.key.a));
        break;
      case ResourceKind::kIngress:
        res.capacity_bps =
            topology_->IngressCap(static_cast<NodeId>(res.key.a));
        break;
      case ResourceKind::kPath: {
        auto path = topology_->PathBetween(static_cast<SiteId>(res.key.a),
                                           static_cast<SiteId>(res.key.b));
        res.capacity_bps = path.ok() ? path->bandwidth_bps : 0.0;
        break;
      }
    }
  }
  const uint64_t already_solved = solve_epoch_;
  for (FlowSlot slot = 0; slot < flow_slab_.size(); ++slot) {
    const Flow& flow = flow_slab_[slot];
    if (flow.id == 0) continue;
    if (flow_mark_[slot] > already_solved) {
      continue;  // Covered by a prior component.
    }
    SolveComponent(flow.res_slots, flow.num_keys);
  }
}

double Network::FlowRate(FlowId id) {
  FlushArrivals();
  auto it = flow_index_.find(id);
  return it == flow_index_.end() ? 0.0 : flow_slab_[it->second].rate_bps;
}

void Network::Progress() { last_update_ = sim_->Now(); }

void Network::SettleFlow(Flow& flow, double now) {
  const double dt = now - flow.settled_sec;
  if (dt <= 0) return;
  flow.settled_sec = now;
  flows_settled_counter_.Add();
  const double moved = std::min(flow.remaining_bytes, flow.rate_bps * dt);
  if (moved > 0) {
    flow.remaining_bytes -= moved;
    MeterBytesSited(flow.src, flow.dst, flow.src_site, flow.dst_site, moved);
  }
}

void Network::SettleMeters() {
  if (meters_settled_sec_ == last_update_) return;
  meters_settled_sec_ = last_update_;
  // Slot order, like every other slab walk: identically seeded runs
  // book the same additions in the same order.
  for (Flow& flow : flow_slab_) {
    if (flow.id != 0) SettleFlow(flow, last_update_);
  }
}

void Network::AddFlowToResources(FlowSlot slot, const double* caps) {
  Flow& flow = flow_slab_[slot];
  for (int i = 0; i < flow.num_keys; ++i) {
    auto [it, inserted] = res_index_.try_emplace(flow.keys[i], 0);
    if (inserted) {
      const ResSlot rs = AllocResSlot();
      it->second = rs;
      Resource& res = res_slab_[rs];
      res.key = flow.keys[i];
      res.capacity_bps = caps[i];
      res.live = true;
    }
    const ResSlot rs = it->second;
    res_slab_[rs].flows.push_back(slot);
    flow.res_slots[i] = rs;
  }
}

void Network::RemoveFlowFromResources(FlowSlot slot) {
  const Flow& flow = flow_slab_[slot];
  for (int i = 0; i < flow.num_keys; ++i) {
    const ResSlot rs = flow.res_slots[i];
    std::vector<FlowSlot>& users = res_slab_[rs].flows;
    for (size_t j = 0; j < users.size(); ++j) {
      if (users[j] == slot) {
        users[j] = users.back();
        users.pop_back();
        break;
      }
    }
    if (users.empty()) {
      res_index_.erase(flow.keys[i]);
      FreeResSlot(rs);
    }
  }
}

void Network::FlushArrivals() {
  if (pending_arrivals_.empty()) return;
  sim_->WithdrawEndOfTimestamp(this);  // A no-op when called from the hook.
  // Every solve below takes an epoch above `flushed` and stamps it on the
  // flows it visits; flow marks are never rewritten (unlike resource
  // marks, which the peak-egress pass moves to `epoch - 1`). A mark above
  // `flushed` therefore means "already solved with an earlier arrival".
  const uint64_t flushed = solve_epoch_;
  for (const FlowSlot slot : pending_arrivals_) {
    if (flow_mark_[slot] > flushed) continue;
    const Flow& flow = flow_slab_[slot];
    SolveComponent(flow.res_slots, flow.num_keys);
  }
  pending_arrivals_.clear();
}

void Network::SolveComponent(const ResSlot* seeds, int num_seeds) {
  // --- Gather the dirty component: BFS over the bipartite flow/resource
  // sharing graph starting from the seed resources. Every flow of every
  // visited resource joins, so by closure a resource's unfrozen count is
  // simply its user count. No hash lookup: the seeds are the changed
  // flow's cached resource slots, and the BFS walks slab indices
  // (resource user lists and per-flow cached slots).
  const uint64_t epoch = ++solve_epoch_;
  comp_flow_slots_.clear();
  comp_res_slots_.clear();
  size_t scan = 0;
  for (int i = 0; i < num_seeds; ++i) {
    const ResSlot rs = seeds[i];
    // A removal frees the resources it left without users; nothing has
    // been allocated since, so a freed seed is still marked free.
    if (!res_slab_[rs].live || res_mark_[rs] == epoch) continue;
    res_mark_[rs] = epoch;
    comp_res_slots_.push_back(rs);
  }
  while (scan < comp_res_slots_.size()) {
    const ResSlot rs = comp_res_slots_[scan++];
    for (const FlowSlot fs : res_slab_[rs].flows) {
      if (flow_mark_[fs] == epoch) continue;
      flow_mark_[fs] = epoch;
      comp_flow_slots_.push_back(fs);
      const Flow& flow = flow_slab_[fs];
      for (int i = 0; i < flow.num_keys; ++i) {
        const ResSlot other = flow.res_slots[i];
        if (res_mark_[other] == epoch) continue;
        res_mark_[other] = epoch;
        comp_res_slots_.push_back(other);
      }
    }
  }
  if (comp_flow_slots_.empty()) return;
  const double now = sim_->Now();
  if (telemetry::Enabled()) {
    solves_counter_.Add();
    if (now == last_solve_sec_) solves_same_ts_counter_.Add();
    last_solve_sec_ = now;
    telemetry::Observe("net.component_flows",
                       static_cast<double>(comp_flow_slots_.size()));
  }

  // --- Water-filling over dense per-component arrays. All unfrozen flows
  // always hold the same allocation (the water level L), so the
  // progressive-filling round structure collapses: the binding per-flow
  // cap each round is the smallest cap among unfrozen flows — a
  // sorted-by-cap cursor instead of an O(F) scan — and cap-freezes are a
  // prefix pop. Rounds still freeze at least one flow each, and resources
  // are only touched while they have unfrozen users, so a solve is
  // O(F log F + sum of active resource lists) instead of the old O(F^2)
  // full-fleet iteration. The per-round state lives in parallel arrays
  // (remaining/unfrozen per resource, cap/rate/frozen per flow) so the
  // delta scan and the level update are contiguous, branch-light loops;
  // the arithmetic is unchanged (see docs/PERFORMANCE.md).
  std::sort(comp_flow_slots_.begin(), comp_flow_slots_.end(),
            [this](FlowSlot a, FlowSlot b) {
              const Flow& fa = flow_slab_[a];
              const Flow& fb = flow_slab_[b];
              if (fa.stream_cap_bps != fb.stream_cap_bps) {
                return fa.stream_cap_bps < fb.stream_cap_bps;
              }
              return fa.id < fb.id;  // Deterministic tie-break.
            });

  const size_t num_flows = comp_flow_slots_.size();
  const size_t num_res = comp_res_slots_.size();
  comp_flow_cap_.resize(num_flows);
  comp_flow_rate_.assign(num_flows, 0.0);
  comp_flow_frozen_.assign(num_flows, 0);
  comp_res_remaining_.resize(num_res);
  comp_res_unfrozen_.resize(num_res);
  for (size_t i = 0; i < num_flows; ++i) {
    const FlowSlot fs = comp_flow_slots_[i];
    flow_comp_pos_[fs] = static_cast<uint32_t>(i);
    comp_flow_cap_[i] = flow_slab_[fs].stream_cap_bps;
  }
  for (size_t j = 0; j < num_res; ++j) {
    const ResSlot rs = comp_res_slots_[j];
    res_comp_pos_[rs] = static_cast<uint32_t>(j);
    comp_res_remaining_[j] = res_slab_[rs].capacity_bps;
    // Small integer counts held as doubles: exact, and the level update
    // multiplies without int->double conversion in the loop.
    comp_res_unfrozen_[j] = static_cast<double>(res_slab_[rs].flows.size());
  }

  size_t frozen_count = 0;
  size_t cap_cursor = 0;  // First unfrozen flow in cap order.
  size_t active = num_res;  // Resource arrays are compacted in place.
  double level = 0.0;

  // Freezing flow i at the current level removes it from every resource
  // it uses. A compacted-away resource is never touched here: it had no
  // unfrozen users left, and only unfrozen flows are frozen.
  const auto freeze_flow = [&](size_t i) {
    comp_flow_frozen_[i] = 1;
    comp_flow_rate_[i] = level;
    ++frozen_count;
    const Flow& flow = flow_slab_[comp_flow_slots_[i]];
    for (int k = 0; k < flow.num_keys; ++k) {
      comp_res_unfrozen_[res_comp_pos_[flow.res_slots[k]]] -= 1.0;
    }
  };

  while (frozen_count < num_flows) {
    // The next freeze level: the tightest resource fair share or the
    // smallest unfrozen per-flow cap, whichever binds first. Contiguous
    // scan over the active prefix of the resource arrays.
    double delta = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < active; ++j) {
      const double u = comp_res_unfrozen_[j];
      const double share = comp_res_remaining_[j] / u;
      if (u > 0 && share < delta) delta = share;
    }
    while (cap_cursor < num_flows && comp_flow_frozen_[cap_cursor]) {
      ++cap_cursor;
    }
    if (cap_cursor < num_flows) {
      delta = std::min(delta, comp_flow_cap_[cap_cursor] - level);
    }
    if (!std::isfinite(delta) || delta < 0) delta = 0;

    level += delta;
    for (size_t j = 0; j < active; ++j) {
      comp_res_remaining_[j] -= delta * comp_res_unfrozen_[j];
    }

    // Freeze flows that reached their cap (a prefix in cap order) or sit
    // on a drained resource.
    bool froze_any = false;
    for (size_t i = cap_cursor; i < num_flows; ++i) {
      if (comp_flow_frozen_[i]) continue;
      if (level < comp_flow_cap_[i] - kEpsilonRate) break;
      freeze_flow(i);
      froze_any = true;
    }
    for (size_t j = 0; j < active; ++j) {
      if (comp_res_remaining_[j] > kEpsilonRate) continue;
      for (const FlowSlot fs : res_slab_[comp_res_slots_[j]].flows) {
        const size_t i = flow_comp_pos_[fs];
        if (comp_flow_frozen_[i]) continue;
        freeze_flow(i);
        froze_any = true;
      }
    }

    if (!froze_any) {
      // Numerical safety valve: freeze everything at the current level.
      for (size_t i = 0; i < num_flows; ++i) {
        if (!comp_flow_frozen_[i]) {
          comp_flow_frozen_[i] = 1;
          comp_flow_rate_[i] = level;
          ++frozen_count;
        }
      }
      break;
    }
    // Compact drained resources out of the active prefix, keeping the
    // parallel arrays and the slot->position index in sync. Slots are
    // swapped, not overwritten, so `comp_res_slots_` still lists every
    // resource of the component for ComponentPinned.
    size_t w = 0;
    for (size_t j = 0; j < active; ++j) {
      if (comp_res_unfrozen_[j] <= 0) continue;
      if (w != j) {
        std::swap(comp_res_slots_[w], comp_res_slots_[j]);
        comp_res_remaining_[w] = comp_res_remaining_[j];
        comp_res_unfrozen_[w] = comp_res_unfrozen_[j];
        res_comp_pos_[comp_res_slots_[w]] = static_cast<uint32_t>(w);
      }
      ++w;
    }
    active = w;
  }

  // --- Apply rates in sorted order. A completion event is only touched
  // when the flow's rate actually moved (epsilon-compared): unchanged
  // flows progress linearly, so their already-scheduled deadline stays
  // exact and the kernel sees no cancel/reschedule churn for them. A
  // flow is settled at its old rate only when the new rate's bits
  // differ; the others keep accruing from their settle point. A flow
  // that reaches the deadline computation below is current either way:
  // its rate changed (settled here), it was just started, or its
  // deadline fired (settled by OnFlowDeadline).
  for (size_t i = 0; i < num_flows; ++i) {
    const FlowSlot fs = comp_flow_slots_[i];
    Flow& flow = flow_slab_[fs];
    const double new_rate = comp_flow_rate_[i];
    const bool rate_changed =
        std::fabs(new_rate - flow.rate_bps) > kEpsilonRate;
    if (new_rate != flow.rate_bps) SettleFlow(flow, now);
    flow.rate_bps = new_rate;
    if (flow.has_completion_event) {
      if (!rate_changed) continue;
      sim_->Cancel(flow.completion_event);
      flow.has_completion_event = false;
    }
    if (new_rate > kEpsilonRate) {
      const double eta = flow.remaining_bytes / new_rate;
      const uint32_t generation = flow_generation_[fs];
      auto on_deadline = [this, fs, generation] {
        OnFlowDeadline(fs, generation);
      };
      // Stored inline by std::function: no allocation per deadline.
      static_assert(sizeof(on_deadline) <= 16 &&
                    std::is_trivially_copyable_v<decltype(on_deadline)>);
      flow.completion_event = sim_->Schedule(eta, on_deadline);
      flow.has_completion_event = true;
    }
  }

  // --- Peak egress tracking, fresh sums per sender in the component
  // (senders outside it kept their rates, so their sums are unchanged).
  // Each sender's egress resource is summed once: the first flow to reach
  // it un-marks it for the rest of this pass. keys[0] is always the
  // sender's egress NIC, so its cached slot serves directly.
  for (size_t i = 0; i < num_flows; ++i) {
    const Flow& flow = flow_slab_[comp_flow_slots_[i]];
    const ResSlot rs = flow.res_slots[0];
    if (res_mark_[rs] != epoch) continue;
    res_mark_[rs] = epoch - 1;  // Sum each sender once.
    double rate = 0;
    for (const FlowSlot fs : res_slab_[rs].flows) {
      rate += flow_slab_[fs].rate_bps;
    }
    if (node_peak_egress_.size() <= flow.src) {
      node_peak_egress_.resize(flow.src + 1, 0.0);
    }
    node_peak_egress_[flow.src] =
        std::max(node_peak_egress_[flow.src], rate);
  }

  const bool pinned = ComponentPinned();
  for (const FlowSlot fs : comp_flow_slots_) flow_slab_[fs].pinned = pinned;
}

bool Network::ComponentPinned() const {
  // Why these four conditions make a removal's re-solve a no-op, and why
  // they carry over to the survivors: docs/PERFORMANCE.md ("Pinned
  // components: removals without a re-solve"). Cheapest test first.
  const size_t num_flows = comp_flow_slots_.size();
  // 1. Every flow's rate is its stream cap, bit for bit.
  for (size_t i = 0; i < num_flows; ++i) {
    if (comp_flow_rate_[i] != comp_flow_cap_[i]) return false;
  }
  // 2. A bounded spread of positive caps (sorted ascending) and a bounded
  // component, so every sender's egress sum rounds by far less than its
  // smallest term.
  const double lo = comp_flow_cap_[0];
  const double hi = comp_flow_cap_[num_flows - 1];
  if (num_flows > kMaxPinnedFlows || !(lo > 0) || !std::isfinite(hi) ||
      hi > lo * kMaxPinnedCapRatio) {
    return false;
  }
  // 3. Every level step between two distinct caps lands exactly on the
  // higher one: a + (b - a) == b. Inside a 2x band b - a is exact
  // (Sterbenz); outside it the pairs are checked.
  if (hi > 2 * lo) {
    double distinct[kMaxPinnedDistinctCaps];
    int num_distinct = 0;
    for (size_t i = 0; i < num_flows; ++i) {
      const double cap = comp_flow_cap_[i];
      if (num_distinct > 0 && cap == distinct[num_distinct - 1]) continue;
      if (num_distinct == kMaxPinnedDistinctCaps) return false;
      distinct[num_distinct++] = cap;
    }
    for (int x = 0; x < num_distinct; ++x) {
      for (int y = x + 1; y < num_distinct; ++y) {
        const double a = distinct[x];
        const double b = distinct[y];
        if (a + (b - a) != b) return false;
      }
    }
  }
  // 4. Every resource keeps slack: the caps of its users, summed once,
  // stay below its capacity by a 2^-20 fraction of it.
  for (const ResSlot rs : comp_res_slots_) {
    const Resource& res = res_slab_[rs];
    double caps = 0;
    for (const FlowSlot fs : res.flows) caps += flow_slab_[fs].stream_cap_bps;
    if (!(caps <= res.capacity_bps * kPinnedSlack)) return false;
  }
  return true;
}

void Network::OnFlowDeadline(FlowSlot slot, uint32_t generation) {
  if (flow_generation_[slot] != generation) return;
  Flow& flow = flow_slab_[slot];
  flow.has_completion_event = false;
  Progress();
  SettleFlow(flow, sim_->Now());
  // Done when the payload is delivered up to floating-point residue, or
  // when the residue is so small that rescheduling would not advance the
  // simulation clock (which would loop forever).
  const double eta =
      flow.rate_bps > kEpsilonRate ? flow.remaining_bytes / flow.rate_bps
                                   : std::numeric_limits<double>::infinity();
  const double now = sim_->Now();
  const bool clock_would_stall =
      std::isfinite(eta) && now + eta <= now;
  if (flow.remaining_bytes <= kEpsilonBytes || clock_would_stall) {
    FinishFlow(slot);
  } else {
    // Sub-epsilon rate drift left residue; re-solving the component
    // schedules this flow a fresh deadline (its event already fired).
    FlushArrivals();
    SolveComponent(flow.res_slots, flow.num_keys);
  }
}

void Network::FinishFlow(FlowSlot slot) {
  Flow& flow = flow_slab_[slot];
  if (flow.id == 0) return;
  FlushArrivals();
  // A flow finishing at a timestamp where its component gained arrivals
  // gets a fresh deadline from that flush; it must not fire.
  if (flow.has_completion_event) sim_->Cancel(flow.completion_event);
  if (telemetry::Enabled()) {
    flows_completed_counter_.Add();
    // Zone identity rides in the span args so the critical-path analyzer
    // (telemetry/analysis.h) can attribute flow time to WAN links
    // without re-deriving the topology.
    telemetry::Span(
        flow.started_sec, sim_->Now(), "net",
        StrFormat("flow %u->%u", flow.src, flow.dst),
        StrFormat("{\"bytes\":%.0f,\"src_zone\":\"%s\",\"dst_zone\":\"%s\"}",
                  flow.total_bytes, topology_->site(flow.src_site).name.c_str(),
                  topology_->site(flow.dst_site).name.c_str()));
  }
  FlowCallback cb = std::move(flow.on_complete);
  RemoveFlow(slot);
  if (cb) cb();
}

void Network::RemoveFlow(FlowSlot slot) {
  const Flow& flow = flow_slab_[slot];
  ResSlot seed[3];
  std::copy(flow.res_slots, flow.res_slots + flow.num_keys, seed);
  const int num_seed = flow.num_keys;
  const bool pinned = flow.pinned;
  RemoveFlowFromResources(slot);
  flow_index_.erase(flow.id);
  FreeFlowSlot(slot);
  if (!pinned) {
    SolveComponent(seed, num_seed);
    return;
  }
  // The survivors would re-solve to their current rates bit for bit
  // (ComponentPinned), and they stay pinned. Counted only when there are
  // survivors (a seed is still live): without any, the solve would have
  // found an empty component and cost nothing.
  for (int i = 0; i < num_seed; ++i) {
    if (res_slab_[seed[i]].live) {
      removals_pinned_counter_.Add();
      break;
    }
  }
}

void Network::FinishLatencyFlow(FlowId id) {
  auto it = latency_flows_.find(id);
  if (it == latency_flows_.end()) return;
  LatencyFlow lf = std::move(it->second);
  latency_flows_.erase(it);
  if (telemetry::Enabled()) {
    flows_completed_counter_.Add();
    telemetry::Span(
        lf.started_sec, sim_->Now(), "net",
        StrFormat("flow %u->%u", lf.src, lf.dst),
        StrFormat("{\"bytes\":%.0f,\"src_zone\":\"%s\",\"dst_zone\":\"%s\"}",
                  lf.bytes, topology_->site(topology_->SiteOf(lf.src)).name.c_str(),
                  topology_->site(topology_->SiteOf(lf.dst)).name.c_str()));
  }
  if (lf.bytes > 0) MeterBytes(lf.src, lf.dst, lf.bytes);
  if (lf.on_complete) lf.on_complete();
}

telemetry::CounterHandle& Network::ZoneBytesCounter(SiteId src_site,
                                                    SiteId dst_site) {
  const uint64_t key = SitePairKey(src_site, dst_site);
  auto it = zone_counters_.find(key);
  if (it == zone_counters_.end()) {
    it = zone_counters_
             .try_emplace(key,
                          telemetry::LabeledName(
                              "net.bytes_delivered",
                              {{"src_zone", topology_->site(src_site).name},
                               {"dst_zone", topology_->site(dst_site).name}}))
             .first;
  }
  return it->second;
}

void Network::MeterBytes(NodeId src, NodeId dst, double bytes) {
  MeterBytesSited(src, dst, topology_->SiteOf(src), topology_->SiteOf(dst),
                  bytes);
}

void Network::MeterBytesSited(NodeId src, NodeId dst, SiteId src_site,
                              SiteId dst_site, double bytes) {
  // Nodes may be added to the topology after construction.
  const size_t needed = static_cast<size_t>(std::max(src, dst)) + 1;
  if (node_egress_bytes_.size() < needed) {
    node_egress_bytes_.resize(needed, 0.0);
    node_ingress_bytes_.resize(needed, 0.0);
    node_peak_egress_.resize(needed, 0.0);
  }
  bytes_by_node_pair_[NodePairKey(src, dst)] += bytes;
  bytes_by_site_pair_[SitePairKey(src_site, dst_site)] += bytes;
  node_egress_bytes_[src] += bytes;
  node_ingress_bytes_[dst] += bytes;
  if (telemetry::Enabled()) {
    bytes_delivered_counter_.Add(bytes);
    ZoneBytesCounter(src_site, dst_site).Add(bytes);
  }
}

double Network::BytesBetweenNodes(NodeId src, NodeId dst) {
  SettleMeters();
  auto it = bytes_by_node_pair_.find(NodePairKey(src, dst));
  return it == bytes_by_node_pair_.end() ? 0.0 : it->second;
}

double Network::BytesBetweenSites(SiteId src, SiteId dst) {
  SettleMeters();
  auto it = bytes_by_site_pair_.find(SitePairKey(src, dst));
  return it == bytes_by_site_pair_.end() ? 0.0 : it->second;
}

double Network::NodeEgressBytes(NodeId node) {
  SettleMeters();
  return node < node_egress_bytes_.size() ? node_egress_bytes_[node] : 0.0;
}

double Network::NodeIngressBytes(NodeId node) {
  SettleMeters();
  return node < node_ingress_bytes_.size() ? node_ingress_bytes_[node] : 0.0;
}

double Network::NodePeakEgressRate(NodeId node) {
  FlushArrivals();
  return node < node_peak_egress_.size() ? node_peak_egress_[node] : 0.0;
}

void Network::ResetMeters() {
  SettleMeters();  // Bytes before the reset must not leak past it.
  bytes_by_node_pair_.clear();
  bytes_by_site_pair_.clear();
  std::fill(node_egress_bytes_.begin(), node_egress_bytes_.end(), 0.0);
  std::fill(node_ingress_bytes_.begin(), node_ingress_bytes_.end(), 0.0);
  std::fill(node_peak_egress_.begin(), node_peak_egress_.end(), 0.0);
}

}  // namespace hivesim::net

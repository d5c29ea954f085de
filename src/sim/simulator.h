#ifndef HIVESIM_SIM_SIMULATOR_H_
#define HIVESIM_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "telemetry/telemetry.h"

namespace hivesim::sim {

/// Opaque handle to a scheduled event; usable to cancel it. Internally a
/// pool-slot index packed with a generation tag (see `Simulator`), so a
/// handle kept past its event's firing can never alias a recycled slot.
/// Never zero for a real event, so 0 works as a "no event" sentinel.
using EventId = uint64_t;

/// Work a layer batches until every event of the current timestamp has
/// fired (see `Simulator::DeferToEndOfTimestamp`).
class EndOfTimestampHook {
 public:
  /// Called once no event is left due at `Simulator::Now()`, before the
  /// clock advances.
  virtual void OnEndOfTimestamp() = 0;

 protected:
  ~EndOfTimestampHook() = default;
};

/// Deterministic discrete-event simulation kernel.
///
/// All higher layers (network flows, VM lifecycles, training loops) are
/// callback state machines driven by this queue. Two events scheduled for
/// the same timestamp fire in scheduling order (FIFO tie-break), which
/// keeps runs bit-reproducible.
///
/// Events live in a slab pool: each `Schedule` takes a slot from a free
/// list (no per-event heap allocation) and the heap stores plain
/// {when, seq, slot, generation} entries. `Cancel` bumps the slot's
/// generation, which simultaneously invalidates the stale heap entry
/// (detected lazily on pop) and every outstanding `EventId` for that
/// slot — there is no cancellation map to maintain on the hot path.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Registers this simulator as the thread's log-timestamp source, so
  /// HIVESIM_LOG lines emitted while it exists carry `t=<Now()>s`.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds since simulation start.
  double Now() const { return now_; }

  /// Schedules `cb` to run `delay` seconds from now. Negative delays are
  /// clamped to zero (fire at the current time, after already-queued
  /// same-time events).
  EventId Schedule(double delay, Callback cb);

  /// Schedules `cb` at absolute time `when`; times in the past are clamped
  /// to `Now()`.
  EventId ScheduleAt(double when, Callback cb);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool Cancel(EventId id);

  /// Runs a single event. Returns false when the queue is empty.
  bool Step();

  /// Runs until the event queue drains. Dispatches in same-timestamp
  /// cohorts (see `FireCohort`); the observable fire order is identical
  /// to repeated `Step()`.
  void Run();

  /// Runs events with timestamps <= `when`, then advances the clock to
  /// `when` even if no event fired exactly there.
  void RunUntil(double when);

  /// Requests one `hook->OnEndOfTimestamp()` call after the last event
  /// due at `Now()` has fired (events the hooks themselves schedule at
  /// `Now()` included) and before the clock advances, `Run`/`RunUntil`
  /// return, or `Step` fires a later event. The call is not an event: it
  /// never counts in `events_fired()`. Hooks run in request order; a
  /// hook must not be requested again while it is still pending.
  void DeferToEndOfTimestamp(EndOfTimestampHook* hook);
  /// Withdraws a pending request (no-op when `hook` is not pending). The
  /// owner of a pending hook must call this before the hook dies.
  void WithdrawEndOfTimestamp(EndOfTimestampHook* hook);

  /// Number of events that have fired so far.
  uint64_t events_fired() const { return events_fired_; }
  /// Number of events currently pending. Cancelled events leave this
  /// count immediately, even while their stale heap entries are still
  /// queued awaiting lazy removal.
  size_t pending() const { return live_events_; }

 private:
  // An EventId packs the pool-slot index (high 32 bits) with the slot's
  // generation at scheduling time (low 32 bits). Firing or cancelling
  // bumps the generation, so stale ids and stale heap entries both fail
  // the one-compare validity check. Generations skip 0 on wrap, which
  // keeps every valid id nonzero.
  static constexpr EventId PackId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }
  static constexpr uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>(id >> 32);
  }
  static constexpr uint32_t GenerationOf(EventId id) {
    return static_cast<uint32_t>(id);
  }

  struct Slot {
    Callback cb;
    uint32_t generation = 1;
  };

  struct QueueEntry {
    double when;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };

  /// Three-tier event queue. Two *near* tiers hold every entry with
  /// `when <= near_bound_`: a small 4-ary min-heap and a sorted run (a
  /// vector strictly increasing in (when, seq), consumed from the front
  /// by an index). An unsorted staging vector holds everything farther
  /// out (`when > near_bound_`, strictly). Scheduling past the horizon —
  /// or while both near tiers are drained, when there is nothing to
  /// order against — is an O(1) append: no sift, no heap growth, and a
  /// bulk load (schedule N, then run) stages everything. When the near
  /// tiers drain, the next `Peek()` lazily runs `Refill`: one scan of the
  /// staging vector picks the next window bound from the observed key
  /// range (a pure function of queue content, so replays see identical
  /// behavior) and migrates the window, dropping entries whose slot
  /// generation went stale while they staged, so mass-cancelled events
  /// never pay a heap operation at all.
  ///
  /// The migration walks staging in its own order, which is seq order
  /// (staging only appends, and the partition is stable). A live entry
  /// joins the run when it continues the run's last timestamp, or opens
  /// a later one that the next staged entry shares; every other entry
  /// takes the heap. A cohort scheduled in bulk — thousands of
  /// same-time timers — therefore lands in the run and pops with one
  /// index increment instead of a sift-down through a cohort-sized
  /// heap, while stray timers interleaved with it, and randomly timed
  /// entries generally, go to the heap and leave the run alone. The
  /// window is deliberately not sorted: a sort of every window costs as
  /// much as the heap pops it would save.
  ///
  /// Pop order is untouched by the tiers. Whenever a near tier is
  /// non-empty (the only state in which the minimum is read), every
  /// staged entry is strictly later than `near_bound_` and every near
  /// entry is at or before it, and the minimum is the smaller (when,
  /// seq) of the run front and the heap top. A refill migrates a `when`
  /// either entirely or not at all. (when, seq) is a strict total order,
  /// so any conforming queue pops the exact same sequence — replay order
  /// and goldens cannot change.
  ///
  /// The heap itself is 4-ary instead of the binary layout
  /// std::priority_queue uses: half the tree height, all four children
  /// in one-and-a-half cache lines (QueueEntry is 24 bytes), hole-based
  /// sifting with one copy per level.
  class EventHeap {
   public:
    /// Wires up the slot pool so stale staged entries can be dropped at
    /// migration time (vector address is stable even as it reallocates).
    void BindSlots(const std::vector<Slot>* slots) { slots_ = slots; }
    /// The minimum entry, or null when the queue is empty. Non-const:
    /// the refill is lazy (pushes into drained near tiers stage
    /// unsorted, and staging may hold only stale entries), so peeking
    /// may first migrate the next window. Valid until the next push or
    /// pop.
    const QueueEntry* Peek() {
      if (run_next_ == run_end_) {
        min_in_run_ = false;
        if (!heap_.empty()) return &heap_.front();
        return PeekAfterRefill();
      }
      min_in_run_ = heap_.empty() || Earlier(*run_next_, heap_.front());
      return min_in_run_ ? run_next_ : &heap_.front();
    }
    void push(const QueueEntry& entry);
    /// Removes the entry the last `Peek` returned; no push may come
    /// between the two.
    void pop() {
      if (min_in_run_) {
        ++run_next_;
      } else {
        PopHeap();
      }
    }

   private:
    static constexpr size_t kArity = 4;
    static bool Earlier(const QueueEntry& a, const QueueEntry& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
    bool NearEmpty() const {
      return heap_.empty() && run_next_ == run_end_;
    }
    /// Sifts `entry` into the 4-ary heap.
    void PushHeap(const QueueEntry& entry);
    /// Removes the heap top.
    void PopHeap();
    /// Moves the next window of staged entries into the (drained) near
    /// tiers; loops until a near tier is non-empty or staging is
    /// exhausted (a window can evaporate entirely if every member went
    /// stale).
    void Refill();
    /// `Peek` with both near tiers drained: refills, then peeks.
    const QueueEntry* PeekAfterRefill();

    std::vector<QueueEntry> heap_;
    // The sorted run; `[run_next_, run_end_)` is still queued. Only
    // `Refill` appends, so the pointers stay valid between refills.
    std::vector<QueueEntry> run_;
    const QueueEntry* run_next_ = nullptr;
    const QueueEntry* run_end_ = nullptr;
    bool min_in_run_ = false;  // Where the last `Peek` found the minimum.
    std::vector<QueueEntry> far_;  // Unsorted staging.
    double near_bound_ = 0.0;      // Meaningless while all tiers empty.
    // Staged key range, maintained incrementally by `push` and
    // recomputed during the `Refill` partition pass; meaningless while
    // `far_` is empty. Lets a refill pick its window in a single pass.
    double far_min_ = 0.0;
    double far_max_ = 0.0;
    const std::vector<Slot>* slots_ = nullptr;
    telemetry::CounterHandle heaped_counter_{"sim.events_heaped"};
  };

  /// Takes a pool slot, stores `cb`, and returns the packed id.
  EventId AllocateSlot(Callback cb, uint32_t* slot_out);
  /// Invalidates a slot (bumps generation) and returns it to the free
  /// list; the caller has already moved the callback out if it needs it.
  void ReleaseSlot(uint32_t slot);
  /// Pops queue entries until one still matches its slot's generation.
  /// Returns false when the queue is exhausted.
  bool PopNextLive(QueueEntry* entry);
  /// Pops the entire cohort of events sharing the next due timestamp in
  /// one queue drain (seq order preserved — the queue pops the strict
  /// (when, seq) total order) and fires them back-to-back: one clock
  /// update and one dispatch loop per timestamp instead of per event.
  /// Each member's generation is re-checked right before its callback
  /// runs, so a cohort member cancelled by an earlier member is skipped
  /// exactly as the stale-entry pop path would have skipped it. With
  /// `bounded`, a cohort strictly past `bound` is left queued. Returns
  /// the number of events fired (0 means nothing was due).
  size_t FireCohort(double bound, bool bounded);
  /// Runs the pending end-of-timestamp hooks, oldest request first, as
  /// long as no live event is due at `now_` (stale heap entries at
  /// `now_` are dropped on the way). Each hook leaves the pending list
  /// before it is called.
  void EndTimestamp();

  double now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t events_fired_ = 0;
  size_t live_events_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  EventHeap queue_;
  // Recycled cohort buffer for FireCohort. Moved out for the duration of
  // a dispatch, so a callback that re-enters the run loop gets a fresh
  // (empty) buffer instead of clobbering the in-flight cohort.
  std::vector<QueueEntry> cohort_scratch_;
  // Pending end-of-timestamp hooks, in request order. The run loops test
  // it once per cohort, so an empty list costs one branch.
  std::vector<EndOfTimestampHook*> end_hooks_;

  telemetry::CounterHandle scheduled_counter_{"sim.events_scheduled"};
  telemetry::CounterHandle cancelled_counter_{"sim.events_cancelled"};
  telemetry::CounterHandle fired_counter_{"sim.events_fired"};
};

}  // namespace hivesim::sim

#endif  // HIVESIM_SIM_SIMULATOR_H_

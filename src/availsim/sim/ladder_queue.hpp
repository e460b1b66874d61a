#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "availsim/sim/time.hpp"

namespace availsim::sim {

/// The queue's key for one scheduled event. `seq` is the global
/// schedule-order counter: the queue's total order is (t, seq), which
/// encodes FIFO tie-break at equal timestamps. The event's callable is not
/// here: the Simulator stores it once, in its per-slot storage, so the
/// ladder's top -> rung -> bottom moves copy 24 bytes and call nothing.
/// The key is *stale* — its event was cancelled — iff its slot's
/// generation has moved on from `gen`.
struct QueuedEvent {
  Time t = 0;
  std::uint64_t seq = 0;   // global schedule order; FIFO tie-break at same t
  std::uint32_t slot = 0;  // Simulator slot: generation and callable
  std::uint32_t gen = 0;   // the slot's generation at schedule time
};
static_assert(std::is_trivially_copyable_v<QueuedEvent>);
static_assert(sizeof(QueuedEvent) == 24);

/// Ladder-queue priority queue specialised for the simulator's workload:
/// a huge population of near-future timers (heartbeats, qmon probes, FE
/// pings, request timeouts) with amortised O(1) push/pop, replacing the
/// O(log n) binary heap.
///
/// Structure (earliest to latest):
///
///   bottom_  sorted vector; every stored event with t < bottom_limit_
///            lives here. Events are only ever *fired from the bottom*,
///            so the dequeue order is exactly ascending (t, seq).
///   rungs_   a ladder of bucket arrays. rungs_[0] is the widest (one
///            epoch of the far-future pool); each deeper rung subdivides
///            one bucket of its parent. Buckets are unsorted.
///   top_     unsorted far-future pool beyond the deepest coverage
///            boundary, with min/max timestamp tracked for re-bucketing.
///
/// Refill (when the bottom drains): the deepest rung's next non-empty
/// bucket, with its stale keys erased (a bucket left empty is skipped),
/// either *materialises* — its events are sorted by (t, seq) into
/// the bottom and bottom_limit_ advances to the bucket's right edge — or,
/// if it is still large, *spills* into a new narrower rung. When the whole
/// ladder is empty the top pool starts a new epoch as a fresh rung 0.
///
/// Ordering-equivalence argument (vs. the reference heap):
///  1. Every event is routed by timestamp: below bottom_limit_ it is
///     insertion-sorted into the bottom at its exact (t, seq) position
///     (always at or after the current head, since t >= now); otherwise it
///     lands in the deepest structure whose coverage boundary (`limit`)
///     exceeds t, i.e. always *later* structures hold *later* events.
///  2. A bucket is materialised only once the bottom has fully drained,
///     and materialisation sorts by (t, seq) — so any order lost inside a
///     bucket (including "late" events clamped up into a rung's current
///     bucket, see push()) is restored before anything fires.
///  3. No structure outside the bottom ever holds an event with
///     t < bottom_limit_, and bottom_limit_ never moves below the head's
///     timestamp — so nothing can be scheduled "behind" an event that
///     already fired out of order. (bottom_limit_ normally only grows;
///     the one place it retreats is the bottom-overflow spill, which
///     first moves every bottom event at or beyond the new limit into
///     the new deepest rung, keeping the invariant exact.)
/// Together these give the exact total (t, seq) dequeue order of a binary
/// heap — byte-identical traces, not merely equivalent availability.
/// Dropping a stale key removes an element from that order and moves no
/// live one.
class LadderQueue {
 public:
  /// `gens` is the owner's per-slot generation table (Simulator::gens_);
  /// it must outlive the queue.
  explicit LadderQueue(const std::vector<std::uint32_t>& gens)
      : gens_(&gens) {}
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  void push(QueuedEvent ev);

  /// Number of stored keys, stale keys not yet dropped included (the
  /// caller counts live events; see Simulator::pending()).
  std::size_t size() const { return size_; }

  /// Earliest live event in (t, seq) order, or nullptr when none is left.
  /// Drops the stale keys ahead of it and may materialise ladder state;
  /// any push/pop invalidates the pointer.
  QueuedEvent* head();

  /// Removes and returns the head. Requires a prior non-null head().
  QueuedEvent pop_head();

 private:
  struct Rung {
    Time start = 0;  // left edge of bucket 0
    Time width = 1;  // bucket width, always >= 1 ns
    Time limit = 0;  // true coverage boundary: this rung holds t < limit
    std::size_t cur = 0;    // buckets below cur are dismantled
    std::size_t count = 0;  // events currently stored in this rung
    std::vector<std::vector<QueuedEvent>> buckets;
  };

  /// Refills the bottom from the ladder/top. False iff the queue is empty.
  bool refill_bottom();
  /// Bottom-overflow guard: moves the (t, seq)-largest tail of the bottom
  /// into a new deepest rung and pulls bottom_limit_ back to the cut
  /// point. Without this, one sparse far-spanning bucket materialisation
  /// leaves bottom_limit_ far ahead and every subsequent near-future push
  /// pays an O(bottom) insertion into an unbounded bottom.
  void spill_bottom_tail();
  /// Builds a new deepest rung spanning [start, limit) from `events`.
  void make_rung(std::vector<QueuedEvent>&& events, Time start, Time limit);
  void recycle(std::vector<std::vector<QueuedEvent>>&& buckets);
  std::vector<QueuedEvent> take_pool_bucket();
  bool stale(const QueuedEvent& ev) const {
    return (*gens_)[ev.slot] != ev.gen;
  }

  const std::vector<std::uint32_t>* gens_;  // not owned

  std::vector<QueuedEvent> bottom_;
  std::size_t bottom_pos_ = 0;
  Time bottom_limit_ = 0;  // every stored event with t < this is in bottom_

  std::vector<Rung> rungs_;  // [0] widest epoch rung; back() is deepest

  std::vector<QueuedEvent> top_;
  Time top_min_ = 0;
  Time top_max_ = 0;

  std::size_t size_ = 0;
  // Recycled bucket storage: rung churn reuses vectors instead of
  // re-allocating them every epoch.
  std::vector<std::vector<QueuedEvent>> bucket_pool_;
};

}  // namespace availsim::sim

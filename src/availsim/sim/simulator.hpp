#pragma once

#include <cstdint>
#include <vector>

#include "availsim/sim/event_fn.hpp"
#include "availsim/sim/ladder_queue.hpp"
#include "availsim/sim/time.hpp"

namespace availsim::trace {
class Tracer;
}

namespace availsim::sim {

/// Opaque handle to a scheduled event; used only for cancellation.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Single-threaded discrete-event simulator.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which makes every run bit-for-bit reproducible for a fixed RNG seed.
/// All of the cluster substrate (network, disks, servers, fault injector,
/// clients) runs on one Simulator instance. Parallel campaigns (see
/// harness/campaign.hpp) give each replica its own private Simulator.
///
/// The pending-event set is a ladder queue (sim/ladder_queue.hpp) —
/// amortised O(1) schedule/pop for the timer-dominated workload — with
/// the exact strict (t, seq) dequeue order of the binary heap it
/// replaced (golden traces are byte-identical; see DESIGN.md §4e).
///
/// Each event owns a slot for its lifetime. The slot holds the event's
/// callable, stored once at schedule time, and a generation that moves on
/// whenever the slot is freed; the queue only moves the 24-byte key
/// {t, seq, slot, gen}.
///
/// Cancellation is O(1) via slot+generation handles: cancel() destroys the
/// callable, bumps the slot's generation and frees the slot at once. The
/// event's key stays queued but is now stale (its gen no longer matches
/// its slot's), and the queue drops it unseen — when it reaches the head,
/// or earlier, when the ladder takes its bucket out of a rung.
/// Cancelling an already-fired id is an exact no-op (the generation no
/// longer matches), so stale handles neither accumulate state nor ever
/// cancel an unrelated newer event.
class Simulator {
 public:
  Simulator() : queue_(gens_) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= now). Returns an id
  /// that can be passed to cancel().
  EventId schedule_at(Time t, EventFn fn);

  /// Schedules `fn` to run `delay` after now. Negative delays are clamped
  /// to zero (fire "immediately", after already-queued events at now()).
  EventId schedule_after(Time delay, EventFn fn);

  /// Cancels a pending event. Cancelling an already-fired or invalid id is
  /// a no-op, so callers may keep stale handles safely.
  void cancel(EventId id);

  /// Runs a single live event. Returns false when no live events remain.
  bool step();

  /// Runs until the queue is empty or stop() is called.
  void run();

  /// Runs all live events with timestamp <= t, then advances now() to t.
  /// Events after t — including any behind stale keys of cancelled events
  /// at the head of the queue — are left pending.
  void run_until(Time t);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (diagnostics / microbenchmarks).
  std::uint64_t events_processed() const { return processed_; }

  /// Number of live (non-cancelled) events currently pending: the slots in
  /// use.
  std::size_t pending() const { return gens_.size() - free_slots_.size(); }

  /// Optional structured-trace sink (not owned). When unset — the default —
  /// every emit point in the substrate reduces to one pointer load and a
  /// branch. See trace/trace.hpp. Attaching re-reads the tracer's category
  /// mask: the per-step kSim gate is cached here, so call set_tracer again
  /// if Tracer::set_mask changes whether kSim is traced.
  trace::Tracer* tracer() const { return tracer_; }
  void set_tracer(trace::Tracer* tracer);

 private:
  /// Frees a slot whose callable has been moved out: bumps its generation,
  /// which makes the slot's queued key stale, and recycles it.
  void release_slot(std::uint32_t slot);

  Time now_ = 0;
  trace::Tracer* tracer_ = nullptr;
  // Cached tracer_->wants(kSim): keeps the per-step gate to one flag test.
  bool trace_steps_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  // Per slot, indexed by QueuedEvent::slot. gens_ is never 0, so an id is
  // never kInvalidEvent; the queue reads it to tell stale keys (declared
  // before queue_, which keeps a pointer to it).
  std::vector<std::uint32_t> gens_;
  std::vector<EventFn> fns_;  // empty while the slot is free
  std::vector<std::uint32_t> free_slots_;
  LadderQueue queue_;
};

}  // namespace availsim::sim

#include "availsim/sim/simulator.hpp"

#include <cassert>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::sim {

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].live = true;
    return slot;
  }
  slots_.emplace_back().live = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  s.cancelled = false;
  if (++s.generation == 0) s.generation = 1;  // keep ids != kInvalidEvent
  free_slots_.push_back(slot);
}

EventId Simulator::schedule_at(Time t, EventFn fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = acquire_slot();
  const EventId id =
      (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
  slots_[slot].fn = std::move(fn);
  queue_.push(QueuedEvent{t, next_seq_++, slot});
  return id;
}

EventId Simulator::schedule_after(Time delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.live || s.generation != generation || s.cancelled) return;
  s.cancelled = true;
  ++cancelled_pending_;
}

void Simulator::purge_cancelled_head() {
  while (QueuedEvent* head = queue_.head()) {
    Slot& s = slots_[head->slot];
    if (!s.cancelled) break;
    s.fn = EventFn();  // free the tombstone's capture now
    release_slot(head->slot);
    queue_.drop_head();
    --cancelled_pending_;
  }
}

bool Simulator::step() {
  purge_cancelled_head();
  if (queue_.empty()) return false;
  // The callable is moved out of its slot before it runs: events it
  // schedules may reuse the slot or grow slots_.
  const QueuedEvent ev = queue_.pop_head();
  EventFn fn = std::move(slots_[ev.slot].fn);
  release_slot(ev.slot);
  assert(ev.t >= now_);
  now_ = ev.t;
  ++processed_;
  if (trace_steps_) [[unlikely]] {
    tracer_->emit(now_, trace::Category::kSim, trace::Kind::kSimStep, -1,
                  static_cast<std::int64_t>(ev.seq), 0, 0);
  }
  fn();
  return true;
}

void Simulator::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  trace_steps_ = tracer_ != nullptr && tracer_->wants(trace::Category::kSim);
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(Time t) {
  stopped_ = false;
  while (!stopped_) {
    // Purge before the time check: a cancelled tombstone at the head must
    // not let step() run a later-than-t event (or advance the clock).
    purge_cancelled_head();
    const QueuedEvent* head = queue_.head();
    if (head == nullptr || head->t > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace availsim::sim

#include "availsim/sim/simulator.hpp"

#include <cassert>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::sim {

void Simulator::release_slot(std::uint32_t slot) {
  std::uint32_t& gen = gens_[slot];
  if (++gen == 0) gen = 1;  // keep ids != kInvalidEvent
  free_slots_.push_back(slot);
}

EventId Simulator::schedule_at(Time t, EventFn fn) {
  if (t < now_) t = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(gens_.size());
    gens_.push_back(1);
    fns_.push_back(std::move(fn));
  }
  const std::uint32_t gen = gens_[slot];
  queue_.push(QueuedEvent{t, next_seq_++, slot, gen});
  return (static_cast<EventId>(gen) << 32) | slot;
}

EventId Simulator::schedule_after(Time delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= gens_.size() || gens_[slot] != generation) return;
  // The slot is freed before the capture is destroyed: a destructor that
  // schedules or cancels sees consistent slot state.
  const EventFn dead = std::move(fns_[slot]);
  release_slot(slot);
}

bool Simulator::step() {
  if (queue_.head() == nullptr) return false;
  // The callable is moved out of its slot before it runs: events it
  // schedules may reuse the slot or grow fns_.
  const QueuedEvent ev = queue_.pop_head();
  EventFn fn = std::move(fns_[ev.slot]);
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
    // head() drops stale keys first, so a cancelled event at the head
    // cannot let step() run a later-than-t event (or advance the clock).
    const QueuedEvent* head = queue_.head();
    if (head == nullptr || head->t > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace availsim::sim

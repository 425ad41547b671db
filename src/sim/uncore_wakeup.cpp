#include "sim/uncore_wakeup.h"

#include <algorithm>
#include <cassert>

#include "sim/core_model.h"
#include "sim/system.h"

namespace pipo {

void UncoreWakeup::start(System* system, EventQueue* queue,
                         const std::uint32_t* running_cores,
                         const std::vector<std::unique_ptr<CoreModel>>* cores,
                         Tick stop) {
  system_ = system;
  queue_ = queue;
  running_cores_ = running_cores;
  cores_ = cores;
  origin_ = queue->now();
  stop_ = stop;
  crossed_ = false;
  wakes_.clear();  // the caller cleared the queue they were in
  cap_tick_ = stop == kNeverTick
                  ? kNeverTick
                  : grid_ceil(std::max(stop, origin_ + kUncoreTick));
  rearm(origin_ + kUncoreTick);
}

Tick UncoreWakeup::grid_ceil(Tick t) const {
  if (t > kNeverTick - kUncoreTick) return kNeverTick;
  return t + ((origin_ - t) & (kUncoreTick - 1));
}

bool UncoreWakeup::before_tick_event_pending(Tick t) const {
  for (const auto& c : *cores_) {
    if (c->pending_before_tick_at(t)) return true;
  }
  return false;
}

void UncoreWakeup::rearm(Tick open) {
  Tick g = cap_tick_;
  if (*running_cores_ == 0) {
    g = std::min(g, open);  // the run's last grid tick
  } else {
    const Tick due = system_->next_drain_due();
    if (due < g) g = std::min(g, grid_ceil(std::max(due, open)));
  }
  armed_ = g;
  ensure_wake();
}

void UncoreWakeup::ensure_wake() {
  const Tick g = armed_;
  // A tick armed for now is run by the core events sharing it (leave()).
  if (g == kNeverTick || g <= queue_->now()) return;
  if (!wakes_.empty() && wakes_.front() <= g) return;
  wakes_.push_front(g);
  queue_->schedule(g, [this] { on_wake(); });
}

void UncoreWakeup::on_wake() {
  const Tick g = queue_->now();
  assert(!wakes_.empty() && wakes_.front() == g);
  wakes_.pop_front();
  if (g != armed_) {
    ensure_wake();  // superseded: hop to the armed tick if nothing will
    return;
  }
  // Core events ordered before this grid tick run first; the last of
  // them executes it (leave()).
  if (!before_tick_event_pending(g)) run_grid_tick(g);
}

bool UncoreWakeup::run_grid_tick(Tick g) {
  system_->drain_prefetches(g);
  if (g >= stop_) {
    // The cap's crossing event: the run ends on this tick.
    crossed_ = true;
    armed_ = kNeverTick;
    return false;
  }
  if (*running_cores_ == 0) {
    // The run's last tick. Only superseded wake-ups can still be queued;
    // dropping them keeps the clock on this tick.
    armed_ = kNeverTick;
    wakes_.clear();
    queue_->clear();
    return true;
  }
  rearm(g + kUncoreTick);
  return true;
}

}  // namespace pipo

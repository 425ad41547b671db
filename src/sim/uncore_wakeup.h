// Uncore wake-up: when the simulation driver runs the uncore
// (System::drain_prefetches) on its own, between core accesses.
//
// The model. The uncore is clocked on a fixed grid of kUncoreTick-cycle
// ticks anchored at the start of each run (start + k*kUncoreTick, k >= 1).
// On every grid tick it drains whatever prefetch work has fallen due, and
// the run's clock ends on the first grid tick at which no core is running
// any more. That grid is part of the simulated machine: how many drains
// happen, and at which ticks, decides which prefetches land before which
// demand accesses. The periodic driver this replaces realised the grid
// literally, as one self-rescheduling event every kUncoreTick cycles,
// which on paced attack traffic meant ~25 dispatched no-op events per
// access.
//
// The wake-up runs the same grid lazily. A grid tick is executed only
// when it can be observed:
//   * drain work is due at or before it (System::next_drain_due()),
//   * it is the first grid tick at or past a run's tick cap (the event
//     that crosses the cap ends the run), or
//   * it is the last tick of the run (no core is running any more).
// One queue event is armed for the earliest such tick and re-armed after
// every drain and every access; a wake-up that was superseded returns at
// once.
//
// Same-tick order. A grid tick shares its tick with core events, and its
// place among them matters at the edges (which grid tick ends the run,
// which event crosses the cap). The periodic event at tick g was
// scheduled by its predecessor at g - kUncoreTick, so a core event at g
// runs before it iff it was scheduled before that moment. Each CoreModel
// keeps that as one bit on its single pending event (`before_tick`):
// scheduled more than kUncoreTick ahead, or exactly kUncoreTick ahead by
// an event that was itself before its grid tick. Core events at g then
// run in the order [before-tick events][grid tick][the others], and the
// wake-up executes the grid tick exactly there: ahead of the first other
// event (enter()), after the last before-tick event (leave()), or from
// its own queue event when no core event shares the tick.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace pipo {

class CoreModel;
class System;

/// Period of the uncore grid in cycles: the latest a due monitor
/// prefetch can land behind its due tick while every core is idle.
inline constexpr Tick kUncoreTick = 64;
static_assert((kUncoreTick & (kUncoreTick - 1)) == 0,
              "grid arithmetic masks with kUncoreTick - 1");

class UncoreWakeup {
 public:
  UncoreWakeup() = default;
  // Queued wake-ups hold `this`.
  UncoreWakeup(const UncoreWakeup&) = delete;
  UncoreWakeup& operator=(const UncoreWakeup&) = delete;

  /// Begins a run at queue->now() (the grid's origin), capped at `stop`
  /// (kNeverTick: uncapped). Call after the cores have been started.
  void start(System* system, EventQueue* queue,
             const std::uint32_t* running_cores,
             const std::vector<std::unique_ptr<CoreModel>>* cores, Tick stop);

  /// Whether the run's crossing event — the first event executed at or
  /// past the cap — has run. A wake-up that found nothing to do does not
  /// count: it stands for no event of the grid.
  bool crossed() const { return crossed_; }

  /// Core-event prologue; `before_tick` is the event's same-tick order
  /// bit. Runs the grid tick due at this tick when it orders ahead of the
  /// event. Returns false when that grid tick crossed the cap: the run
  /// ends there and the core event must not run.
  bool enter(bool before_tick) {
    const Tick t = queue_->now();
    if (t == armed_ && !before_tick && !run_grid_tick(t)) return false;
    if (t >= stop_) crossed_ = true;
    return true;
  }

  /// Core-event epilogue. `changed`: the event accessed the System or
  /// finished its core, so the armed tick is recomputed.
  void leave(bool before_tick, bool changed) {
    if (crossed_) return;  // the crossing event is the run's last
    const Tick t = queue_->now();
    if (changed) rearm(first_open_tick(t, before_tick));
    if (before_tick && t == armed_ && !before_tick_event_pending(t)) {
      run_grid_tick(t);
    }
  }

 private:
  bool on_grid(Tick t) const {
    return ((t - origin_) & (kUncoreTick - 1)) == 0;
  }
  /// Smallest grid tick strictly after t.
  Tick grid_after(Tick t) const {
    return t - ((t - origin_) & (kUncoreTick - 1)) + kUncoreTick;
  }
  /// Smallest grid tick >= t (kNeverTick past the last representable).
  Tick grid_ceil(Tick t) const;
  /// First grid tick not yet behind an event at `t` with order bit
  /// `before_tick`.
  Tick first_open_tick(Tick t, bool before_tick) const {
    return before_tick && on_grid(t) ? t : grid_after(t);
  }
  /// Some core's pending event is at `t` and ordered before its tick.
  bool before_tick_event_pending(Tick t) const;

  /// Arms the earliest grid tick >= `open` that must execute.
  void rearm(Tick open);
  /// Keeps one queue event at or before the armed tick.
  void ensure_wake();
  void on_wake();
  /// Executes the grid tick at `g`; returns false iff it crossed the cap.
  bool run_grid_tick(Tick g);

  System* system_ = nullptr;
  EventQueue* queue_ = nullptr;
  const std::uint32_t* running_cores_ = nullptr;
  const std::vector<std::unique_ptr<CoreModel>>* cores_ = nullptr;
  Tick origin_ = 0;
  Tick stop_ = kNeverTick;
  Tick cap_tick_ = kNeverTick;  ///< first grid tick at or past stop_
  Tick armed_ = kNeverTick;
  bool crossed_ = false;
  /// Ticks of the queued wake-up events, ascending (rarely more than 2).
  std::deque<Tick> wakes_;
};

}  // namespace pipo

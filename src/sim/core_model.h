// In-order core model: executes its workload's instruction stream at one
// instruction per cycle, blocking on every memory access (single
// outstanding miss). This is gem5's TimingSimpleCPU discipline — exactly
// the CPU model class the paper's evaluation platform uses for memory-
// system studies — and it preserves what matters here: the dependence of
// execution time on per-access latency, and cycle-accurate cross-core
// interleaving of LLC traffic.
//
// Scheduling discipline: because the core is blocking, at most one event
// of this core is ever in flight, so the pending request lives in a
// member and every scheduled callback captures only `this` — well inside
// the event queue's inline-callback buffer, making steady-state
// simulation allocation-free.
//
// The core also keeps its pending event's tick and same-tick order bit
// relative to the uncore grid, and brackets every event with the
// UncoreWakeup hooks that execute grid ticks in their place (see
// sim/uncore_wakeup.h).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/event_queue.h"
#include "sim/system.h"
#include "sim/uncore_wakeup.h"
#include "sim/workload_if.h"

namespace pipo {

class CoreModel {
 public:
  /// `running_cores`, when non-null, is decremented exactly once when
  /// this core's workload finishes (the Simulation's O(1) liveness
  /// counter). `wakeup`, when non-null, is told about every event.
  CoreModel(CoreId id, System* system, EventQueue* queue, Workload* workload,
            std::uint32_t* running_cores = nullptr,
            UncoreWakeup* wakeup = nullptr)
      : id_(id),
        system_(system),
        queue_(queue),
        workload_(workload),
        running_cores_(running_cores),
        wakeup_(wakeup) {}

  /// Schedules the first instruction at `start` — the grid's origin, so
  /// the event orders after the (virtual) grid tick there.
  void start(Tick start_tick) {
    pending_at_ = start_tick;
    before_tick_ = false;
    queue_->schedule(start_tick, [this] { step(); });
  }

  /// Whether this core's pending event is at `t` and ordered before the
  /// uncore grid tick at `t`.
  bool pending_before_tick_at(Tick t) const {
    return !done_ && pending_at_ == t && before_tick_;
  }

  bool done() const { return done_; }
  Tick finish_tick() const { return finish_tick_; }
  CoreId id() const { return id_; }

  /// Retired instructions: one per memory access plus every pre_delay
  /// cycle of non-memory work.
  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t mem_accesses() const { return mem_accesses_; }

 private:
  /// Schedules this core's next event. The periodic grid tick at `when`
  /// would have been scheduled kUncoreTick earlier, so the event orders
  /// before it iff scheduled earlier than that — or at that very tick by
  /// an event that was itself ahead of its grid tick.
  template <typename F>
  void schedule_next(Tick when, F&& fn) {
    const Tick ahead = when - queue_->now();
    before_tick_ =
        ahead > kUncoreTick || (ahead == kUncoreTick && before_tick_);
    pending_at_ = when;
    queue_->schedule(when, std::forward<F>(fn));
  }

  void step() {
    const bool before = before_tick_;
    if (wakeup_ && !wakeup_->enter(before)) return;
    const auto req = workload_->next(queue_->now());
    if (!req) {
      done_ = true;
      finish_tick_ = queue_->now();
      if (running_cores_) --*running_cores_;
      if (wakeup_) wakeup_->leave(before, /*changed=*/true);
      return;
    }
    pending_ = *req;
    // Sharded engine: announce the request now, at step() time, so the
    // owning shard worker has the pre_delay window to precompute its
    // routing hints before issue(). No-op on the serial engine.
    system_->publish_pending(id_, pending_.addr);
    schedule_next(queue_->now() + req->pre_delay, [this] { issue(); });
    if (wakeup_) wakeup_->leave(before, /*changed=*/false);
  }

  void issue() {
    const bool before = before_tick_;
    if (wakeup_ && !wakeup_->enter(before)) return;
    const Tick issued = queue_->now();
    const System::AccessOutcome out = system_->access(
        issued, id_, pending_.addr, pending_.type, pending_.bypass_private);
    instructions_ += 1 + pending_.pre_delay;
    ++mem_accesses_;
    workload_->on_complete(pending_, issued, out.complete);
    schedule_next(out.complete, [this] { step(); });
    if (wakeup_) wakeup_->leave(before, /*changed=*/true);
  }

  CoreId id_;
  System* system_;
  EventQueue* queue_;
  Workload* workload_;
  std::uint32_t* running_cores_;
  UncoreWakeup* wakeup_;
  MemRequest pending_;  ///< request between its step() and issue() events
  Tick pending_at_ = 0;       ///< tick of the one pending event
  bool before_tick_ = false;  ///< it orders before the grid tick there
  bool done_ = false;
  Tick finish_tick_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t mem_accesses_ = 0;
};

}  // namespace pipo

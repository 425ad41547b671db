// Top-level simulation driver: owns the event queue, the System and one
// CoreModel per core, runs them to completion and reports per-core and
// whole-run results. The gem5 `Simulation` object of this reproduction.
//
// Ownership: the Simulation owns everything it drives — the System (and
// through it the cache/filter/defense state), the EventQueue, the
// CoreModels it builds per run(), and the Workloads handed over via
// set_workload(). Workload pointers passed to CoreModels stay valid for
// the lifetime of the Simulation; CoreModels are torn down and rebuilt
// at the start of every run().
//
// Tick semantics: one tick is one core cycle. The queue's clock is
// monotone and shared by every component; it survives across runs (a
// second run() continues from the tick where the first stopped). The
// uncore runs on a kUncoreTick-cycle grid anchored at each run's start;
// the UncoreWakeup (sim/uncore_wakeup.h) executes only the grid ticks
// that can be observed, so idle stretches cost no events.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "filter/observer.h"
#include "sim/core_model.h"
#include "sim/event_queue.h"
#include "sim/system.h"
#include "sim/system_config.h"
#include "sim/uncore_wakeup.h"
#include "sim/workload_if.h"

namespace pipo {

class Simulation {
 public:
  explicit Simulation(const SystemConfig& cfg,
                      FilterObserver* filter_observer = nullptr)
      : cfg_(cfg), system_(cfg, filter_observer) {
    workloads_.resize(cfg.num_cores);
  }

  /// Assigns (and takes ownership of) the workload driving `core`.
  void set_workload(CoreId core, std::unique_ptr<Workload> wl) {
    if (core >= cfg_.num_cores) throw std::out_of_range("core id");
    workloads_[core] = std::move(wl);
  }

  /// Recorder hook: replaces `core`'s already-assigned workload with
  /// `wrap(current)` — e.g. a TraceRecorder (workload/stream_trace.h)
  /// capturing the stream the run consumes — without disturbing the
  /// rest of the wiring. Call between set_workload() and run(); throws
  /// std::logic_error if no workload is assigned.
  template <typename Wrap>
  void wrap_workload(CoreId core, Wrap&& wrap) {
    if (core >= cfg_.num_cores) throw std::out_of_range("core id");
    if (!workloads_[core]) {
      throw std::logic_error("wrap_workload: core has no workload");
    }
    workloads_[core] = wrap(std::move(workloads_[core]));
  }

  /// Runs until every core's workload finishes or `max_ticks` elapses.
  /// Returns the tick at which the last core finished (= overall
  /// execution time, the metric of Fig 8(a)). The clock itself ends on
  /// the run's last uncore grid tick, at or after that one (see
  /// sim/uncore_wakeup.h).
  ///
  /// Restartable: any events left over from a previous tick-capped run
  /// are cleared (across both queue tiers) before the cores are rebuilt,
  /// so stale callbacks can never fire into dead CoreModels. The drive
  /// loop is EventQueue::run_active(max_ticks): the event that crosses
  /// the cap still executes (a started access completes). That event is
  /// a core event or the first uncore grid tick at or past the cap,
  /// whichever comes first. run_until style clamping never applies here
  /// — see event_queue.h for the clamp's precondition (time advances to
  /// a horizon only when it was actually simulated: the queue drained or
  /// the next event lies beyond it).
  Tick run(Tick max_ticks = kNeverTick);

  System& system() { return system_; }
  const System& system() const { return system_; }
  EventQueue& queue() { return queue_; }

  const CoreModel& core(CoreId c) const { return *cores_[c]; }
  std::uint32_t num_cores() const { return cfg_.num_cores; }

  /// Sum of instructions retired across all cores.
  std::uint64_t total_instructions() const {
    std::uint64_t n = 0;
    for (const auto& c : cores_) n += c->instructions();
    return n;
  }

  /// Events the last run() dispatched: core steps and issues plus the
  /// uncore wake-ups (cost accounting for tests and benches).
  std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  SystemConfig cfg_;
  System system_;
  EventQueue queue_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::vector<std::unique_ptr<CoreModel>> cores_;
  UncoreWakeup wakeup_;
  /// Cores whose workload has not finished; maintained by the CoreModels
  /// so the uncore wake-up decides liveness in O(1) instead of rescanning
  /// every core.
  std::uint32_t running_cores_ = 0;
  std::uint64_t events_dispatched_ = 0;
};

}  // namespace pipo

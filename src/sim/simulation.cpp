#include "sim/simulation.h"

namespace pipo {

Tick Simulation::run(Tick max_ticks) {
  // A previous tick-capped run may have left core step/issue events (and
  // uncore wake-ups) queued; their CoreModels die with cores_.clear()
  // below, so dispatching them would be a use-after-free.
  queue_.clear();
  cores_.clear();
  running_cores_ = cfg_.num_cores;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (!workloads_[c]) {
      throw std::logic_error("Simulation::run: core " + std::to_string(c) +
                             " has no workload");
    }
    cores_.push_back(std::make_unique<CoreModel>(
        c, &system_, &queue_, workloads_[c].get(), &running_cores_,
        &wakeup_));
    cores_.back()->start(queue_.now());
  }
  wakeup_.start(&system_, &queue_, &running_cores_, &cores_, max_ticks);

  events_dispatched_ = 0;
  if (queue_.now() < max_ticks) {
    events_dispatched_ += queue_.run_active(max_ticks);
    // run_active stops after the first event at or past the cap; when
    // that was a wake-up with nothing to do, the crossing event is still
    // ahead.
    while (!wakeup_.crossed() && queue_.run_one()) ++events_dispatched_;
  }

  // Sharded engine: close the tail (possibly partial) epoch so the final
  // Stats are fully folded and the shard workers are quiescent before
  // the caller inspects results. No-op on the serial engine.
  system_.flush_epochs(queue_.now());

  Tick finish = 0;
  for (const auto& c : cores_) {
    finish = std::max(finish, c->done() ? c->finish_tick() : queue_.now());
  }
  return finish;
}

}  // namespace pipo

// Differential oracle for the uncore wake-up (sim/uncore_wakeup.h).
//
// The specification is the periodic driver the wake-up replaces, kept
// here as a test-local copy: CoreModels on an EventQueue plus one
// self-rescheduling event every 64 cycles that drains the System's due
// prefetches and stops at the first tick at which no core is running.
// Simulation must reproduce it exactly — finish tick, per-core finish
// and instruction counts, the final clock, every System::Stats counter,
// the monitor, memory-controller and epoch counters, and every access's
// issue and completion tick as its workload observed it.
//
// The workloads are randomized and time-aware (they pace themselves off
// the `now` handed to next(), as the attack workloads do), with gaps that
// land accesses and completions exactly on grid ticks, long sleeps, and
// a hot set of LLC-congruent lines shared by all cores so the monitors
// evict, pEvict and prefetch. The cross product covers every defense,
// uncapped and capped runs (caps on and off the grid) followed by a
// second run(), the serial and the sharded engine, and several prefetch
// delays — zero among them, which puts prefetch work on the very tick
// that created it.
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/core_model.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/system.h"
#include "tests/sim/test_configs.h"
#include "workload/trace.h"

namespace pipo {
namespace {

using testcfg::mini;
using testcfg::mini_l3_stride;

constexpr Tick kPeriod = 64;  // the periodic driver's tick

/// The periodic driver: Simulation::run as it was before the wake-up,
/// with the same ownership and restart rules.
class PeriodicDriver {
 public:
  explicit PeriodicDriver(const SystemConfig& cfg)
      : cfg_(cfg), system_(cfg) {
    workloads_.resize(cfg.num_cores);
  }

  void set_workload(CoreId core, std::unique_ptr<Workload> wl) {
    workloads_[core] = std::move(wl);
  }

  Tick run(Tick max_ticks = kNeverTick) {
    queue_.clear();
    cores_.clear();
    running_ = cfg_.num_cores;
    for (CoreId c = 0; c < cfg_.num_cores; ++c) {
      cores_.push_back(std::make_unique<CoreModel>(
          c, &system_, &queue_, workloads_[c].get(), &running_));
      cores_.back()->start(queue_.now());
    }
    run_limit_ = max_ticks;
    schedule_tick();
    events_dispatched_ = queue_.run_active(max_ticks);
    system_.flush_epochs(queue_.now());
    Tick finish = 0;
    for (const auto& c : cores_) {
      finish = std::max(finish, c->done() ? c->finish_tick() : queue_.now());
    }
    return finish;
  }

  System& system() { return system_; }
  EventQueue& queue() { return queue_; }
  const CoreModel& core(CoreId c) const { return *cores_[c]; }
  std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  void schedule_tick() {
    queue_.schedule_in(kPeriod, [this] {
      system_.drain_prefetches(queue_.now());
      if (running_ > 0 && queue_.now() < run_limit_) schedule_tick();
    });
  }

  SystemConfig cfg_;
  System system_;
  EventQueue queue_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::vector<std::unique_ptr<CoreModel>> cores_;
  Tick run_limit_ = 0;
  std::uint32_t running_ = 0;
  std::uint64_t events_dispatched_ = 0;
};

/// Randomized, time-aware request stream. Gaps are drawn from shapes
/// that stress the grid edges: none, short, exactly one period, "issue
/// on the next grid tick" (relative to `origin`), and long sleeps.
/// Records every access's (issued, completed) pair.
class PacedWorkload final : public Workload {
 public:
  PacedWorkload(std::uint64_t seed, CoreId core, int requests)
      : rng_(seed * 977 + core), core_(core), left_(requests) {}

  Tick origin = 0;  ///< the grid's origin for the current run

  std::optional<MemRequest> next(Tick now) override {
    if (left_ == 0) return std::nullopt;
    --left_;
    MemRequest r;
    if (rng_.chance(0.6)) {
      // Hot set: 12 lines congruent in the mini() LLC (8 ways), shared.
      r.addr = byte_of(0x4000 + rng_.below(12) * mini_l3_stride());
    } else {
      r.addr = byte_of(0x100000 * (core_ + 1) + rng_.below(512));
    }
    if (rng_.chance(0.2)) {
      r.type = AccessType::kStore;
    } else if (rng_.chance(0.05)) {
      r.type = AccessType::kInstFetch;
    }
    r.bypass_private = r.type == AccessType::kLoad && rng_.chance(0.15);
    const std::uint64_t shape = rng_.below(100);
    if (shape < 20) {
      r.pre_delay = 0;
    } else if (shape < 45) {
      r.pre_delay = static_cast<std::uint32_t>(rng_.below(9));
    } else if (shape < 55) {
      r.pre_delay = static_cast<std::uint32_t>(kPeriod);
    } else if (shape < 80) {
      const Tick phase = (now - origin) % kPeriod;
      r.pre_delay = static_cast<std::uint32_t>(
          (kPeriod - phase) % kPeriod + kPeriod * rng_.below(3));
    } else if (shape < 93) {
      r.pre_delay = static_cast<std::uint32_t>(rng_.below(300));
    } else {
      r.pre_delay = static_cast<std::uint32_t>(1000 + rng_.below(4000));
    }
    return r;
  }

  void on_complete(const MemRequest&, Tick issued, Tick completed) override {
    log.push_back(issued);
    log.push_back(completed);
  }

  std::vector<Tick> log;

 private:
  Rng rng_;
  CoreId core_;
  int left_;
};

/// Everything a run exposes that the grid's timing can influence.
struct Outcome {
  Tick finish = 0;
  Tick now = 0;
  std::vector<bool> done;
  std::vector<Tick> core_finish;
  std::vector<std::uint64_t> instructions;
  std::vector<std::uint64_t> mem_accesses;
  System::Stats stats;
  std::vector<std::uint64_t> counters;  ///< monitor, MC, engine
  std::vector<std::vector<Tick>> logs;
};

template <typename Driver>
Outcome capture(Driver& d, Tick finish, std::uint32_t cores,
                const std::vector<PacedWorkload*>& wls) {
  Outcome o;
  o.finish = finish;
  o.now = d.queue().now();
  for (CoreId c = 0; c < cores; ++c) {
    o.done.push_back(d.core(c).done());
    o.core_finish.push_back(d.core(c).finish_tick());
    o.instructions.push_back(d.core(c).instructions());
    o.mem_accesses.push_back(d.core(c).mem_accesses());
  }
  System& s = d.system();
  o.stats = s.stats();
  o.counters = {s.active_monitor().captures(),
                s.active_monitor().prefetches_issued(),
                s.active_monitor().next_prefetch_due(),
                s.next_drain_due(),
                s.monitor().accesses(),
                s.monitor().pevicts(),
                s.monitor().pevicts_dropped(),
                s.mem().demand_fetches(),
                s.mem().prefetch_fetches(),
                s.mem().writebacks(),
                s.mem().total_queue_delay(),
                s.epochs_completed()};
  for (const PacedWorkload* w : wls) o.logs.push_back(w->log);
  return o;
}

void expect_same(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(want.finish, got.finish);
  EXPECT_EQ(want.now, got.now);
  EXPECT_EQ(want.done, got.done);
  EXPECT_EQ(want.core_finish, got.core_finish);
  EXPECT_EQ(want.instructions, got.instructions);
  EXPECT_EQ(want.mem_accesses, got.mem_accesses);
  EXPECT_EQ(0, std::memcmp(&want.stats, &got.stats, sizeof(System::Stats)))
      << "System::Stats differ";
  EXPECT_EQ(want.counters, got.counters);
  ASSERT_EQ(want.logs.size(), got.logs.size());
  for (std::size_t c = 0; c < want.logs.size(); ++c) {
    EXPECT_EQ(want.logs[c], got.logs[c]) << "core " << c << " access log";
  }
}

struct Cell {
  DefenseKind defense;
  const char* name;
};

const Cell kCells[] = {
    {DefenseKind::kNone, "none"},
    {DefenseKind::kPiPoMonitor, "pipo"},
    {DefenseKind::kBitp, "bitp"},
    {DefenseKind::kDirectoryMonitor, "dir"},
    {DefenseKind::kSharp, "sharp"},
    {DefenseKind::kRic, "ric"},
};

SystemConfig cell_config(DefenseKind defense, std::uint32_t prefetch_delay,
                         std::uint32_t shard_threads, Tick epoch_ticks) {
  SystemConfig cfg = mini();
  cfg.defense = defense;
  cfg.monitor.enabled = defense == DefenseKind::kPiPoMonitor;
  cfg.monitor.prefetch_delay = prefetch_delay;
  cfg.dir_monitor.prefetch_delay = prefetch_delay;
  cfg.bitp.prefetch_delay = prefetch_delay;
  cfg.shard_threads = shard_threads;
  cfg.epoch_ticks = epoch_ticks;
  return cfg;
}

enum class Cap { kNone, kOnGrid, kOffGrid };

/// Runs the reference and Simulation side by side: one run (capped per
/// `cap`), then — after a cap — a second, uncapped run() on the same
/// workloads, comparing after each.
void run_pair(const SystemConfig& cfg, std::uint64_t seed, Cap cap,
              int requests) {
  const std::uint32_t n = cfg.num_cores;
  // Length of the uncapped run, to place caps inside it.
  Tick span = 0;
  {
    PeriodicDriver probe(cfg);
    for (CoreId c = 0; c < n; ++c) {
      probe.set_workload(c, std::make_unique<PacedWorkload>(seed, c, requests));
    }
    probe.run();
    span = probe.queue().now();
  }
  Rng rng(seed ^ 0x5eedull);
  Tick stop = kNeverTick;
  if (cap != Cap::kNone) {
    const Tick k = (span / 4 + rng.below(span / 2 + 1)) / kPeriod;
    stop = kPeriod * k + (cap == Cap::kOffGrid ? 1 + rng.below(kPeriod - 1)
                                               : 0);
  }

  PeriodicDriver ref(cfg);
  Simulation sim(cfg);
  std::vector<PacedWorkload*> ref_wl, sim_wl;
  for (CoreId c = 0; c < n; ++c) {
    // Core 3 is idle in one seed out of four: a core that finishes at
    // the run's first tick.
    const int reqs = (c == 3 && seed % 4 == 1) ? 0 : requests;
    auto a = std::make_unique<PacedWorkload>(seed, c, reqs);
    auto b = std::make_unique<PacedWorkload>(seed, c, reqs);
    ref_wl.push_back(a.get());
    sim_wl.push_back(b.get());
    ref.set_workload(c, std::move(a));
    sim.set_workload(c, std::move(b));
  }

  {
    SCOPED_TRACE("first run, stop=" + std::to_string(stop));
    const Tick fr = ref.run(stop);
    const Tick fs = sim.run(stop);
    expect_same(capture(ref, fr, n, ref_wl), capture(sim, fs, n, sim_wl));
  }
  if (cap == Cap::kNone) return;

  SCOPED_TRACE("second run after cap " + std::to_string(stop));
  for (CoreId c = 0; c < n; ++c) {
    ref_wl[c]->origin = ref.queue().now();
    sim_wl[c]->origin = sim.queue().now();
  }
  const Tick fr = ref.run();
  const Tick fs = sim.run();
  expect_same(capture(ref, fr, n, ref_wl), capture(sim, fs, n, sim_wl));
}

class UncoreWakeupOracle : public ::testing::TestWithParam<Cell> {};

TEST_P(UncoreWakeupOracle, MatchesPeriodicDriverSerial) {
  const std::uint32_t delays[] = {32, 0, 64, 7, 96, 32};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (Cap cap : {Cap::kNone, Cap::kOnGrid, Cap::kOffGrid}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cap " +
                   std::to_string(static_cast<int>(cap)));
      const SystemConfig cfg =
          cell_config(GetParam().defense, delays[seed % 6], 0, 1024);
      run_pair(cfg, seed, cap, 160);
    }
  }
}

TEST_P(UncoreWakeupOracle, MatchesPeriodicDriverSharded) {
  // Epoch boundaries add drain work of their own; 100 is off the grid.
  const Tick epochs[] = {1024, 100, 64};
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    for (Cap cap : {Cap::kNone, Cap::kOnGrid, Cap::kOffGrid}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cap " +
                   std::to_string(static_cast<int>(cap)));
      const SystemConfig cfg =
          cell_config(GetParam().defense, 32, 1, epochs[seed % 3]);
      run_pair(cfg, seed, cap, 120);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Defenses, UncoreWakeupOracle,
                         ::testing::ValuesIn(kCells),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return std::string(info.param.name);
                         });

// --- directed edges -------------------------------------------------------

/// Core 0 runs `trace`, the other cores are idle.
template <typename Driver>
void load_trace(Driver& d, std::uint32_t cores,
                const std::vector<MemRequest>& trace) {
  d.set_workload(0, std::make_unique<TraceWorkload>(trace));
  for (CoreId c = 1; c < cores; ++c) {
    d.set_workload(c, std::make_unique<IdleWorkload>());
  }
}

struct Directed {
  Tick finish;
  Tick now;
  std::uint64_t accesses;
};

/// Runs `trace` on core 0 under both drivers, capped at `stop`, checks
/// that they agree and returns Simulation's result.
Directed run_directed(const std::vector<MemRequest>& trace,
                      Tick stop = kNeverTick) {
  const SystemConfig cfg = cell_config(DefenseKind::kPiPoMonitor, 32, 0, 1024);
  PeriodicDriver ref(cfg);
  Simulation sim(cfg);
  load_trace(ref, cfg.num_cores, trace);
  load_trace(sim, cfg.num_cores, trace);
  const Tick fr = ref.run(stop);
  const Tick fs = sim.run(stop);
  EXPECT_EQ(fr, fs);
  EXPECT_EQ(ref.queue().now(), sim.queue().now());
  EXPECT_EQ(ref.core(0).mem_accesses(), sim.core(0).mem_accesses());
  EXPECT_EQ(ref.core(0).instructions(), sim.core(0).instructions());
  return {fs, sim.queue().now(), sim.core(0).mem_accesses()};
}

TEST(UncoreWakeupDirected, LastCoreFinishesOnGridTickAfterL3Miss) {
  // Cold miss issued at 21 completes at 256 = 4 grid periods. The
  // finishing step was scheduled at 21, long before the grid tick at
  // 256 was, so it runs first: that tick sees no core running and is
  // the run's last.
  const auto [finish, now, accesses] =
      run_directed({{0x1000, AccessType::kLoad, 21}});
  EXPECT_EQ(finish, 256u);
  EXPECT_EQ(now, 256u);
}

TEST(UncoreWakeupDirected, LastCoreFinishesOnGridTickAfterL1Hit) {
  // Cold miss 0 -> 235, then an L1 hit issued at 254 completing at 256.
  // The grid tick at 256 was scheduled at 192, before the finishing
  // step (scheduled at 254): it still sees the core running, so the run
  // ends one period later.
  const auto [finish, now, accesses] = run_directed(
      {{0x1000, AccessType::kLoad, 0}, {0x1000, AccessType::kLoad, 19}});
  EXPECT_EQ(finish, 256u);
  EXPECT_EQ(now, 320u);
}

TEST(UncoreWakeupDirected, EmptyWorkloadsEndOnFirstGridTick) {
  const auto [finish, now, accesses] = run_directed({});
  EXPECT_EQ(finish, 0u);
  EXPECT_EQ(now, kPeriod);
}

TEST(UncoreWakeupDirected, CapCrossedByGridTickStopsBeforeNextAccess) {
  // Accesses every 1000 cycles; a cap at 1500 is first crossed by the
  // grid tick at 1536, so the access due at ~2000 must not run.
  const std::vector<MemRequest> trace(
      10, MemRequest{0x1000, AccessType::kLoad, 1000});
  const Directed d = run_directed(trace, 1500);
  EXPECT_EQ(d.now, 1536u);
  EXPECT_EQ(d.accesses, 1u);
}

TEST(UncoreWakeupDirected, CapGridTickOrdersBeforeAccessScheduledAfterIt) {
  // The access at 64 was scheduled at 0 by the first step, after the
  // grid tick at 64 was: the tick crosses the cap and the access never
  // runs.
  for (Tick stop : {Tick{40}, Tick{64}}) {
    const Directed d = run_directed({{0x1000, AccessType::kLoad, 64}}, stop);
    EXPECT_EQ(d.now, 64u);
    EXPECT_EQ(d.accesses, 0u);
  }
}

TEST(UncoreWakeupDirected, CapGridTickOrdersAfterAccessScheduledBeforeIt) {
  // Cold miss 0 -> 235; the next access, issued at 320 = 5 periods, was
  // scheduled at 235, before the grid tick at 320 was (at 256): the
  // access crosses the cap and completes.
  const Directed d = run_directed(
      {{0x1000, AccessType::kLoad, 0}, {0x2000, AccessType::kLoad, 85}}, 300);
  EXPECT_EQ(d.now, 320u);
  EXPECT_EQ(d.accesses, 2u);
}

TEST(UncoreWakeupDirected, LastTickDrainsPrefetchDueAtEveryPhase) {
  // Core 0 loads X, then evicts it from the LLC with eight congruent
  // LLC-direct probes (X's back-invalidation comes at tick 1880): BITP
  // schedules X's prefetch `delay` cycles later, about when the final
  // cold miss Z completes (2350 + gap). Sweeping the gap over two
  // periods moves the run's end across the due tick and across every
  // grid phase, so the last grid tick — on the finishing step's own tick
  // or one period later — either issues the prefetch fetch or does not,
  // exactly as the periodic driver's did. With delay 478 the prefetch
  // falls due 10 cycles before the grid tick at 2368, on which the
  // finishing step lands at gap 18.
  const LineAddr x = 0x4000;
  std::uint64_t drained = 0;
  std::uint64_t runs = 0;
  for (std::uint32_t delay : {478u, 540u}) {
    const SystemConfig cfg = cell_config(DefenseKind::kBitp, delay, 0, 1024);
    for (Tick gap = 0; gap < 2 * kPeriod; ++gap) {
      SCOPED_TRACE("delay " + std::to_string(delay) + " gap " +
                   std::to_string(gap));
      std::vector<MemRequest> trace = {{byte_of(x), AccessType::kLoad, 0}};
      for (std::uint64_t k = 1; k <= 8; ++k) {
        trace.push_back(MemRequest{byte_of(x + k * mini_l3_stride()),
                                   AccessType::kLoad, 0, true});
      }
      trace.push_back(MemRequest{byte_of(0x90000), AccessType::kLoad,
                                 static_cast<std::uint32_t>(gap)});
      PeriodicDriver ref(cfg);
      Simulation sim(cfg);
      load_trace(ref, cfg.num_cores, trace);
      load_trace(sim, cfg.num_cores, trace);
      const Tick fr = ref.run();
      const Tick fs = sim.run();
      EXPECT_EQ(fr, fs);
      EXPECT_EQ(ref.queue().now(), sim.queue().now());
      EXPECT_EQ(ref.system().mem().prefetch_fetches(),
                sim.system().mem().prefetch_fetches());
      EXPECT_EQ(ref.system().next_drain_due(), sim.system().next_drain_due());
      drained += sim.system().mem().prefetch_fetches();
      ++runs;
    }
  }
  // The sweep crosses the due tick: some runs end after draining the
  // prefetch, some before it falls due.
  EXPECT_GT(drained, 0u);
  EXPECT_LT(drained, runs);
}

TEST(UncoreWakeupCost, SleepingCoreCostsConstantEvents) {
  // One access after a 1M-cycle sleep: the periodic driver dispatched a
  // tick every 64 cycles of it (~15.6k events); the wake-up has nothing
  // to drain, so the run costs the core's own events plus the last tick.
  const std::vector<MemRequest> trace = {
      {0x1000, AccessType::kLoad, 1'000'000}};
  const SystemConfig cfg = cell_config(DefenseKind::kPiPoMonitor, 32, 0, 1024);
  PeriodicDriver ref(cfg);
  Simulation sim(cfg);
  load_trace(ref, cfg.num_cores, trace);
  load_trace(sim, cfg.num_cores, trace);
  EXPECT_EQ(ref.run(), sim.run());
  EXPECT_EQ(ref.queue().now(), sim.queue().now());
  EXPECT_GT(ref.events_dispatched(), 15'000u);
  // 4 core starts, one issue, the finishing step, the last grid tick.
  EXPECT_LE(sim.events_dispatched(), 8u);
}

}  // namespace
}  // namespace pipo

// The traced run's instruments. Everything here times calls into the
// library's public functions from the benchmark's side; the library
// itself carries no tracing.
//
//  * SpanLog keeps spans (name, start, end, parent) in memory and writes
//    them out once, at the end of the run. Per-request calls (a
//    workload's next/on_complete) are folded into one span per parent
//    with a call count, so the log stays small.
//  * traced_run drives one Simulation with every core's workload wrapped
//    in a timing decorator (Simulation::wrap_workload) that also records
//    the issue stream, then replays that stream through a fresh
//    System::access and the filter input lines (captured by a
//    FilterObserver) through a fresh AutoCuckooFilter. The replays give
//    the host time of the coherence walks and of the filter alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "filter/observer.h"
#include "sim/simulation.h"

namespace simbench {

class SpanLog {
 public:
  SpanLog() : origin_(host_now()) {}

  /// Opens a span now; returns its id (the parent handle of children).
  int begin(const std::string& name, int parent = -1);
  void end(int id);
  /// A span timed elsewhere, from `start` to `end`.
  void add(const std::string& name, int parent, Clock::time_point start,
           Clock::time_point end);
  /// A span standing for `calls` calls made inside `parent` whose
  /// durations sum to `seconds`; it is placed at the parent's start.
  void add_folded(const std::string& name, int parent, double seconds,
                  std::uint64_t calls);
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;
    int parent = -1;
    std::uint64_t calls = 1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Records the line of every filter Access (the input of
/// AutoCuckooFilter::access), in order.
class LineCapture final : public pipo::FilterObserver {
 public:
  void on_query_hit(pipo::LineAddr a, std::size_t, std::size_t) override {
    lines.push_back(a);
  }
  void on_insert_start(pipo::LineAddr a) override { lines.push_back(a); }
  std::vector<pipo::LineAddr> lines;
};

/// What timing one call costs the decorators, measured on an empty
/// timed region (median over batches): the part that lands inside the
/// measured interval, and the whole cost per timed call.
struct ClockCost {
  double in_interval_s = 0.0;
  double per_call_s = 0.0;
};
ClockCost measure_clock_cost();

/// Counters and host times summed over every traced evaluation.
struct LayerTotals {
  /// Set from measure_clock_cost() before the first traced_run; the
  /// decorators' timings are corrected by it.
  ClockCost clock;
  std::uint64_t evaluations = 0;
  // workload layer
  std::uint64_t requests = 0;
  std::uint64_t calls = 0;  ///< timed next/on_complete calls
  double workload_s = 0.0;  ///< as measured, clock reads included
  // sim layer
  double run_s = 0.0;
  double system_replay_s = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t far_events = 0;
  // cache and mem layers
  pipo::System::Stats stats;
  std::uint64_t demand_fetches = 0;
  std::uint64_t prefetch_fetches = 0;
  std::uint64_t queue_delay = 0;
  // filter layer (PiPoMonitor cells only)
  std::uint64_t filter_accesses = 0, filter_hits = 0, filter_new = 0,
                filter_kicks = 0, filter_deletions = 0;
  double filter_replay_s = 0.0;
  // pipo layer (PiPoMonitor cells only)
  std::uint64_t captures = 0, pevicts = 0, prefetches = 0,
                prefetch_fills = 0, prefetch_drops = 0,
                pipo_instructions = 0;

  /// Appends the workload, sim, cache, mem, filter and pipo metrics.
  void add_metrics(Report& rep) const;
};

/// Runs `sim` (workloads assigned; built with `capture` as its filter
/// observer and from `cfg`) under the timing decorators, replays what it
/// recorded, and adds everything to `tot`. The live and replayed filter
/// counters must agree (checked into `rep`). Returns the exec time.
pipo::Tick traced_run(pipo::Simulation& sim, LineCapture& capture,
                      const pipo::SystemConfig& cfg, LayerTotals& tot,
                      SpanLog& log, int parent, Report& rep);

}  // namespace simbench

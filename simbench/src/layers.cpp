#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "checks.h"
#include "filter/auto_cuckoo_filter.h"

namespace simbench {

int SpanLog::begin(const std::string& name, int parent) {
  const double t = seconds_between(origin_, host_now());
  spans_.push_back({name, t, t, parent, 1});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  spans_[id].end = seconds_between(origin_, host_now());
}

void SpanLog::add(const std::string& name, int parent,
                  Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, seconds_between(origin_, start),
                    seconds_between(origin_, end), parent, 1});
}

void SpanLog::add_folded(const std::string& name, int parent, double seconds,
                         std::uint64_t calls) {
  const double start = parent >= 0 ? spans_[parent].start : 0.0;
  spans_.push_back({name, start, start + seconds, parent, calls});
}

void SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"calls\": %llu}%s\n",
                 i, s.name.c_str(), s.parent, s.start, s.end,
                 static_cast<unsigned long long>(s.calls),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

ClockCost measure_clock_cost() {
  constexpr int kBatch = 100'000;
  std::vector<double> inside, whole;
  for (int b = 0; b < 7; ++b) {
    double sum = 0.0;
    const auto start = host_now();
    for (int i = 0; i < kBatch; ++i) {
      const auto t0 = host_now();
      sum += seconds_between(t0, host_now());
    }
    whole.push_back(seconds_between(start, host_now()) / kBatch);
    inside.push_back(sum / kBatch);
  }
  return {median(inside), median(whole)};
}

namespace {

/// Simulation's default uncore tick period, in cycles.
constexpr pipo::Tick kUncorePeriod = 64;

/// One access as the core issued it, in global issue order.
struct Issue {
  pipo::Tick tick;
  pipo::Addr addr;
  pipo::CoreId core;
  pipo::AccessType type;
  bool bypass;
};

/// What the decorators of one run share.
struct Probe {
  std::uint64_t requests = 0;
  std::uint64_t calls = 0;
  std::uint64_t far_events = 0;
  double workload_s = 0.0;
  std::vector<Issue> issues;
};

/// Times the wrapped workload's next/on_complete and records each
/// completed access. on_complete runs right after the core's
/// System::access, so the shared vector holds the global issue order.
class TimedWorkload final : public pipo::Workload {
 public:
  TimedWorkload(std::unique_ptr<pipo::Workload> inner, pipo::CoreId core,
                Probe& probe)
      : inner_(std::move(inner)), core_(core), probe_(probe) {}

  std::optional<pipo::MemRequest> next(pipo::Tick now) override {
    const auto t0 = host_now();
    auto req = inner_->next(now);
    probe_.workload_s += seconds_between(t0, host_now());
    ++probe_.calls;
    if (req) {
      ++probe_.requests;
      // CoreModel schedules the issue pre_delay ticks ahead.
      if (req->pre_delay >= pipo::EventQueue::kHorizon) ++probe_.far_events;
    }
    return req;
  }

  void on_complete(const pipo::MemRequest& req, pipo::Tick issued,
                   pipo::Tick completed) override {
    const auto t0 = host_now();
    inner_->on_complete(req, issued, completed);
    probe_.workload_s += seconds_between(t0, host_now());
    ++probe_.calls;
    probe_.issues.push_back(
        {issued, req.addr, core_, req.type, req.bypass_private});
    // ... and the core's next step at the completion tick.
    if (completed - issued >= pipo::EventQueue::kHorizon) {
      ++probe_.far_events;
    }
  }

 private:
  std::unique_ptr<pipo::Workload> inner_;
  pipo::CoreId core_;
  Probe& probe_;
};

}  // namespace

pipo::Tick traced_run(pipo::Simulation& sim, LineCapture& capture,
                      const pipo::SystemConfig& cfg, LayerTotals& tot,
                      SpanLog& log, int parent, Report& rep) {
  Probe probe;
  for (pipo::CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.wrap_workload(c, [&](std::unique_ptr<pipo::Workload> inner) {
      return std::make_unique<TimedWorkload>(std::move(inner), c, probe);
    });
  }
  const int run_span = log.begin("sim.run", parent);
  const auto t0 = host_now();
  const pipo::Tick exec = sim.run();
  tot.run_s += seconds_between(t0, host_now());
  log.end(run_span);
  log.add_folded("workload.calls", run_span, probe.workload_s, probe.calls);

  const pipo::System& sys = sim.system();
  const pipo::System::Stats& st = sys.stats();
  ++tot.evaluations;
  tot.requests += probe.requests;
  tot.calls += probe.calls;
  tot.workload_s += probe.workload_s;
  tot.instructions += sim.total_instructions();
  tot.cycles += exec;
  tot.far_events += probe.far_events;
  tot.stats += st;
  pipo::MemController& mem = sim.system().mem();
  tot.demand_fetches += mem.demand_fetches();
  tot.prefetch_fetches += mem.prefetch_fetches();
  tot.queue_delay += mem.total_queue_delay();

  // The issue stream through a fresh System: the coherence walks alone.
  // The live run's last drain is its uncore tick after the last core
  // finished; with it the replay does the live run's work exactly.
  {
    pipo::System fresh(cfg);
    const int span = log.begin("system.replay", parent);
    const auto s0 = host_now();
    for (const Issue& i : probe.issues) {
      fresh.access(i.tick, i.core, i.addr, i.type, i.bypass);
    }
    fresh.drain_prefetches((exec / kUncorePeriod + 1) * kUncorePeriod);
    tot.system_replay_s += seconds_between(s0, host_now());
    log.end(span);
    rep.check("system replay", check_same_run(0, st, 0, fresh.stats()));
  }

  if (cfg.defense == pipo::DefenseKind::kPiPoMonitor) {
    const pipo::AutoCuckooFilter& live = sys.monitor().filter();
    pipo::AutoCuckooFilter fresh(cfg.monitor.filter);
    const int span = log.begin("filter.replay", parent);
    const auto f0 = host_now();
    for (pipo::LineAddr line : capture.lines) fresh.access(line);
    tot.filter_replay_s += seconds_between(f0, host_now());
    log.end(span);
    if (fresh.accesses() != live.accesses() || fresh.hits() != live.hits() ||
        fresh.new_entries() != live.new_entries() ||
        fresh.total_kicks() != live.total_kicks() ||
        fresh.autonomic_deletions() != live.autonomic_deletions()) {
      rep.check("filter replay",
                "replayed counters differ from the live filter's");
    }
    tot.filter_accesses += live.accesses();
    tot.filter_hits += live.hits();
    tot.filter_new += live.new_entries();
    tot.filter_kicks += live.total_kicks();
    tot.filter_deletions += live.autonomic_deletions();
    tot.captures += sys.active_monitor().captures();
    tot.prefetches += sys.active_monitor().prefetches_issued();
    tot.pevicts += st.pevicts;
    tot.prefetch_fills += st.prefetch_fills;
    tot.prefetch_drops += st.prefetch_drops;
    tot.pipo_instructions += sim.total_instructions();
  }
  capture.lines.clear();
  return exec;
}

void LayerTotals::add_metrics(Report& rep) const {
  auto ns_per = [](double s, std::uint64_t n) {
    return n ? s * 1e9 / static_cast<double>(n) : 0.0;
  };
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const std::uint64_t accesses = stats.accesses;
  // Timing costs each call clock.per_call_s, of which in_interval_s
  // lands inside the measured interval. A workload call cheaper than the
  // clock's resolution can correct below zero; it is reported as 0.
  const double n = static_cast<double>(calls);
  const double wl_s = std::max(0.0, workload_s - n * clock.in_interval_s);
  const double self_s = run_s - n * clock.per_call_s - wl_s;
  rep.add("workload.requests", static_cast<double>(requests), "count");
  rep.add("workload.self_s", wl_s, "s");
  rep.add("workload.ns_per_request", ns_per(wl_s, requests), "ns");
  rep.add("sim.run_s", run_s, "s");
  rep.add("sim.accesses", static_cast<double>(accesses), "count");
  rep.add("sim.instructions", static_cast<double>(instructions), "count");
  rep.add("sim.cycles", static_cast<double>(cycles), "count");
  rep.add("sim.far_events", static_cast<double>(far_events), "count");
  rep.add("sim.self_ns_per_access", ns_per(self_s, accesses), "ns");
  rep.add("sim.system_ns_per_access", ns_per(system_replay_s, accesses),
          "ns");
  rep.add("sim.engine_ns_per_access",
          ns_per(self_s - system_replay_s, accesses), "ns");
  rep.add("cache.l1_hits", static_cast<double>(stats.l1_hits), "count");
  rep.add("cache.l2_hits", static_cast<double>(stats.l2_hits), "count");
  rep.add("cache.l3_hits", static_cast<double>(stats.l3_hits), "count");
  rep.add("cache.l3_misses", static_cast<double>(stats.l3_misses), "count");
  rep.add("cache.back_invalidations",
          static_cast<double>(stats.back_invalidations), "count");
  rep.add("cache.l2_evictions", static_cast<double>(stats.l2_evictions),
          "count");
  rep.add("cache.writebacks", static_cast<double>(stats.writebacks), "count");
  rep.add("mem.demand_fetches", static_cast<double>(demand_fetches), "count");
  rep.add("mem.prefetch_fetches", static_cast<double>(prefetch_fetches),
          "count");
  rep.add("mem.queue_delay_cycles", static_cast<double>(queue_delay),
          "cycles");
  rep.add("filter.accesses", static_cast<double>(filter_accesses), "count");
  rep.add("filter.hits", static_cast<double>(filter_hits), "count");
  rep.add("filter.new_entries", static_cast<double>(filter_new), "count");
  rep.add("filter.kicks", static_cast<double>(filter_kicks), "count");
  rep.add("filter.autonomic_deletions",
          static_cast<double>(filter_deletions), "count");
  rep.add("filter.kicks_per_insert", ratio(filter_kicks, filter_new),
          "ratio");
  rep.add("filter.ns_per_access", ns_per(filter_replay_s, filter_accesses),
          "ns");
  rep.add("pipo.captures", static_cast<double>(captures), "count");
  rep.add("pipo.pevicts", static_cast<double>(pevicts), "count");
  rep.add("pipo.prefetches", static_cast<double>(prefetches), "count");
  rep.add("pipo.prefetch_fills", static_cast<double>(prefetch_fills),
          "count");
  rep.add("pipo.prefetch_drops", static_cast<double>(prefetch_drops),
          "count");
  rep.add("pipo.fp_per_mi",
          pipo_instructions
              ? static_cast<double>(prefetches) * 1e6 /
                    static_cast<double>(pipo_instructions)
              : 0.0,
          "1/MI");
  rep.add("pipo.prefetch_useful",
          ratio(prefetch_fills, prefetch_fills + prefetch_drops), "ratio");
  rep.add("trace.clock_ns_per_call", clock.per_call_s * 1e9, "ns");
}

}  // namespace simbench

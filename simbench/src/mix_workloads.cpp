// The two benign-traffic workloads: mix_grid (Table III mixes generated
// live) and trace_replay (the same mixes captured to framed traces in
// set-up, then replayed). Both time the same ten mixes under the same six
// defenses on the Table II machine, serial engine, one thread.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "analysis/perf_experiment.h"
#include "bench.h"
#include "checks.h"
#include "fabric/campaign.h"
#include "fuzz/scenario.h"
#include "layers.h"
#include "sim/simulation.h"
#include "workload/mixes.h"
#include "workload/stream_trace.h"

namespace simbench {

namespace {

namespace fs = std::filesystem;
using pipo::DefenseKind;
using pipo::Simulation;
using pipo::SystemConfig;
using pipo::Tick;

constexpr std::uint64_t kWsDivisor = 16;  // the campaign default ws_div

/// Known fault (src/sim/system.cpp, System::access): under RIC an L3 hit
/// on a line no core holds still grants Exclusive, so a never-written
/// line kept as a relaxed-inclusion orphan can be stored to silently and
/// become a Modified line the inclusive L3 lacks; check_invariants()
/// then reports it "missing from the inclusive L3". Which inputs show it
/// depends on the generator seed (mix1 at seed 11, mix5 at seed 12, none
/// of the other mixes or of seeds 1-16), so the ric column runs on the
/// inputs of seed 11 whatever --seed is: the fault then shows on the same
/// evaluation in every run.
constexpr std::uint64_t kRicSeed = 11;
/// The evaluation that fails its invariants on those inputs, counted in
/// `failed` (100k instructions per core; the reduced size passes).
constexpr unsigned kRicFaultMix = 1;

std::uint64_t instr_budget(const Options& opt) {
  return opt.small ? 10'000 : 100'000;
}

struct Cell {
  unsigned mix;
  DefenseKind defense;
  std::uint64_t seed;  ///< the mix's generator seed
  SystemConfig cfg;
  std::string name;
};

/// The grid, mixes outer and defenses inner; the serial engine. Every
/// cell but ric's takes its inputs from `seed`.
std::vector<Cell> build_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  for (unsigned m = 1; m <= pipo::num_mixes(); ++m) {
    for (DefenseKind d : pipo::all_defenses()) {
      SystemConfig cfg = SystemConfig::with_defense(d);
      cfg.shard_threads = 0;
      cfg.validate();
      cells.push_back({m, d, d == DefenseKind::kRic ? kRicSeed : seed, cfg,
                       "mix" + std::to_string(m) + "/" +
                           pipo::defense_short_name(d)});
    }
  }
  return cells;
}

bool known_fault_cell(const Cell& cell) {
  return cell.defense == DefenseKind::kRic && cell.mix == kRicFaultMix;
}

/// What an evaluation leaves behind for the checks.
struct EvalResult {
  Tick exec = 0;
  pipo::System::Stats stats;
  std::vector<std::uint64_t> core_instr;
  std::uint64_t instructions = 0;
  std::uint64_t prefetches = 0;  ///< the active defense's prefetches
};

EvalResult collect(Simulation& sim, Tick exec) {
  EvalResult r;
  r.exec = exec;
  r.stats = sim.system().stats();
  for (pipo::CoreId c = 0; c < sim.num_cores(); ++c) {
    r.core_instr.push_back(sim.core(c).instructions());
  }
  r.instructions = sim.total_instructions();
  r.prefetches = sim.system().active_monitor().prefetches_issued();
  return r;
}

/// The simulated results, recorded on stderr and not gated: each
/// defense's normalized performance (undefended exec_time / defended)
/// per mix, and PiPoMonitor's false positives (prefetches) per million
/// instructions. Ric, on other inputs than the undefended cell, reports
/// its execution time instead.
void print_simulated(const std::vector<Cell>& cells,
                     const std::vector<EvalResult>& round) {
  std::map<unsigned, Tick> undefended;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].defense == DefenseKind::kNone) {
      undefended[cells[i].mix] = round[i].exec;
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (c.defense == DefenseKind::kNone) {
      std::fprintf(stderr, "simulated: mix%u perf", c.mix);
      continue;
    }
    if (c.defense == DefenseKind::kRic) {
      std::fprintf(stderr, " ric_exec=%llu (seed %llu inputs)",
                   static_cast<unsigned long long>(round[i].exec),
                   static_cast<unsigned long long>(c.seed));
    } else {
      std::fprintf(stderr, " %s=%.4f", pipo::defense_short_name(c.defense),
                   static_cast<double>(undefended[c.mix]) /
                       static_cast<double>(round[i].exec));
    }
    if (c.defense == DefenseKind::kPiPoMonitor) {
      std::fprintf(stderr, " (pipo fp_per_mi=%.2f)",
                   static_cast<double>(round[i].prefetches) * 1e6 /
                       static_cast<double>(round[i].instructions));
    }
    if (i + 1 == cells.size() || cells[i + 1].mix != c.mix) {
      std::fprintf(stderr, "\n");
    }
  }
}

/// The checks every evaluation of both workloads must pass. The one
/// evaluation on which the known RIC fault shows is counted as failed
/// when its invariants are broken; it fails every run alike.
void check_eval(const Cell& cell, Simulation& sim, const EvalResult& r,
                std::uint64_t budget, Report& rep) {
  const std::string at = " [" + cell.name + "]";
  rep.check("hit identity" + at, check_hit_identity(r.stats));
  const std::string violation = sim.system().check_invariants();
  if (known_fault_cell(cell) && !violation.empty()) {
    ++rep.failed;
    std::fprintf(stderr, "simbench: failed evaluation: invariants%s: %s\n",
                 at.c_str(), violation.c_str());
  } else {
    rep.check("invariants" + at, violation);
  }
  rep.check("instruction budget" + at,
            check_instr_budget(r.core_instr, budget));
  rep.check("no monitor activity" + at,
            check_no_monitor_activity(cell.defense, r.stats));
}

/// PiPoMonitor's negligible slowdown, per mix, and the reproducibility
/// of every cell against the first round.
void check_round(const std::vector<Cell>& cells,
                 const std::vector<EvalResult>& round,
                 const std::vector<EvalResult>& first, Report& rep) {
  std::map<unsigned, Tick> undefended;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].defense == DefenseKind::kNone) {
      undefended[cells[i].mix] = round[i].exec;
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].defense == DefenseKind::kPiPoMonitor) {
      rep.check("pipo slowdown [" + cells[i].name + "]",
                check_slowdown(undefended[cells[i].mix], round[i].exec, 0.01));
    }
    if (&round != &first) {
      rep.check("repeated evaluation [" + cells[i].name + "]",
                check_same_run(first[i].exec, first[i].stats, round[i].exec,
                               round[i].stats));
    }
  }
}

/// The round inputs of one workload: set up per round, consumed by the
/// round's evaluations.
class Inputs {
 public:
  virtual ~Inputs() = default;
  /// Builds everything the round's evaluations read; timed as set-up.
  virtual void setup(const std::vector<Cell>& cells) = 0;
  /// Assigns cell `i`'s workloads to `sim`.
  virtual void assign(std::size_t i, const Cell& cell, Simulation& sim) = 0;
};

class MixInputs final : public Inputs {
 public:
  explicit MixInputs(std::uint64_t budget) : budget_(budget) {}

  void setup(const std::vector<Cell>& cells) override {
    gens_.clear();
    for (const Cell& cell : cells) {
      gens_.push_back(
          pipo::make_mix(cell.mix, budget_, cell.seed, kWsDivisor));
    }
  }

  void assign(std::size_t i, const Cell&, Simulation& sim) override {
    auto& wls = gens_[i];
    for (pipo::CoreId c = 0; c < wls.size(); ++c) {
      sim.set_workload(c, std::move(wls[c]));
    }
  }

 private:
  std::uint64_t budget_;
  std::vector<std::vector<std::unique_ptr<pipo::Workload>>> gens_;
};

class TraceInputs final : public Inputs {
 public:
  TraceInputs(std::uint64_t budget, std::string dir)
      : budget_(budget), dir_(std::move(dir)) {}

  std::string mix_dir(std::uint64_t seed, unsigned mix) const {
    return dir_ + "/seed" + std::to_string(seed) + "/mix" +
           std::to_string(mix);
  }

  /// Captures every (seed, mix) the cells read undefended into framed v3
  /// traces.
  void setup(const std::vector<Cell>& cells) override {
    fs::remove_all(dir_);
    live_.clear();
    for (const Cell& cell : cells) {
      const Key key{cell.seed, cell.mix};
      if (live_.count(key)) continue;
      const pipo::TraceCapture cap{mix_dir(cell.seed, cell.mix),
                                   pipo::TraceFormat::kFramedV3};
      live_.emplace(key, pipo::run_mix_perf(cell.mix, capture_config(),
                                            budget_, cell.seed, kWsDivisor,
                                            &cap));
    }
  }

  void assign(std::size_t, const Cell& cell, Simulation& sim) override {
    // run_trace_perf's wiring, kept open so the checks see the System.
    pipo::assign_trace_scenario(sim, mix_dir(cell.seed, cell.mix), 0,
                                /*prefetch=*/false);
  }

  static SystemConfig capture_config() {
    SystemConfig cfg = SystemConfig::baseline();
    cfg.shard_threads = 0;
    return cfg;
  }
  using Key = std::pair<std::uint64_t, unsigned>;  ///< (seed, mix)
  const std::map<Key, pipo::MixPerfResult>& live() const { return live_; }

  /// Bytes of every captured trace file.
  std::uint64_t trace_bytes() const {
    std::uint64_t n = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir_)) {
      if (e.is_regular_file()) n += e.file_size();
    }
    return n;
  }

 private:
  std::uint64_t budget_;
  std::string dir_;
  std::map<Key, pipo::MixPerfResult> live_;
};

/// Records the requests a workload hands out.
class Recorder final : public pipo::Workload {
 public:
  Recorder(std::unique_ptr<pipo::Workload> inner,
           std::vector<pipo::MemRequest>& out)
      : inner_(std::move(inner)), out_(out) {}
  std::optional<pipo::MemRequest> next(Tick now) override {
    auto r = inner_->next(now);
    if (r) out_.push_back(*r);
    return r;
  }
  void on_complete(const pipo::MemRequest& req, Tick issued,
                   Tick completed) override {
    inner_->on_complete(req, issued, completed);
  }

 private:
  std::unique_ptr<pipo::Workload> inner_;
  std::vector<pipo::MemRequest>& out_;
};

/// Each captured trace decodes to exactly the requests the live run
/// issued (the live run repeated with an in-memory recorder).
void check_decode(const TraceInputs& in, std::uint64_t budget,
                  Report& rep) {
  for (const auto& [key, live] : in.live()) {
    const auto [seed, m] = key;
    const SystemConfig cfg = TraceInputs::capture_config();
    Simulation sim(cfg);
    auto wls = pipo::make_mix(m, budget, seed, kWsDivisor);
    std::vector<std::vector<pipo::MemRequest>> issued(wls.size());
    for (pipo::CoreId c = 0; c < wls.size(); ++c) {
      sim.set_workload(
          c, std::make_unique<Recorder>(std::move(wls[c]), issued[c]));
    }
    sim.run();
    for (pipo::CoreId c = 0; c < issued.size(); ++c) {
      pipo::TraceReader reader(in.mix_dir(seed, m) + "/core" +
                               std::to_string(c) + ".trace");
      std::vector<pipo::MemRequest> decoded;
      pipo::MemRequest buf[4096];
      while (const std::size_t n = reader.fill(buf, 4096)) {
        decoded.insert(decoded.end(), buf, buf + n);
      }
      rep.check("trace decode [seed" + std::to_string(seed) + "/mix" +
                    std::to_string(m) + "/core" + std::to_string(c) + "]",
                check_same_requests(issued[c], decoded));
    }
  }
}

/// Runs rounds of the grid. Only each evaluation (building the
/// Simulation, assigning the round's inputs, running) is timed; its
/// checks run after.
Report run_grid(const Options& opt, bool replay) {
  Report rep;
  const std::uint64_t budget = instr_budget(opt);
  const std::string trace_dir =
      opt.work_dir + "/traces-" + (replay ? "replay" : "mix");
  std::unique_ptr<Inputs> inputs;
  TraceInputs* traces = nullptr;
  if (replay) {
    auto t = std::make_unique<TraceInputs>(budget, trace_dir);
    traces = t.get();
    inputs = std::move(t);
  } else {
    inputs = std::make_unique<MixInputs>(budget);
  }

  std::vector<double> setup_s, evals_per_s;
  double untraced_run_s = 0.0;  // sim.run() alone, first round
  std::vector<std::vector<EvalResult>> rounds;
  std::vector<Cell> cells;
  SpanLog spans;
  LayerTotals layers;
  if (opt.trace) layers.clock = measure_clock_cost();

  // Untraced rounds run until --seconds have passed (at least two, so
  // the repeated-evaluation check always has a pair). The traced run
  // makes one untraced and one traced round.
  const auto start = host_now();
  for (std::size_t r = 0;; ++r) {
    const bool traced = opt.trace && r == 1;
    const int round_span = traced ? spans.begin("round") : -1;
    const auto s0 = host_now();
    cells = build_cells(opt.seed);
    inputs->setup(cells);
    setup_s.push_back(seconds_between(s0, host_now()));

    std::vector<EvalResult> results;
    double eval_s = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ++rep.attempted;
      try {
        const auto t0 = host_now();
        LineCapture capture;
        Simulation sim(cells[i].cfg, traced ? &capture : nullptr);
        inputs->assign(i, cells[i], sim);
        Tick exec;
        if (traced) {
          const int span = spans.begin("eval " + cells[i].name, round_span);
          exec = traced_run(sim, capture, cells[i].cfg, layers, spans, span,
                            rep);
          spans.end(span);
        } else {
          const auto r0 = host_now();
          exec = sim.run();
          const auto r1 = host_now();
          eval_s += seconds_between(t0, r1);
          if (r == 0) untraced_run_s += seconds_between(r0, r1);
        }
        results.push_back(collect(sim, exec));
        check_eval(cells[i], sim, results.back(), budget, rep);
        if (replay && cells[i].defense == DefenseKind::kNone) {
          const pipo::MixPerfResult& live =
              traces->live().at({cells[i].seed, cells[i].mix});
          rep.check("replay reproduces the live run [" + cells[i].name + "]",
                    check_same_run(live.exec_time, live.stats,
                                   results.back().exec,
                                   results.back().stats));
        }
      } catch (const std::exception& e) {
        ++rep.failed;
        rep.check("evaluation [" + cells[i].name + "]", e.what());
        results.emplace_back();
      }
    }
    if (traced) {
      spans.end(round_span);
    } else {
      evals_per_s.push_back(static_cast<double>(cells.size()) / eval_s);
    }
    rounds.push_back(std::move(results));
    check_round(cells, rounds.back(), rounds.front(), rep);
    if (opt.trace ? r == 1
                  : r >= 1 && seconds_between(start, host_now()) >= opt.seconds) {
      break;
    }
  }
  const double rss = peak_rss_mib();
  if (replay) check_decode(*traces, budget, rep);
  print_simulated(cells, rounds.front());

  if (!opt.trace) {
    rep.add("setup_s", median(setup_s), "s");
    rep.add("evals_per_s", median(evals_per_s), "1/s");
    rep.add("peak_rss_mb", rss, "MiB");
  } else {
    layers.add_metrics(rep);
    rep.add("fuzz.candidates", 0, "count");
    rep.add("fuzz.evaluations", 0, "count");
    rep.add("fuzz.significant", 0, "count");
    rep.add("fuzz.novel_signatures", 0, "count");
    rep.add("fuzz.generation_s_p50", 0, "s");
    rep.add("analysis.scoring_s", 0, "s");
    rep.add("fabric.overhead_s", 0, "s");
    rep.add("setup.capture_s", replay ? median(setup_s) : 0.0, "s");
    double bytes_per_request = 0.0;
    if (replay) {
      std::uint64_t requests = 0;
      for (const auto& [key, live] : traces->live()) {
        requests += live.stats.accesses;
      }
      bytes_per_request = static_cast<double>(traces->trace_bytes()) /
                          static_cast<double>(requests);
    }
    rep.add("setup.trace_bytes_per_request", bytes_per_request, "B");
    // Traced sim.run() (decorators on) against the untraced round's.
    rep.add("trace.overhead_pct",
            100.0 * (layers.run_s / untraced_run_s - 1.0), "%");
    spans.write_json(opt.work_dir + "/spans-" +
                     (replay ? "trace_replay" : "mix_grid") + ".json");
  }
  fs::remove_all(trace_dir);
  return rep;
}

}  // namespace

Report run_mix_grid(const Options& opt) { return run_grid(opt, false); }
Report run_trace_replay(const Options& opt) { return run_grid(opt, true); }

}  // namespace simbench

// fuzz_campaign: a fixed-seed Fuzzer campaign (cells none and pipo on
// the mini machine, default perm_rounds) through the fabric's in-process
// coordinator with two workers — attack traffic, where the Auto-Cuckoo
// filter and PiPoMonitor capture and prefetch on most evaluations. Also
// home of the Fig 6 Prime+Probe check on the Table II machine.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/perf_experiment.h"
#include "attack/attack_experiment.h"
#include "attack/victim.h"
#include "bench.h"
#include "checks.h"
#include "fuzz/fuzzer.h"
#include "fuzz/scenario.h"
#include "layers.h"

namespace simbench {

namespace {

namespace fs = std::filesystem;
using pipo::DefenseKind;

/// The campaign's seed is fixed: it sets the evolution path, and with it
/// the genotypes and so the work per evaluation (seeds 1 and 3 differ by
/// a quarter in evaluations per second). The workload seed draws the
/// Fig 6 key instead.
constexpr std::uint64_t kCampaignSeed = 1;

/// Fuzzer constructions timed together as one round's set-up: setup_s
/// on this workload is the warm cost of one construction.
constexpr int kSetupReps = 100;

pipo::FuzzerConfig fuzz_config(const Options& opt, unsigned workers) {
  pipo::FuzzerConfig cfg;
  cfg.seed = kCampaignSeed;
  cfg.workers = workers;
  if (opt.small) {
    cfg.population = 6;
    cfg.generations = 2;
  }
  return cfg;
}

/// Timestamps every line written to it: the end of each generation,
/// taken from FuzzerConfig::progress.
class LineStamps final : public std::streambuf {
 public:
  std::vector<Clock::time_point> stamps;

 protected:
  int_type overflow(int_type ch) override {
    if (ch == '\n') stamps.push_back(host_now());
    return ch;
  }
};

/// The checks every campaign must pass.
void check_campaign(const pipo::FuzzReport& report, Report& rep) {
  rep.check("failed evaluations",
            report.failed == 0 ? "" : std::to_string(report.failed) +
                                          " error records");
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    rep.check("record " + std::to_string(i),
              check_fuzz_record(parse_fuzz_record(report.records[i])));
  }
  bool undefended_find = false;
  for (const pipo::FuzzFind& f : report.best) {
    undefended_find |= f.defense == DefenseKind::kNone;
  }
  rep.check("undefended significant find",
            undefended_find ? "" : "no significant find on the none cell");
}

/// Fig 6 on the Table II machine: 100 rounds at 5000 cycles, the key
/// drawn from the workload seed.
void check_prime_probe(const Options& opt, Report& rep) {
  pipo::PrimeProbeExperimentConfig cfg;
  cfg.iterations = 100;
  cfg.interval = 5000;
  cfg.key = pipo::make_test_key(cfg.iterations, opt.seed);
  cfg.system = pipo::SystemConfig::baseline();
  const auto undefended = pipo::run_prime_probe_experiment(cfg);
  cfg.system = pipo::SystemConfig::paper_default();
  const auto defended = pipo::run_prime_probe_experiment(cfg);
  std::size_t ones = 0;
  for (bool b : defended.truth_multiply) ones += b;
  const double share =
      static_cast<double>(ones) / static_cast<double>(cfg.iterations);
  std::fprintf(stderr,
               "simulated: fig6 key recovery undefended=%.2f pipo=%.2f "
               "(trivial guess %.2f)\n",
               undefended.key_accuracy, defended.key_accuracy,
               std::max(share, 1.0 - share));
  rep.check("fig6 prime+probe",
            check_fig6(undefended.key_accuracy, defended.key_accuracy,
                       std::max(share, 1.0 - share)));
}

/// Traced-run attribution of the campaign's layers, measured by running
/// the library's functions again on the traced campaign's evaluations.
void attribute(const Options& opt, const pipo::FuzzerConfig& cfg,
               const pipo::FuzzReport& report,
               const std::vector<std::string>& first_records, SpanLog& spans,
               Report& rep) {
  const std::size_t n_def = cfg.defenses.size();
  std::vector<pipo::SystemConfig> cell_cfg;
  for (DefenseKind d : cfg.defenses) {
    cell_cfg.push_back(pipo::fuzz_system_config(
        {d, cfg.inclusion, cfg.slice_hash, cfg.monitor_level}));
  }

  // analysis: every evaluation re-run with and without the permutation
  // test; the difference is the leakage scorer's time.
  double full_s = 0.0, bare_s = 0.0;
  const int score_span = spans.begin("analysis.rescore");
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const FuzzRecord rec = parse_fuzz_record(report.records[i]);
    const auto g = pipo::ScenarioGenotype::parse(rec.genotype);
    const pipo::SystemConfig& sys = cell_cfg[i % n_def];
    const auto t0 = host_now();
    const pipo::ScenarioOutcome full =
        pipo::run_fuzz_scenario(g, sys, cfg.perm_rounds);
    const auto t1 = host_now();
    pipo::run_fuzz_scenario(g, sys, 0);
    const auto t2 = host_now();
    full_s += seconds_between(t0, t1);
    bare_s += seconds_between(t1, t2);
    if (std::fabs(full.mi_bits - rec.mi_bits) > 1e-6 ||
        std::fabs(full.p_value - rec.p_value) > 1e-6) {
      rep.check("scenario rerun [record " + std::to_string(i) + "]",
                "mi/p differ from the campaign record");
    }
  }
  spans.end(score_span);

  // fabric: a 1-worker campaign minus the scenario time it contains.
  pipo::Fuzzer one_worker(fuzz_config(opt, 1));
  const int fabric_span = spans.begin("fabric.one_worker_campaign");
  const auto f0 = host_now();
  const pipo::FuzzReport one = one_worker.run();
  const double one_s = seconds_between(f0, host_now());
  spans.end(fabric_span);
  rep.check("1-worker campaign matches",
            check_record_prefix(first_records, one.records,
                                first_records.size()));

  // sim and below: the first generation's evaluations captured and
  // replayed through an instrumented Simulation.
  LayerTotals layers;
  layers.clock = measure_clock_cost();
  const std::string dir = opt.work_dir + "/traces-fuzz";
  const std::size_t n_first = std::size_t{cfg.population} * n_def;
  const int replay_span = spans.begin("layers.replay");
  for (std::size_t i = 0; i < n_first && i < report.records.size(); ++i) {
    const FuzzRecord rec = parse_fuzz_record(report.records[i]);
    const auto g = pipo::ScenarioGenotype::parse(rec.genotype);
    const pipo::SystemConfig& sys = cell_cfg[i % n_def];
    fs::remove_all(dir);
    const pipo::TraceCapture cap{dir, pipo::TraceFormat::kFramedV3};
    const pipo::ScenarioOutcome live =
        pipo::run_fuzz_scenario(g, sys, cfg.perm_rounds, &cap);
    LineCapture lines;
    pipo::Simulation sim(sys, &lines);
    pipo::assign_trace_scenario(sim, dir);
    const int span = spans.begin("eval record " + std::to_string(i),
                                 replay_span);
    traced_run(sim, lines, sys, layers, spans, span, rep);
    spans.end(span);
    rep.check("scenario replay [record " + std::to_string(i) + "]",
              check_same_run(0, live.stats, 0, sim.system().stats()));
  }
  spans.end(replay_span);
  fs::remove_all(dir);

  layers.add_metrics(rep);
  rep.add("fuzz.candidates", static_cast<double>(report.candidates), "count");
  rep.add("fuzz.evaluations", static_cast<double>(report.evaluations),
          "count");
  rep.add("fuzz.significant", static_cast<double>(report.significant),
          "count");
  rep.add("fuzz.novel_signatures",
          static_cast<double>(report.novel_signatures), "count");
  rep.add("analysis.scoring_s", full_s - bare_s, "s");
  rep.add("fabric.overhead_s", one_s - full_s, "s");
  rep.add("setup.capture_s", 0.0, "s");
  rep.add("setup.trace_bytes_per_request", 0.0, "B");
}

}  // namespace

Report run_fuzz_campaign(const Options& opt) {
  Report rep;
  std::vector<double> setup_s, evals_per_s, campaign_s;
  std::vector<std::string> first_records;
  pipo::FuzzReport traced_report;
  std::vector<double> gen_s;  // traced campaign's generations
  LineStamps stamps;
  std::ostream progress(&stamps);
  SpanLog spans;
  pipo::FuzzerConfig cfg;

  // Untraced campaigns run until --seconds have passed (at least two);
  // the traced run makes one untraced and one traced campaign.
  const auto start = host_now();
  for (std::size_t r = 0;; ++r) {
    const bool traced = opt.trace && r == 1;
    // The campaign's set-up is building its Fuzzer, well under a
    // microsecond: a single cold construction drifted by a quarter
    // between two sets of runs, so each round times a block of
    // constructions (the campaign runs the last) and reports the mean,
    // the warm cost of one construction.
    std::optional<pipo::Fuzzer> fuzzer;
    const auto s0 = host_now();
    for (int k = 0; k < kSetupReps; ++k) {
      cfg = fuzz_config(opt, 2);
      if (traced) cfg.progress = &progress;
      fuzzer.emplace(cfg);
    }
    setup_s.push_back(seconds_between(s0, host_now()) / kSetupReps);

    const int span = traced ? spans.begin("fuzz.campaign") : -1;
    const auto t0 = host_now();
    pipo::FuzzReport report = fuzzer->run();
    const double t = seconds_between(t0, host_now());
    if (traced) {
      spans.end(span);
      // Each progress line closes a generation.
      Clock::time_point prev = t0;
      for (const Clock::time_point& stamp : stamps.stamps) {
        spans.add("fuzz.generation", span, prev, stamp);
        gen_s.push_back(seconds_between(prev, stamp));
        prev = stamp;
      }
    }
    campaign_s.push_back(t);
    evals_per_s.push_back(static_cast<double>(report.evaluations) / t);
    rep.attempted += report.evaluations;
    rep.failed += report.failed;

    check_campaign(report, rep);
    if (r == 0) {
      first_records = report.records;
    } else {
      rep.check("repeated campaign",
                report.records == first_records ? "" : "records differ");
    }
    if (traced) traced_report = std::move(report);
    if (opt.trace ? r == 1
                  : r >= 1 && seconds_between(start, host_now()) >= opt.seconds) {
      break;
    }
  }
  const double rss = peak_rss_mib();
  check_prime_probe(opt, rep);

  if (!opt.trace) {
    // An untimed 1-worker run of the first generations reproduces the
    // campaign's records byte for byte.
    pipo::FuzzerConfig one = fuzz_config(opt, 1);
    one.generations = std::min<std::uint32_t>(2, one.generations);
    const pipo::FuzzReport head = pipo::Fuzzer(one).run();
    rep.check("1-worker campaign matches",
              check_record_prefix(first_records, head.records,
                                  std::size_t{one.generations} *
                                      one.population * one.defenses.size()));
    rep.add("setup_s", median(setup_s), "s");
    rep.add("evals_per_s", median(evals_per_s), "1/s");
    rep.add("peak_rss_mb", rss, "MiB");
    return rep;
  }

  attribute(opt, cfg, traced_report, first_records, spans, rep);
  rep.add("fuzz.generation_s_p50", median(gen_s), "s");
  rep.add("trace.overhead_pct",
          100.0 * (campaign_s[1] / campaign_s[0] - 1.0), "%");
  spans.write_json(opt.work_dir + "/spans-fuzz_campaign.json");
  return rep;
}

}  // namespace simbench

// The checks' teeth: every correctness check is fed a result that must
// fail it, next to the genuine result that must pass it. Run with
// `simbench --selftest` (run.py --check runs it first).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/perf_experiment.h"
#include "bench.h"
#include "checks.h"
#include "fuzz/fuzzer.h"

namespace simbench {

namespace {

struct Tally {
  int cases = 0;
  int bad = 0;
  /// `detail` is a check's verdict; `want_fail` what it must be.
  void expect(const std::string& name, const std::string& detail,
              bool want_fail) {
    ++cases;
    const bool failed = !detail.empty();
    if (failed == want_fail) return;
    ++bad;
    std::fprintf(stderr, "selftest: %s: check %s%s%s\n", name.c_str(),
                 want_fail ? "accepted a result it must reject"
                           : "rejected a genuine result",
                 failed ? ": " : "", detail.c_str());
  }
};

std::string replace_field(const std::string& rec, const std::string& key,
                          const std::string& value) {
  const std::string tag = "\"" + key + "\": ";
  const auto pos = rec.find(tag) + tag.size();
  const auto end = rec.find(',', pos);
  return rec.substr(0, pos) + value + rec.substr(end);
}

}  // namespace

int run_selftest(const std::string& work_dir) {
  Tally t;
  constexpr std::uint64_t kBudget = 10'000;

  // A genuine mix run, captured, for the Stats and replay checks.
  const std::string dir = work_dir + "/selftest-mix";
  std::filesystem::remove_all(dir);
  const pipo::SystemConfig base = pipo::SystemConfig::baseline();
  const pipo::TraceCapture cap{dir, pipo::TraceFormat::kFramedV3};
  const pipo::MixPerfResult live =
      pipo::run_mix_perf(1, base, kBudget, 7, 16, &cap);
  t.expect("hit identity, genuine", check_hit_identity(live.stats), false);
  t.expect("same run, genuine",
           check_same_run(live.exec_time, live.stats, live.exec_time,
                          live.stats),
           false);
  {
    pipo::System::Stats s = live.stats;
    ++s.l1_hits;
    t.expect("hit identity, l1_hits off by one", check_hit_identity(s), true);
  }
  // Every Stats field off by one must break check_same_run.
  for (const StatsField& f : kStatsFields) {
    pipo::System::Stats s = live.stats;
    ++(s.*f.member);
    t.expect(std::string("same run, ") + f.name + " off by one",
             check_same_run(live.exec_time, live.stats, live.exec_time, s),
             true);
  }
  t.expect("same run, exec_time off by one",
           check_same_run(live.exec_time, live.stats, live.exec_time + 1,
                          live.stats),
           true);

  // Replays: under the capturing config, and under another machine.
  const pipo::MixPerfResult same = pipo::run_trace_perf(dir, base);
  t.expect("replay under the capturing config",
           check_same_run(live.exec_time, live.stats, same.exec_time,
                          same.stats),
           false);
  pipo::SystemConfig other = base;
  other.mem.dram_latency += 50;
  const pipo::MixPerfResult moved = pipo::run_trace_perf(dir, other);
  t.expect("replay under a slower-DRAM machine",
           check_same_run(live.exec_time, live.stats, moved.exec_time,
                          moved.stats),
           true);
  std::filesystem::remove_all(dir);

  t.expect("instruction budget, genuine",
           check_instr_budget({kBudget, kBudget + 3}, kBudget), false);
  t.expect("instruction budget, one core short",
           check_instr_budget({kBudget, kBudget - 1}, kBudget), true);
  {
    pipo::System::Stats s = live.stats;
    t.expect("no monitor activity, genuine",
             check_no_monitor_activity(pipo::DefenseKind::kSharp, s), false);
    s.prefetch_fills = 1;
    t.expect("no monitor activity, a prefetch fill under ric",
             check_no_monitor_activity(pipo::DefenseKind::kRic, s), true);
    s.prefetch_fills = 0;
    s.pevicts = 1;
    t.expect("no monitor activity, a pEvict under none",
             check_no_monitor_activity(pipo::DefenseKind::kNone, s), true);
  }
  t.expect("pipo slowdown, 0.5% slower", check_slowdown(100000, 100500, 0.01),
           false);
  t.expect("pipo slowdown, 5% slower", check_slowdown(100000, 105000, 0.01),
           true);
  {
    std::vector<pipo::MemRequest> a(3), b(3);
    a[1].addr = b[1].addr = 0x40;
    t.expect("same requests, genuine", check_same_requests(a, b), false);
    b[2].pre_delay = 1;
    t.expect("same requests, one pre_delay differs",
             check_same_requests(a, b), true);
    b.pop_back();
    t.expect("same requests, one request missing",
             check_same_requests(a, b), true);
  }

  // Fuzz records: a genuine one from a tiny campaign, then doctored.
  pipo::FuzzerConfig fc;
  fc.population = 4;
  fc.generations = 1;
  const pipo::FuzzReport fr = pipo::Fuzzer(fc).run();
  const std::string rec = fr.records.at(0);
  t.expect("fuzz record, genuine", check_fuzz_record(parse_fuzz_record(rec)),
           false);
  t.expect("fuzz record, mi_bits 1.5",
           check_fuzz_record(parse_fuzz_record(
               replace_field(rec, "mi_bits", "1.500000"))),
           true);
  t.expect("fuzz record, p_value 0",
           check_fuzz_record(parse_fuzz_record(
               replace_field(rec, "p_value", "0.000000"))),
           true);
  t.expect("fuzz record, decoder_acc 1.2",
           check_fuzz_record(parse_fuzz_record(
               replace_field(rec, "decoder_acc", "1.200000"))),
           true);
  t.expect("fuzz record, error record",
           check_fuzz_record(parse_fuzz_record(
               "{\"config\": 0, \"error\": \"boom\"}")),
           true);

  {
    const std::vector<std::string>& full = fr.records;
    const std::vector<std::string> head(full.begin(), full.begin() + 4);
    t.expect("record prefix, genuine", check_record_prefix(full, head, 4),
             false);
    std::vector<std::string> changed = head;
    changed[2] = replace_field(changed[2], "mi_bits", "0.123456");
    t.expect("record prefix, one record changed",
             check_record_prefix(full, changed, 4), true);
    const std::vector<std::string> missing(head.begin(), head.end() - 1);
    t.expect("record prefix, one record missing",
             check_record_prefix(full, missing, 4), true);
    t.expect("record prefix, no records",
             check_record_prefix(full, {}, 4), true);
  }

  t.expect("fig6, genuine", check_fig6(0.99, 0.56, 0.55), false);
  t.expect("fig6, undefended 0.89", check_fig6(0.89, 0.56, 0.55), true);
  t.expect("fig6, defended 0.66 over a 0.55 guess",
           check_fig6(0.99, 0.66, 0.55), true);

  std::fprintf(stderr, "selftest: %d cases, %d misbehaved\n", t.cases, t.bad);
  return t.bad;
}

}  // namespace simbench

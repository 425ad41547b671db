// Correctness checks the benchmark applies to every result it times.
//
// Each check is a pure function of a result and returns an empty string
// when the result passes, or a one-line description of what is wrong.
// They test properties the simulated method must have (a hit-level
// identity, reproducibility, the paper's qualitative claims), never a
// copy of one day's output, so a correction to the model that moves a
// simulated number does not trip them. selftest.cpp feeds each one a
// result that must fail it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.h"
#include "sim/system_config.h"
#include "sim/workload_if.h"

namespace simbench {

struct StatsField {
  const char* name;
  std::uint64_t pipo::System::Stats::*member;
};

/// Every System::Stats counter by name, in declaration order.
extern const std::array<StatsField, 15> kStatsFields;

/// accesses == l1_hits + l2_hits + l3_hits + l3_misses: every access is
/// served by exactly one level.
std::string check_hit_identity(const pipo::System::Stats& s);

/// Two runs that must be the same run (a repeated evaluation, or a replay
/// under the capturing config) agree on exec_time and every counter.
std::string check_same_run(pipo::Tick exec_a, const pipo::System::Stats& a,
                           pipo::Tick exec_b, const pipo::System::Stats& b);

/// Every core retired at least its instruction budget.
std::string check_instr_budget(const std::vector<std::uint64_t>& per_core,
                               std::uint64_t budget);

/// Defenses without a monitor-side prefetch engine (none, sharp, ric)
/// never fill the LLC by prefetch and never send pEvict.
std::string check_no_monitor_activity(pipo::DefenseKind d,
                                      const pipo::System::Stats& s);

/// A defended run finishes within `tolerance` (a share) of the same
/// mix's undefended execution time — the paper's negligible-slowdown
/// claim for PiPoMonitor.
std::string check_slowdown(pipo::Tick undefended, pipo::Tick defended,
                           double tolerance);

/// The request streams are identical, request by request.
std::string check_same_requests(const std::vector<pipo::MemRequest>& a,
                                const std::vector<pipo::MemRequest>& b);

/// A campaign run again (the same seed, all or only its first
/// generations) rendered exactly `want` records, byte for byte the first
/// `want` records of `full`.
std::string check_record_prefix(const std::vector<std::string>& full,
                                const std::vector<std::string>& head,
                                std::size_t want);

/// The numeric fields of one fuzz campaign record.
struct FuzzRecord {
  bool error = false;
  std::string genotype;
  double mi_bits = 0.0;
  double p_value = 1.0;
  double decoder_acc = 0.0;
};

/// Parses one campaign record rendered by config_result_json; throws
/// std::runtime_error on a record missing a field.
FuzzRecord parse_fuzz_record(const std::string& rec);

/// A binary key carries at most one bit per round: 0 <= mi_bits <= 1,
/// 0 < p_value <= 1 (a permutation test never yields p = 0), and
/// 0 <= decoder_acc <= 1. Error records fail.
std::string check_fuzz_record(const FuzzRecord& r);

/// Fig 6: undefended Prime+Probe recovers at least 90% of the key; under
/// PiPoMonitor it recovers no more than the trivial guess (the majority
/// bit share) plus 10 points.
std::string check_fig6(double undefended_acc, double defended_acc,
                       double trivial_guess);

}  // namespace simbench

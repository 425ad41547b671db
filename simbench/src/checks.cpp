#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace simbench {

namespace {

std::string str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

}  // namespace

const std::array<StatsField, 15> kStatsFields = {{
    {"accesses", &pipo::System::Stats::accesses},
    {"l1_hits", &pipo::System::Stats::l1_hits},
    {"l2_hits", &pipo::System::Stats::l2_hits},
    {"l3_hits", &pipo::System::Stats::l3_hits},
    {"l3_misses", &pipo::System::Stats::l3_misses},
    {"back_invalidations", &pipo::System::Stats::back_invalidations},
    {"upgrades", &pipo::System::Stats::upgrades},
    {"invalidations_for_write",
     &pipo::System::Stats::invalidations_for_write},
    {"l2_evictions", &pipo::System::Stats::l2_evictions},
    {"writebacks", &pipo::System::Stats::writebacks},
    {"prefetch_fills", &pipo::System::Stats::prefetch_fills},
    {"prefetch_drops", &pipo::System::Stats::prefetch_drops},
    {"pp_tag_fills", &pipo::System::Stats::pp_tag_fills},
    {"pevicts", &pipo::System::Stats::pevicts},
    {"ric_exemptions", &pipo::System::Stats::ric_exemptions},
}};

std::string check_hit_identity(const pipo::System::Stats& s) {
  const std::uint64_t served = s.l1_hits + s.l2_hits + s.l3_hits + s.l3_misses;
  if (s.accesses == served) return {};
  return "accesses " + std::to_string(s.accesses) +
         " != l1_hits + l2_hits + l3_hits + l3_misses = " +
         std::to_string(served);
}

std::string check_same_run(pipo::Tick exec_a, const pipo::System::Stats& a,
                           pipo::Tick exec_b, const pipo::System::Stats& b) {
  if (exec_a != exec_b) {
    return "exec_time " + std::to_string(exec_a) + " vs " +
           std::to_string(exec_b);
  }
  for (const StatsField& f : kStatsFields) {
    if (a.*f.member != b.*f.member) {
      return std::string(f.name) + " " + std::to_string(a.*f.member) +
             " vs " + std::to_string(b.*f.member);
    }
  }
  return {};
}

std::string check_instr_budget(const std::vector<std::uint64_t>& per_core,
                               std::uint64_t budget) {
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    if (per_core[c] < budget) {
      return "core " + std::to_string(c) + " retired " +
             std::to_string(per_core[c]) + " < budget " +
             std::to_string(budget);
    }
  }
  return {};
}

std::string check_no_monitor_activity(pipo::DefenseKind d,
                                      const pipo::System::Stats& s) {
  using pipo::DefenseKind;
  if (d != DefenseKind::kNone && d != DefenseKind::kSharp &&
      d != DefenseKind::kRic) {
    return {};
  }
  if (s.prefetch_fills == 0 && s.pevicts == 0) return {};
  return std::string(pipo::to_string(d)) + " has prefetch_fills " +
         std::to_string(s.prefetch_fills) + ", pevicts " +
         std::to_string(s.pevicts) + " (want 0, 0)";
}

std::string check_slowdown(pipo::Tick undefended, pipo::Tick defended,
                           double tolerance) {
  if (undefended == 0) return "undefended exec_time is 0";
  const double ratio =
      static_cast<double>(defended) / static_cast<double>(undefended);
  if (ratio <= 1.0 + tolerance) return {};
  return "exec_time ratio " + str(ratio) + " exceeds 1 + " + str(tolerance);
}

std::string check_same_requests(const std::vector<pipo::MemRequest>& a,
                                const std::vector<pipo::MemRequest>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].addr != b[i].addr || a[i].type != b[i].type ||
        a[i].pre_delay != b[i].pre_delay ||
        a[i].bypass_private != b[i].bypass_private) {
      return "request " + std::to_string(i) + " differs";
    }
  }
  if (a.size() != b.size()) {
    return "request counts " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  return {};
}

std::string check_record_prefix(const std::vector<std::string>& full,
                                const std::vector<std::string>& head,
                                std::size_t want) {
  if (head.size() != want) {
    return "rerun has " + std::to_string(head.size()) + " records, want " +
           std::to_string(want);
  }
  if (full.size() < want) {
    return "campaign has " + std::to_string(full.size()) + " records < " +
           std::to_string(want);
  }
  for (std::size_t i = 0; i < want; ++i) {
    if (full[i] != head[i]) return "record " + std::to_string(i) + " differs";
  }
  return {};
}

namespace {

const char* field_start(const std::string& rec, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const auto pos = rec.find(tag);
  if (pos == std::string::npos) {
    throw std::runtime_error("record has no field '" + key + "': " + rec);
  }
  return rec.c_str() + pos + tag.size();
}

double number_field(const std::string& rec, const std::string& key) {
  const char* p = field_start(rec, key);
  char* end = nullptr;
  // lint:allow(raw-parse) checked below: the field must parse fully
  const double v = std::strtod(p, &end);
  if (end == p) {
    throw std::runtime_error("record field '" + key + "' is not a number");
  }
  return v;
}

}  // namespace

FuzzRecord parse_fuzz_record(const std::string& rec) {
  FuzzRecord r;
  if (rec.find("\"error\": ") != std::string::npos) {
    r.error = true;
    return r;
  }
  const char* g = field_start(rec, "genotype");
  const std::string rest(g);
  if (rest.size() < 2 || rest[0] != '"' ||
      rest.find('"', 1) == std::string::npos) {
    throw std::runtime_error("record field 'genotype' is not a string");
  }
  r.genotype = rest.substr(1, rest.find('"', 1) - 1);
  r.mi_bits = number_field(rec, "mi_bits");
  r.p_value = number_field(rec, "p_value");
  r.decoder_acc = number_field(rec, "decoder_acc");
  return r;
}

std::string check_fuzz_record(const FuzzRecord& r) {
  if (r.error) return "error record";
  if (!(r.mi_bits >= 0.0 && r.mi_bits <= 1.0)) {
    return "mi_bits " + str(r.mi_bits) + " outside [0, 1]";
  }
  if (!(r.p_value > 0.0 && r.p_value <= 1.0)) {
    return "p_value " + str(r.p_value) + " outside (0, 1]";
  }
  if (!(r.decoder_acc >= 0.0 && r.decoder_acc <= 1.0)) {
    return "decoder_acc " + str(r.decoder_acc) + " outside [0, 1]";
  }
  return {};
}

std::string check_fig6(double undefended_acc, double defended_acc,
                       double trivial_guess) {
  if (!(undefended_acc >= 0.90)) {
    return "undefended key recovery " + str(undefended_acc) + " < 0.90";
  }
  if (!(defended_acc <= trivial_guess + 0.10)) {
    return "PiPoMonitor key recovery " + str(defended_acc) +
           " > trivial guess " + str(trivial_guess) + " + 0.10";
  }
  return {};
}

}  // namespace simbench

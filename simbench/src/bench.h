// Shared definitions of the end-to-end benchmark: command-line options,
// the report a workload run fills in, and host timing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace simbench {

using Clock = std::chrono::steady_clock;

/// Host time now. Every timing the benchmark reports goes through here.
inline Clock::time_point host_now() {
  // lint:allow(wall-clock) host timing is what the benchmark measures
  return Clock::now();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (0 for an empty vector); takes a copy to sort.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< --seconds, required for a workload run
  bool trace = false;   ///< traced run: per-layer metrics instead of e2e
  bool small = false;   ///< reduced-size inputs: every check in seconds
  std::string work_dir; ///< scratch space for captured traces and spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload reports. `failures` holds the checks that
/// failed ("<check>: <detail>"); any entry makes the run incorrect.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check unless `detail` is empty (the check passed).
  void check(const std::string& check, const std::string& detail) {
    if (!detail.empty()) failures.push_back(check + ": " + detail);
  }
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

Report run_mix_grid(const Options& opt);
Report run_trace_replay(const Options& opt);
Report run_fuzz_campaign(const Options& opt);

/// Feeds every correctness check a result that must fail it (and a
/// result that must pass it); returns the number of checks that did not
/// behave, printing each to stderr.
int run_selftest(const std::string& work_dir);

}  // namespace simbench

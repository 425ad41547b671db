// simbench: the simulator's end-to-end benchmark (see ../README.md).
//
//   simbench --workload mix_grid|trace_replay|fuzz_campaign --seed N
//            --seconds S --trace 0|1 --work-dir DIR [--small]
//   simbench --selftest --work-dir DIR
//
// Prints one JSON object as its last line of output: "correct",
// "attempted", "failed" and "metrics" (the end-to-end metrics, or with
// --trace 1 the per-layer ones). A failed correctness check is named on
// stderr, with its workload, and the exit code is 1.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "common/parse_num.h"

namespace simbench {

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // exec, so it would report the launching process's size when larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {  // "VmHWM:    12345 kB"
      const std::size_t b = line.find_first_of("0123456789");
      const std::size_t e = line.find(' ', b);
      return static_cast<double>(
                 pipo::parse_uint(line.substr(b, e - b), "VmHWM")) /
             1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_result(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s%s: {\"value\": %.9g, \"unit\": %s}", i ? ", " : "",
                json_string(m.name).c_str(), m.value,
                json_string(m.unit).c_str());
  }
  std::printf("}}\n");
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload "
               "mix_grid|trace_replay|fuzz_campaign --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--small]\n"
               "       simbench --selftest --work-dir DIR\n",
               why.c_str());
  return 2;
}

}  // namespace

}  // namespace simbench

int main(int argc, char** argv) {
  using namespace simbench;
  Options opt;
  bool selftest = false;
  bool have_seconds = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = pipo::parse_uint(value(), "--seed");
      } else if (arg == "--seconds") {
        opt.seconds = pipo::parse_double(value(), "--seconds", 0.0, 3600.0);
        have_seconds = true;
      } else if (arg == "--trace") {
        opt.trace = pipo::parse_uint(value(), "--trace", 0, 1) == 1;
      } else if (arg == "--work-dir") {
        opt.work_dir = value();
      } else if (arg == "--small") {
        opt.small = true;
      } else if (arg == "--selftest") {
        selftest = true;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (opt.work_dir.empty()) return usage("--work-dir is required");
  std::filesystem::create_directories(opt.work_dir);
  if (selftest) return run_selftest(opt.work_dir) == 0 ? 0 : 1;
  if (!have_seconds) return usage("--seconds is required");

  Report rep;
  try {
    if (opt.workload == "mix_grid") {
      rep = run_mix_grid(opt);
    } else if (opt.workload == "trace_replay") {
      rep = run_trace_replay(opt);
    } else if (opt.workload == "fuzz_campaign") {
      rep = run_fuzz_campaign(opt);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s: aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& f : rep.failures) {
    std::fprintf(stderr, "simbench: %s: check failed: %s\n",
                 opt.workload.c_str(), f.c_str());
  }
  print_result(rep);
  return rep.failures.empty() ? 0 : 1;
}

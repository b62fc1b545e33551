// fleet_bench: one workload of the fleet benchmark per invocation.
//
//   fleet_bench --workload steady-poll|reboot-walk|daily-update
//               --seed N --seconds S --trace 0|1
//               [--smoke] [--wrong-expectation] [--out-dir DIR]
//
// Prints a human-readable report (host fingerprint, every metric with its
// unit and base, every failed output check) and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer ones. Exits 1 when
// an output check fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/log.hpp"
#include "crypto/sha256.hpp"

namespace {

using fleetbench::Metric;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (!f) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "model name", 10) == 0) {
      if (const char* colon = std::strchr(line, ':')) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ')) model.erase(0, 1);
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

/// What absolute numbers depend on. Two results are comparable only when
/// their fingerprints are equal (fleetbench/compare.py).
std::string host_fingerprint() {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"cpu\": \"%s\", \"nproc\": %u, \"sha256_backend\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      cia::crypto::sha256_backend_name(), json_escape(__VERSION__).c_str(),
      CIA_BENCH_BUILD_TYPE);
  return buf;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %14.4f %-6s  (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "fleet_bench: %s\nusage: fleet_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--wrong-expectation] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fleetbench::RunOptions opt;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--wrong-expectation") {
      opt.wrong_expectation = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--out-dir") {
      const char* v = value();
      if (!v) return usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        opt.workload = v;
      } else if (arg == "--out-dir") {
        opt.out_dir = v;
      } else if (arg == "--seed") {
        opt.seed = std::strtoull(v, &end, 10);
        have_seed = end != v && *end == '\0';
      } else if (arg == "--seconds") {
        opt.seconds = std::strtod(v, &end);
        have_seconds = end != v && *end == '\0' && opt.seconds > 0;
      } else {
        trace = std::strcmp(v, "0") == 0   ? 0
                : std::strcmp(v, "1") == 0 ? 1
                                           : -1;
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : fleetbench::workload_names()) {
    known = known || w == opt.workload;
  }
  if (!known) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing or bad --seed");
  if (!have_seconds) return usage("missing or bad --seconds");
  if (trace < 0) return usage("--trace must be 0 or 1");
  opt.trace = trace == 1;
  cia::set_log_level(cia::LogLevel::kOff);

  fleetbench::RunResult r;
  try {
    r = fleetbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_bench: %s\n", e.what());
    return 1;
  }

  std::printf("fleet_bench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, trace, opt.smoke ? " (smoke size)" : "");
  std::printf("host_fingerprint %s\n", host_fingerprint().c_str());
  print_table("end-to-end:", r.end_to_end);
  if (opt.trace) print_table("per-layer (traced run):", r.per_layer);
  for (const std::string& line : r.info) std::printf("%s\n", line.c_str());
  const bool correct = r.failed == 0;
  std::printf("output checks: %s\n", correct ? "all passed" : "FAILED");
  for (const std::string& line : r.failures) {
    std::printf("  check failed: %s\n", line.c_str());
  }

  const std::vector<Metric>& out = opt.trace ? r.per_layer : r.end_to_end;
  std::string metrics;
  for (const Metric& m : out) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

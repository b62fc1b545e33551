// Shared types of the fleet benchmark driver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Minimal fleet sizes (the benchmark's self-test).
  bool smoke = false;
  /// Deliberately wrong expectation: proves the output checks are live.
  bool wrong_expectation = false;
  /// Where the traced run writes its Chrome-trace file.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// What the value was measured over ("12345 polls", "8 days", ...).
  std::string base;
};

struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;  // polls in timed rounds
  std::uint64_t failed = 0;     // outcomes that differ from the expectation
  /// One line per failed output check.
  std::vector<std::string> failures;
  /// Extra lines for the human-readable report.
  std::vector<std::string> info;
};

/// Known workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build the fleet, run the workload and check its outputs.
RunResult run_workload(const RunOptions& options);

}  // namespace fleetbench

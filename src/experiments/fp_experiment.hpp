// The false-positive experiments of §III.
//
//   * run_fp_baseline(): one week of benign operation under a static
//     scan-derived policy with unattended upgrades enabled and a SNAP
//     installed — reproduces the two §III-B failure causes (system
//     updates, SNAP path truncation).
//   * run_dynamic_policy_experiment(): the §III-D evaluation — 31 days of
//     daily (or 35 days of weekly) scheduled updates through the local
//     mirror with the dynamic policy generator, including the optional
//     day-31 operator-error injection (update pulled from the official
//     archive after the mirror sync).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy_generator.hpp"
#include "pkg/archive.hpp"
#include "keylime/verifier.hpp"

namespace cia::experiments {

// ----------------------------------------------------------- FP baseline

struct FpBaselineOptions {
  std::uint64_t seed = 42;
  int days = 7;
  /// Scale knobs (defaults match the full evaluation; tests shrink them).
  pkg::ArchiveConfig archive;
  std::size_t provision_extra = 250;
};

struct FpBaselineResult {
  int days = 0;  // 0 = invalid run: enrolment or a policy install failed
  std::size_t alerts_total = 0;
  std::size_t update_hash_mismatch = 0;   // modified files after updates
  std::size_t update_missing_file = 0;    // files updates introduced
  std::size_t snap_truncation = 0;        // SNAP path-truncation errors
  std::size_t operator_interventions = 0; // manual resolve actions
  std::vector<std::string> sample_alerts; // a few rendered examples
};

FpBaselineResult run_fp_baseline(const FpBaselineOptions& options);

// ------------------------------------------------- dynamic policy scheme

struct DynamicRunOptions {
  std::uint64_t seed = 42;
  int days = 31;
  int update_period_days = 1;  // 1 = daily, 7 = weekly
  /// Scale knobs (defaults match the full evaluation; tests shrink them).
  pkg::ArchiveConfig archive;
  std::size_t provision_extra = 250;
  /// Reproduce the §III-D human-error incident: on `race_day` a release
  /// lands after the mirror sync and the operator updates the node from
  /// the official archive instead of the mirror.
  bool inject_mirror_race = false;
  int race_day = 30;
};

struct DynamicRunResult {
  int days = 0;
  int updates_run = 0;
  std::size_t base_policy_entries = 0;
  std::uint64_t base_policy_bytes = 0;
  /// One record per executed update cycle (Figs. 3-5 and Table I).
  std::vector<core::PolicyUpdateStats> updates;
  /// Policy-violation alerts observed over the whole run (the paper's
  /// false positives; zero except for the injected incident).
  std::size_t false_positives = 0;
  std::size_t incident_false_positives = 0;  // attributable to the race
  int reboots = 0;
  std::vector<keylime::Alert> alerts;
};

DynamicRunResult run_dynamic_policy_experiment(const DynamicRunOptions& options);

}  // namespace cia::experiments

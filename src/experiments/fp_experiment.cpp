#include "experiments/fp_experiment.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/strutil.hpp"
#include "core/update_orchestrator.hpp"
#include "experiments/testbed.hpp"
#include "experiments/workload.hpp"

namespace cia::experiments {

FpBaselineResult run_fp_baseline(const FpBaselineOptions& options) {
  TestbedOptions bed_options;
  bed_options.seed = options.seed;
  bed_options.archive = options.archive;
  bed_options.provision_extra = options.provision_extra;
  bed_options.snap_enabled = true;
  Testbed bed(bed_options);
  if (!bed.enroll().ok()) return {};

  // The IBM-style initial policy: a just-in-time scan of the machine's
  // executables (SNAP files appear under their host /snap/... paths).
  keylime::RuntimePolicy policy = scan_machine_policy(bed.machine, true);
  if (!bed.verifier.set_policy(bed.agent_id(), policy).ok()) return {};

  Workload workload(&bed.machine, options.seed ^ 0x776bull);
  pkg::UnattendedUpgrades unattended(&bed.apt, &bed.archive, 6 * kHour);

  FpBaselineResult result;
  result.days = options.days;

  std::size_t resolved_alerts = 0;
  for (int day = 0; day < options.days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      bed.clock.advance_to(static_cast<SimTime>(day) * kDay + hour * kHour);
      (void)unattended.tick(bed.clock.now());

      // Upstream publishes during business hours; visible to unattended
      // upgrades the next morning.
      if (hour == 8) (void)bed.archive.release_day(day);

      if (hour == 9 || hour == 13 || hour == 17) workload.run_session();
      if (hour == 7 && !bed.snap_host_paths().empty()) {
        workload.run_binary(
            bed.snap_host_paths()[static_cast<std::size_t>(day) %
                                  bed.snap_host_paths().size()]);
      }
      bed.attest();

      // The on-call operator chases every failure until the node attests
      // green again: accept the measured hash into the policy and resume
      // (the only way to keep a static-policy deployment limping along).
      int chase_guard = 0;
      while (bed.verifier.state(bed.agent_id()) ==
                 keylime::AgentState::kFailed &&
             ++chase_guard < 100) {
        const auto alerts = bed.verifier.alerts();
        for (std::size_t i = resolved_alerts; i < alerts.size(); ++i) {
          if (!alerts[i].path.empty() && !alerts[i].observed_hash_hex.empty()) {
            policy.allow(alerts[i].path, alerts[i].observed_hash_hex);
          }
        }
        resolved_alerts = alerts.size();
        if (!bed.verifier.set_policy(bed.agent_id(), policy).ok()) return {};
        (void)bed.verifier.resolve_failure(bed.agent_id());
        ++result.operator_interventions;
        bed.attest();
      }
    }
  }

  for (const keylime::Alert& alert : bed.verifier.alerts()) {
    if (alert.type != keylime::AlertType::kHashMismatch &&
        alert.type != keylime::AlertType::kNotInPolicy) {
      continue;
    }
    ++result.alerts_total;
    const auto& snap = bed.snap_visible_paths();
    const bool is_snap =
        std::find(snap.begin(), snap.end(), alert.path) != snap.end();
    if (is_snap) {
      ++result.snap_truncation;
    } else if (alert.type == keylime::AlertType::kHashMismatch) {
      ++result.update_hash_mismatch;
    } else {
      ++result.update_missing_file;
    }
    if (result.sample_alerts.size() < 8) {
      result.sample_alerts.push_back(
          strformat("%s %s", keylime::alert_type_name(alert.type),
                    alert.path.c_str()));
    }
  }
  return result;
}

DynamicRunResult run_dynamic_policy_experiment(const DynamicRunOptions& options) {
  TestbedOptions bed_options;
  bed_options.seed = options.seed;
  bed_options.archive = options.archive;
  bed_options.provision_extra = options.provision_extra;
  bed_options.snap_enabled = false;  // §III-C: SNAP disabled under the scheme
  Testbed bed(bed_options);
  DynamicRunResult result;
  result.days = options.days;
  if (!bed.enroll().ok()) return result;

  core::DynamicPolicyGenerator generator(&bed.mirror, core::GeneratorConfig{});
  core::UpdateOrchestrator orchestrator(&bed.mirror, &generator, &bed.verifier,
                                        &bed.clock);
  orchestrator.manage({&bed.machine, &bed.apt, bed.agent_id()});
  if (!orchestrator.bootstrap().ok()) return result;
  result.base_policy_entries = orchestrator.policy().entry_count();
  result.base_policy_bytes = orchestrator.policy().byte_size();

  Workload workload(&bed.machine, options.seed ^ 0x776bull);
  bool kernel_pending = false;
  bool incident_pending = false;

  for (int day = 0; day < options.days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      bed.clock.advance_to(static_cast<SimTime>(day) * kDay + hour * kHour);

      // 04:00 maintenance reboot when a new kernel awaits (its policy
      // entries were admitted by the previous cycle).
      if (hour == 4 && kernel_pending) {
        bed.machine.reboot();
        ++result.reboots;
        kernel_pending = false;
        bed.attest();  // absorb the reboot-detection round
      }

      // 05:00: the scheduled update cycle (mirror sync -> policy refresh
      // -> push -> upgrade from mirror -> dedup).
      if (hour == 5 && day % options.update_period_days == 0) {
        auto report = orchestrator.run_cycle();
        if (report.ok()) {
          result.updates.push_back(report.value().policy_stats);
          ++result.updates_run;
          kernel_pending = report.value().kernel_pending_reboot;
        }
        // The morning after the §III-D incident: the mirror has now
        // caught up and the refreshed policy covers the rogue update, so
        // the operator resumes attestation.
        if (incident_pending && bed.verifier.state(bed.agent_id()) ==
                                    keylime::AgentState::kFailed) {
          (void)bed.verifier.resolve_failure(bed.agent_id());
          incident_pending = false;
        }
      }

      // Upstream publishes during business hours — strictly after the
      // 05:00 sync, which is why the mirror always lags by up to a day.
      if (hour == 8) (void)bed.archive.release_day(day);

      if (hour == 9 || hour == 13 || hour == 17) workload.run_session();

      // The injected §III-D incident: the operator hand-updates the node
      // from the *official archive* at 21:00, pulling packages released
      // after today's sync; the evening session then runs them.
      if (options.inject_mirror_race && day == options.race_day) {
        if (hour == 21) {
          (void)bed.apt.upgrade(bed.archive.index());
          incident_pending = true;
        }
        if (hour == 22) workload.run_session();
      }

      bed.attest();
    }
  }

  // Post-run accounting.
  for (const keylime::Alert& alert : bed.verifier.alerts()) {
    if (alert.type == keylime::AlertType::kHashMismatch ||
        alert.type == keylime::AlertType::kNotInPolicy) {
      ++result.false_positives;
      if (options.inject_mirror_race &&
          alert.time >= options.race_day * kDay) {
        ++result.incident_false_positives;
      }
      result.alerts.push_back(alert);
    }
  }
  return result;
}

}  // namespace cia::experiments

// Integration tests for the experiment drivers: these assert the paper's
// headline results hold mechanistically on shortened runs, and the full
// Table II matrix on the real driver.
#include <gtest/gtest.h>

#include "common/strutil.hpp"
#include "experiments/fn_experiment.hpp"
#include "experiments/fp_experiment.hpp"
#include "experiments/report.hpp"
#include "experiments/testbed.hpp"
#include "experiments/workload.hpp"

namespace cia::experiments {
namespace {

TestbedOptions small_bed() {
  TestbedOptions options;
  options.provision_extra = 25;
  options.archive.base_package_count = 120;
  return options;
}

// ---------------------------------------------------------------- testbed

TEST(TestbedTest, EnrollRegistersAndAddsAgent) {
  Testbed bed(small_bed());
  ASSERT_TRUE(bed.enroll().ok());
  EXPECT_TRUE(bed.registrar.is_active("node0"));
}

TEST(TestbedTest, ProvisionedBinariesExist) {
  Testbed bed(small_bed());
  EXPECT_TRUE(bed.machine.fs().is_file("/usr/bin/bash"));
  EXPECT_TRUE(bed.machine.fs().is_file("/usr/bin/python3"));
  EXPECT_GT(bed.machine.fs().file_count(), 100u);
}

TEST(TestbedTest, SnapMountIsTruncated) {
  TestbedOptions options = small_bed();
  options.snap_enabled = true;
  Testbed bed(options);
  ASSERT_FALSE(bed.snap_host_paths().empty());
  ASSERT_EQ(bed.snap_host_paths().size(), bed.snap_visible_paths().size());
  EXPECT_TRUE(starts_with(bed.snap_host_paths()[0], "/snap/"));
  EXPECT_FALSE(starts_with(bed.snap_visible_paths()[0], "/snap/"));
}

TEST(TestbedTest, ScanPolicyCoversMachineExecutables) {
  Testbed bed(small_bed());
  const auto policy = scan_machine_policy(bed.machine, true);
  EXPECT_GT(policy.entry_count(), 100u);
  const auto st = bed.machine.fs().stat("/usr/bin/bash").value();
  EXPECT_EQ(policy.check("/usr/bin/bash", st.content_hash),
            keylime::PolicyMatch::kAllowed);
  EXPECT_EQ(policy.check("/tmp/anything", std::string(64, 'a')),
            keylime::PolicyMatch::kExcluded);
}

TEST(TestbedTest, DeterministicAcrossInstances) {
  Testbed a(small_bed());
  Testbed b(small_bed());
  EXPECT_EQ(scan_machine_policy(a.machine, true).serialize(),
            scan_machine_policy(b.machine, true).serialize());
}

// --------------------------------------------------------------- workload

TEST(WorkloadTest, SessionsProduceMeasurements) {
  Testbed bed(small_bed());
  Workload workload(&bed.machine, 7);
  const std::size_t before = bed.machine.ima().log().size();
  workload.run_session();
  EXPECT_GT(bed.machine.ima().log().size(), before + 5);
  EXPECT_EQ(workload.sessions(), 1);
}

TEST(WorkloadTest, CleanMachineAttestsGreenUnderScanPolicy) {
  Testbed bed(small_bed());
  ASSERT_TRUE(bed.enroll().ok());
  (void)bed.verifier.set_policy(bed.agent_id(),
                                scan_machine_policy(bed.machine, true));
  Workload workload(&bed.machine, 7);
  for (int i = 0; i < 3; ++i) {
    workload.run_session();
    bed.attest();
  }
  EXPECT_TRUE(bed.verifier.alerts().empty());
  EXPECT_EQ(bed.verifier.state(bed.agent_id()), keylime::AgentState::kAttesting);
}

TEST(TestbedTest, SnapScrubbingFixesTheTruncationFp) {
  TestbedOptions options = small_bed();
  options.snap_enabled = true;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());

  // Under the raw scan policy the SNAP binary alerts (§III-B)...
  keylime::RuntimePolicy raw = scan_machine_policy(bed.machine, true);
  ASSERT_TRUE(bed.verifier.set_policy(bed.agent_id(), raw).ok());
  (void)bed.machine.exec(bed.snap_host_paths()[0]);
  bed.attest();
  ASSERT_EQ(bed.verifier.alerts_for(bed.agent_id()).size(), 1u);
  EXPECT_EQ(bed.verifier.alerts_for(bed.agent_id())[0].path,
            bed.snap_visible_paths()[0]);

  // ...while the §III-C option (a) scrubbed policy matches the truncated
  // measurement. Fresh rig, same machine image.
  TestbedOptions options2 = small_bed();
  options2.snap_enabled = true;
  Testbed bed2(options2);
  ASSERT_TRUE(bed2.enroll().ok());
  std::size_t rewritten = 0;
  keylime::RuntimePolicy scrubbed = scrub_container_prefixes(
      scan_machine_policy(bed2.machine, true), bed2.machine, &rewritten);
  EXPECT_GE(rewritten, 2u) << "both snap binaries must be rewritten";
  ASSERT_TRUE(bed2.verifier.set_policy(bed2.agent_id(), scrubbed).ok());
  (void)bed2.machine.exec(bed2.snap_host_paths()[0]);
  bed2.attest();
  EXPECT_TRUE(bed2.verifier.alerts_for(bed2.agent_id()).empty());
}

// ------------------------------------------------------------ FP baseline

TEST(FpBaselineTest, StaticPolicyProducesUpdateFalsePositives) {
  FpBaselineOptions options;
  options.days = 4;
  options.archive.base_package_count = 120;
  options.provision_extra = 25;
  const auto result = run_fp_baseline(options);
  EXPECT_EQ(result.days, 4);
  EXPECT_GT(result.alerts_total, 0u)
      << "unattended upgrades must break a static policy within days";
  EXPECT_GT(result.update_hash_mismatch, 0u);
  EXPECT_GT(result.operator_interventions, 0u);
}

// --------------------------------------------------------- dynamic policy

TEST(DynamicPolicyTest, ShortRunHasZeroFalsePositives) {
  DynamicRunOptions options;
  options.days = 6;
  options.update_period_days = 1;
  options.archive.base_package_count = 150;
  options.provision_extra = 25;
  const auto result = run_dynamic_policy_experiment(options);
  EXPECT_EQ(result.updates_run, 6);
  EXPECT_EQ(result.false_positives, 0u)
      << "the dynamic policy scheme must keep attestation green";
  EXPECT_GT(result.base_policy_entries, 5000u);
}

TEST(DynamicPolicyTest, InjectedMirrorRaceCausesExactlyTheIncident) {
  DynamicRunOptions options;
  options.days = 6;
  options.update_period_days = 1;
  options.archive.base_package_count = 150;
  options.provision_extra = 25;
  options.inject_mirror_race = true;
  options.race_day = 4;
  const auto result = run_dynamic_policy_experiment(options);
  EXPECT_GT(result.false_positives, 0u);
  EXPECT_EQ(result.false_positives, result.incident_false_positives)
      << "every FP must be attributable to the injected operator error";
}

TEST(DynamicPolicyTest, WeeklyScheduleUpdatesLessOften) {
  DynamicRunOptions options;
  options.days = 14;
  options.update_period_days = 7;
  options.archive.base_package_count = 150;
  options.provision_extra = 25;
  const auto result = run_dynamic_policy_experiment(options);
  EXPECT_EQ(result.updates_run, 2);
  EXPECT_EQ(result.false_positives, 0u);
}

TEST(DynamicPolicyTest, UpdateStatsArePopulated) {
  DynamicRunOptions options;
  options.days = 6;
  options.archive.base_package_count = 150;
  options.provision_extra = 25;
  const auto result = run_dynamic_policy_experiment(options);
  ASSERT_EQ(result.updates.size(), 6u);
  bool any_packages = false;
  for (const auto& u : result.updates) {
    EXPECT_GE(u.seconds, 0.0);
    any_packages |= u.packages_processed > 0;
  }
  EXPECT_TRUE(any_packages);
}

// ---------------------------------------------------------------- Table II

TEST(FnExperimentTest, ReproducesTableII) {
  FnExperimentOptions options;
  options.archive_packages = 120;
  const auto reports = run_fn_experiment(options);
  ASSERT_EQ(reports.size(), 8u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.basic, DetectionOutcome::kDetectedImmediately)
        << r.name << ": every basic attack is detected in the paper";
    EXPECT_EQ(r.adaptive, DetectionOutcome::kEvaded)
        << r.name << ": every adaptive attack evades in the paper";
    if (r.name == "Aoyama") {
      EXPECT_EQ(r.mitigated, DetectionOutcome::kEvaded)
          << "Aoyama (pure Python) must evade even the mitigations";
    } else {
      EXPECT_NE(r.mitigated, DetectionOutcome::kEvaded)
          << r.name << ": the recommended fixes must catch it";
    }
  }
}

// ----------------------------------------------------------------- report

TEST(ReportTest, RenderersProduceNonEmptyOutput) {
  DynamicRunOptions options;
  options.days = 3;
  options.archive.base_package_count = 120;
  options.provision_extra = 20;
  const auto run = run_dynamic_policy_experiment(options);
  EXPECT_NE(render_fig3(run).find("Fig. 3"), std::string::npos);
  EXPECT_NE(render_fig4(run).find("Fig. 4"), std::string::npos);
  EXPECT_NE(render_fig5(run).find("Fig. 5"), std::string::npos);
  EXPECT_NE(render_table1(run, run).find("Table I"), std::string::npos);
  EXPECT_NE(render_fp_effectiveness(run, run).find("66-day"),
            std::string::npos);
}

}  // namespace
}  // namespace cia::experiments

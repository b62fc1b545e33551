// Unit tests for the dynamic policy generator and update orchestrator —
// the paper's §III-C contribution.
#include <gtest/gtest.h>

#include "common/strutil.hpp"
#include "core/policy_analyzer.hpp"
#include "core/policy_generator.hpp"
#include "core/update_orchestrator.hpp"
#include "experiments/testbed.hpp"

namespace cia::core {
namespace {

using experiments::Testbed;
using experiments::TestbedOptions;

pkg::ArchiveConfig small_archive() {
  pkg::ArchiveConfig cfg;
  cfg.base_package_count = 120;
  return cfg;
}

struct GeneratorFixture : ::testing::Test {
  GeneratorFixture() : archive(small_archive(), 11), mirror(&archive) {
    mirror.sync(0);
  }

  pkg::Archive archive;
  pkg::Mirror mirror;
  GeneratorConfig config;
};

TEST_F(GeneratorFixture, BaseCoversEveryMirrorExecutable) {
  DynamicPolicyGenerator generator(&mirror, config);
  const std::string kver = archive.current_kernel_version();
  const auto policy = generator.generate_base(kver);

  for (const auto& [name, pkg] : mirror.index()) {
    if (!pkg.kernel_version.empty() && pkg.kernel_version != kver) continue;
    for (const auto& f : pkg.files) {
      if (!f.executable) continue;
      EXPECT_EQ(policy.check(f.path, f.content_hash(name)),
                keylime::PolicyMatch::kAllowed)
          << name << " " << f.path;
    }
  }
}

TEST_F(GeneratorFixture, BaseStatsAccountEveryPackage) {
  DynamicPolicyGenerator generator(&mirror, config);
  PolicyUpdateStats stats;
  const auto policy =
      generator.generate_base(archive.current_kernel_version(), &stats);
  EXPECT_EQ(stats.lines_added, policy.entry_count());
  EXPECT_EQ(stats.packages_processed,
            stats.packages_high_priority + stats.packages_low_priority);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST_F(GeneratorFixture, RefreshWithNoChangesIsEmpty) {
  DynamicPolicyGenerator generator(&mirror, config);
  auto policy = generator.generate_base(archive.current_kernel_version());
  const auto stats =
      generator.refresh(policy, archive.current_kernel_version());
  EXPECT_EQ(stats.packages_processed, 0u);
  EXPECT_EQ(stats.lines_added, 0u);
}

TEST_F(GeneratorFixture, RefreshAppendsOnlyChangedExecutables) {
  DynamicPolicyGenerator generator(&mirror, config);
  auto policy = generator.generate_base(archive.current_kernel_version());
  const std::size_t before = policy.entry_count();

  pkg::ReleaseEvent ev;
  for (int day = 0; ev.updated.empty() && day < 60; ++day) {
    ev = archive.release_day(day);
  }
  ASSERT_FALSE(ev.updated.empty());
  mirror.sync(kDay);

  const auto stats =
      generator.refresh(policy, archive.current_kernel_version());
  EXPECT_GT(stats.lines_added, 0u);
  EXPECT_EQ(policy.entry_count(), before + stats.lines_added);

  // Old hashes are retained for update-window consistency...
  const pkg::Package* updated = archive.find(ev.updated[0]);
  ASSERT_NE(updated, nullptr);
  bool new_hash_allowed = true;
  for (const auto& f : updated->files) {
    if (!f.executable) continue;
    new_hash_allowed &= policy.check(f.path, f.content_hash(updated->name)) ==
                        keylime::PolicyMatch::kAllowed;
  }
  EXPECT_TRUE(new_hash_allowed);
}

TEST_F(GeneratorFixture, DedupDropsSupersededHashes) {
  DynamicPolicyGenerator generator(&mirror, config);
  auto policy = generator.generate_base(archive.current_kernel_version());
  pkg::ReleaseEvent ev;
  for (int day = 0; ev.updated.empty() && day < 60; ++day) {
    ev = archive.release_day(day);
  }
  ASSERT_FALSE(ev.updated.empty());
  mirror.sync(kDay);
  const auto stats =
      generator.refresh(policy, archive.current_kernel_version());
  ASSERT_GT(stats.lines_added, 0u);
  EXPECT_GT(policy.dedup(), 0u);
}

TEST_F(GeneratorFixture, OtherKernelsAreNotAdmitted) {
  pkg::ArchiveConfig cfg = small_archive();
  cfg.kernel_release_prob = 1.0;
  pkg::Archive kernel_archive(cfg, 12);
  const std::string old_kver = kernel_archive.current_kernel_version();
  (void)kernel_archive.release_day(0);  // releases a new kernel
  const std::string new_kver = kernel_archive.current_kernel_version();
  ASSERT_NE(old_kver, new_kver);
  pkg::Mirror m(&kernel_archive);
  m.sync(0);

  DynamicPolicyGenerator generator(&m, config);
  PolicyUpdateStats stats;
  const auto policy = generator.generate_base(old_kver, &stats);
  EXPECT_GT(stats.kernel_packages_skipped, 0u);
  const pkg::Package* mods = m.find("linux-modules-" + new_kver);
  ASSERT_NE(mods, nullptr);
  EXPECT_EQ(policy.check(mods->files[0].path,
                         mods->files[0].content_hash(mods->name)),
            keylime::PolicyMatch::kNotInPolicy);
}

TEST_F(GeneratorFixture, PendingKernelIsAdmittedAheadOfReboot) {
  pkg::ArchiveConfig cfg = small_archive();
  cfg.kernel_release_prob = 1.0;
  pkg::Archive kernel_archive(cfg, 13);
  const std::string old_kver = kernel_archive.current_kernel_version();
  pkg::Mirror m(&kernel_archive);
  m.sync(0);
  DynamicPolicyGenerator generator(&m, config);
  auto policy = generator.generate_base(old_kver);

  (void)kernel_archive.release_day(0);
  const std::string new_kver = kernel_archive.current_kernel_version();
  m.sync(kDay);
  (void)generator.refresh(policy, old_kver, new_kver);

  const pkg::Package* mods = m.find("linux-modules-" + new_kver);
  ASSERT_NE(mods, nullptr);
  EXPECT_EQ(policy.check(mods->files[0].path,
                         mods->files[0].content_hash(mods->name)),
            keylime::PolicyMatch::kAllowed);
}

TEST_F(GeneratorFixture, KernelRetirementPurgesOldModules) {
  pkg::ArchiveConfig cfg = small_archive();
  cfg.kernel_release_prob = 1.0;
  pkg::Archive kernel_archive(cfg, 14);
  const std::string old_kver = kernel_archive.current_kernel_version();
  pkg::Mirror m(&kernel_archive);
  m.sync(0);
  DynamicPolicyGenerator generator(&m, config);
  auto policy = generator.generate_base(old_kver);

  (void)kernel_archive.release_day(0);
  const std::string new_kver = kernel_archive.current_kernel_version();
  m.sync(kDay);
  (void)generator.refresh(policy, old_kver, new_kver);

  // The fleet reboots into the new kernel; the next refresh retires the
  // old kernel's entries.
  const auto stats = generator.refresh(policy, new_kver);
  EXPECT_GT(stats.kernel_lines_retired, 0u);
  const pkg::Package* old_mods = m.find("linux-modules-" + old_kver);
  ASSERT_NE(old_mods, nullptr);
  EXPECT_EQ(policy.check(old_mods->files[0].path,
                         old_mods->files[0].content_hash(old_mods->name)),
            keylime::PolicyMatch::kNotInPolicy)
      << "outdated kernel modules must be disallowed (§III-C)";
}

TEST_F(GeneratorFixture, KernelTrackingOffAdmitsEverything) {
  pkg::ArchiveConfig cfg = small_archive();
  cfg.kernel_release_prob = 1.0;
  pkg::Archive kernel_archive(cfg, 15);
  (void)kernel_archive.release_day(0);
  pkg::Mirror m(&kernel_archive);
  m.sync(0);
  GeneratorConfig no_tracking;
  no_tracking.kernel_tracking = false;
  DynamicPolicyGenerator generator(&m, no_tracking);
  PolicyUpdateStats stats;
  (void)generator.generate_base("definitely-not-a-kernel", &stats);
  EXPECT_EQ(stats.kernel_packages_skipped, 0u);
}

// ------------------------------------------------------------ orchestrator

struct OrchestratorFixture : ::testing::Test {
  OrchestratorFixture() : bed(make_options()) {
    EXPECT_TRUE(bed.enroll().ok());
    generator = std::make_unique<DynamicPolicyGenerator>(&bed.mirror,
                                                         GeneratorConfig{});
    orchestrator = std::make_unique<UpdateOrchestrator>(
        &bed.mirror, generator.get(), &bed.verifier, &bed.clock);
    orchestrator->manage({&bed.machine, &bed.apt, bed.agent_id()});
  }

  static TestbedOptions make_options() {
    TestbedOptions options;
    options.seed = 21;
    options.provision_extra = 30;
    options.archive.base_package_count = 120;
    return options;
  }

  Testbed bed;
  std::unique_ptr<DynamicPolicyGenerator> generator;
  std::unique_ptr<UpdateOrchestrator> orchestrator;
};

TEST_F(OrchestratorFixture, BootstrapInstallsBasePolicy) {
  ASSERT_TRUE(orchestrator->bootstrap().ok());
  EXPECT_GT(orchestrator->policy().entry_count(), 1000u);
  const auto* installed = bed.verifier.installed_policy(bed.agent_id());
  ASSERT_NE(installed, nullptr);
  EXPECT_EQ(installed->policy->entry_count(),
            orchestrator->policy().entry_count());
}

TEST_F(OrchestratorFixture, BootstrapWithoutNodesFails) {
  UpdateOrchestrator empty(&bed.mirror, generator.get(), &bed.verifier,
                           &bed.clock);
  EXPECT_FALSE(empty.bootstrap().ok());
}

TEST_F(OrchestratorFixture, CycleKeepsNodeInPolicyThroughUpdate) {
  ASSERT_TRUE(orchestrator->bootstrap().ok());

  // A day of releases lands upstream.
  (void)bed.archive.release_day(0);
  bed.clock.advance_to(kDay + 5 * kHour);

  auto report = orchestrator->run_cycle();
  ASSERT_TRUE(report.ok());

  // The machine executes freshly updated binaries; attestation must stay
  // green because the policy was pushed before the upgrade.
  for (const std::string& name : report.value().policy_stats.lines_added
                                     ? bed.provisioned
                                     : std::vector<std::string>{}) {
    const std::string bin = "/usr/bin/" + name;
    if (bed.machine.fs().is_file(bin)) (void)bed.machine.exec(bin);
  }
  bed.attest();
  EXPECT_EQ(bed.verifier.state(bed.agent_id()), keylime::AgentState::kAttesting);
  EXPECT_TRUE(bed.verifier.alerts().empty());
}

TEST_F(OrchestratorFixture, CycleReportsUpgradeCounts) {
  ASSERT_TRUE(orchestrator->bootstrap().ok());
  // Release until one of the provisioned packages updates.
  bool touched = false;
  for (int day = 0; day < 30 && !touched; ++day) {
    const auto ev = bed.archive.release_day(day);
    for (const auto& n : ev.updated) {
      touched |= bed.apt.is_installed(n);
    }
  }
  ASSERT_TRUE(touched);
  auto report = orchestrator->run_cycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().nodes_upgraded, 1u);
  EXPECT_GT(report.value().packages_installed, 0u);
}

TEST_F(OrchestratorFixture, DedupRunsAfterUpgrade) {
  ASSERT_TRUE(orchestrator->bootstrap().ok());
  bool touched = false;
  for (int day = 0; day < 30 && !touched; ++day) {
    const auto ev = bed.archive.release_day(day);
    for (const auto& n : ev.updated) touched |= bed.apt.is_installed(n);
  }
  ASSERT_TRUE(touched);
  auto report = orchestrator->run_cycle();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().dedup_removed, 0u);
}

TEST_F(OrchestratorFixture, NewKernelInstallsAndArmsReboot) {
  ASSERT_TRUE(orchestrator->bootstrap().ok());
  pkg::ArchiveConfig cfg;  // force the kernel release through the archive
  // Drive release days until a kernel release happens.
  bool kernel = false;
  for (int day = 0; day < 100 && !kernel; ++day) {
    kernel = bed.archive.release_day(day).kernel_release;
  }
  ASSERT_TRUE(kernel);
  auto report = orchestrator->run_cycle();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().kernel_pending_reboot);
  const std::string pending = bed.machine.pending_kernel();
  EXPECT_FALSE(pending.empty());
  EXPECT_TRUE(bed.apt.is_installed("linux-modules-" + pending));

  const std::string old_kver = bed.machine.kernel_version();
  bed.machine.reboot();
  EXPECT_EQ(bed.machine.kernel_version(), pending);
  EXPECT_NE(bed.machine.kernel_version(), old_kver);

  // Loading a new-kernel module after the reboot stays in policy.
  const std::string mod_dir = "/lib/modules/" + pending + "/kernel";
  const auto mods = bed.machine.fs().list_files(mod_dir);
  ASSERT_FALSE(mods.empty());
  ASSERT_TRUE(bed.machine.load_kernel_module(mods[0]).ok());
  bed.attest();  // reboot detection
  bed.attest();
  EXPECT_TRUE(bed.verifier.alerts().empty());
}

// -------------------------------------------------- signed manifests (§V)

TEST_F(GeneratorFixture, SignedManifestsAreAdmitted) {
  GeneratorConfig signed_config;
  signed_config.trusted_maintainer = archive.maintainer_key();
  DynamicPolicyGenerator generator(&mirror, signed_config);
  PolicyUpdateStats stats;
  const auto policy =
      generator.generate_base(archive.current_kernel_version(), &stats);
  EXPECT_EQ(stats.manifest_rejected, 0u);
  EXPECT_GT(policy.entry_count(), 1000u);
}

TEST_F(GeneratorFixture, WrongMaintainerKeyRejectsEverything) {
  GeneratorConfig signed_config;
  signed_config.trusted_maintainer =
      crypto::derive_keypair(to_bytes("rogue"), "rogue").pub;
  DynamicPolicyGenerator generator(&mirror, signed_config);
  PolicyUpdateStats stats;
  const auto policy =
      generator.generate_base(archive.current_kernel_version(), &stats);
  EXPECT_EQ(policy.entry_count(), 0u);
  EXPECT_GT(stats.manifest_rejected, 100u);
}

TEST_F(GeneratorFixture, TamperedPackageIsRejectedWhenVerifying) {
  // An attacker (or corrupted mirror) swaps a file hash inside a package:
  // the manifest signature no longer verifies and the package is not
  // admitted into the policy.
  pkg::Archive tampered_archive(small_archive(), 11);
  pkg::Mirror tampered_mirror(&tampered_archive);
  tampered_mirror.sync(0);
  auto index = tampered_mirror.index();  // copy for inspection

  GeneratorConfig signed_config;
  signed_config.trusted_maintainer = tampered_archive.maintainer_key();
  // Tamper via a fresh mirror-like struct: mutate one package's file.
  // (Mirror snapshots by value, so mutate through a const_cast-free path:
  // rebuild the archive, tamper, re-sync is not possible — instead verify
  // the negative by checking the manifest directly.)
  pkg::Package bash = index.at("bash");
  bash.files[0].content_rev += 1;  // content changed, signature stale
  const auto sig = crypto::Signature::decode(bash.manifest_signature);
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(crypto::verify(tampered_archive.maintainer_key(),
                              bash.manifest_tbs(), *sig));
}

TEST_F(GeneratorFixture, UnsignedArchiveFailsVerification) {
  pkg::ArchiveConfig cfg = small_archive();
  cfg.sign_manifests = false;
  pkg::Archive unsigned_archive(cfg, 11);
  pkg::Mirror unsigned_mirror(&unsigned_archive);
  unsigned_mirror.sync(0);
  GeneratorConfig signed_config;
  signed_config.trusted_maintainer = unsigned_archive.maintainer_key();
  DynamicPolicyGenerator generator(&unsigned_mirror, signed_config);
  PolicyUpdateStats stats;
  const auto policy =
      generator.generate_base(unsigned_archive.current_kernel_version(), &stats);
  EXPECT_EQ(policy.entry_count(), 0u);
  EXPECT_GT(stats.manifest_rejected, 0u);
}

// --------------------------------------------------------- coverage analyzer

TEST(PolicyAnalyzerTest, FullyCoveredMachineIsClean) {
  TestbedOptions options;
  options.provision_extra = 20;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  bed.mirror.sync(0);
  DynamicPolicyGenerator generator(&bed.mirror, GeneratorConfig{});
  auto policy = generator.generate_base(bed.machine.kernel_version());
  // The scan covers non-package executables too (bootloader, user data):
  policy.merge(experiments::scan_machine_policy(bed.machine, false));

  const auto report = analyze_coverage(bed.machine, policy);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.coverage_ratio(), 1.0);
  EXPECT_GT(report.policy_only_paths, 1000u)
      << "the distribution policy covers far more than one machine";
}

TEST(PolicyAnalyzerTest, FlagsStaleUncoveredAndExcluded) {
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  keylime::RuntimePolicy policy =
      experiments::scan_machine_policy(bed.machine, true);

  // Stale: modify a covered binary in place.
  ASSERT_TRUE(bed.machine.fs().write_file("/usr/bin/bash",
                                          to_bytes("elf:trojan")).ok());
  // Uncovered: drop a new executable.
  ASSERT_TRUE(bed.machine.fs()
                  .create_file("/usr/local/bin/new-tool", to_bytes("x"), true)
                  .ok());
  // Excluded: an executable under the policy's /tmp glob.
  ASSERT_TRUE(bed.machine.fs()
                  .create_file("/tmp/payload", to_bytes("y"), true)
                  .ok());

  const auto report = analyze_coverage(bed.machine, policy);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.stale_hash, 1u);
  EXPECT_EQ(report.uncovered, 1u);
  EXPECT_EQ(report.excluded, 1u);
  ASSERT_EQ(report.stale_samples.size(), 1u);
  EXPECT_EQ(report.stale_samples[0], "/usr/bin/bash");
  EXPECT_EQ(report.uncovered_samples[0], "/usr/local/bin/new-tool");
  EXPECT_EQ(report.excluded_samples[0], "/tmp/payload");
  EXPECT_NE(report.to_string().find("excluded (P1!)"), std::string::npos);
}

TEST(PolicyAnalyzerTest, EmptyMachineIsTriviallyClean) {
  SimClock clock;
  crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  oskernel::MachineConfig cfg;
  cfg.mount_standard_filesystems = false;
  oskernel::Machine machine(cfg, ca, &clock);
  // Only the bootloader exists; cover it.
  keylime::RuntimePolicy policy =
      experiments::scan_machine_policy(machine, false);
  const auto report = analyze_coverage(machine, policy);
  EXPECT_TRUE(report.clean());
}

// ------------------------------------------------------- multi-node fleet

TEST(OrchestratorFleetTest, ThreeNodesStayInPolicyThroughUpdates) {
  // One orchestrator managing three machines: the policy push covers the
  // fleet, and every node upgrades from the same mirror.
  SimClock clock;
  crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  netsim::SimNetwork network(&clock, 5);
  keylime::Registrar registrar(&network, &clock, 6);
  registrar.trust_manufacturer(ca.public_key());
  keylime::Verifier verifier(&network, &clock, 7);

  pkg::ArchiveConfig archive_cfg;
  archive_cfg.base_package_count = 120;
  pkg::Archive archive(archive_cfg, 9);
  pkg::Mirror mirror(&archive);

  std::vector<std::unique_ptr<oskernel::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  std::vector<std::unique_ptr<pkg::AptClient>> apts;
  DynamicPolicyGenerator generator(&mirror, GeneratorConfig{});
  UpdateOrchestrator orchestrator(&mirror, &generator, &verifier, &clock);

  for (int i = 0; i < 3; ++i) {
    oskernel::MachineConfig cfg;
    cfg.hostname = strformat("fleet-%d", i);
    cfg.seed = static_cast<std::uint64_t>(i + 1);
    machines.push_back(std::make_unique<oskernel::Machine>(cfg, ca, &clock));
    apts.push_back(std::make_unique<pkg::AptClient>(machines.back().get(),
                                                    pkg::CostModel{}));
    ASSERT_TRUE(apts.back()->provision(archive.index(), {"bash", "python3"}).ok());
    agents.push_back(std::make_unique<keylime::Agent>(machines.back().get(),
                                                      &network));
    ASSERT_TRUE(agents.back()->register_with(keylime::Registrar::address()).ok());
    ASSERT_TRUE(verifier.add_agent(cfg.hostname, agents.back()->address()).ok());
    orchestrator.manage({machines.back().get(), apts.back().get(), cfg.hostname});
  }
  ASSERT_TRUE(orchestrator.bootstrap().ok());

  for (int day = 0; day < 5; ++day) {
    (void)archive.release_day(day);
    clock.advance_to((day + 1) * kDay + 5 * kHour);
    ASSERT_TRUE(orchestrator.run_cycle().ok());
    for (auto& m : machines) {
      (void)m->exec("/usr/bin/bash");
      (void)m->exec("/usr/bin/python3");
    }
    (void)verifier.attest_all();
  }
  EXPECT_TRUE(verifier.alerts().empty());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(verifier.state(strformat("fleet-%d", i)),
              keylime::AgentState::kAttesting);
  }
}

}  // namespace
}  // namespace cia::core

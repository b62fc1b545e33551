#include "experiments/fn_experiment.hpp"

#include "core/policy_generator.hpp"
#include "experiments/testbed.hpp"

namespace cia::experiments {

const char* detection_outcome_name(DetectionOutcome o) {
  switch (o) {
    case DetectionOutcome::kDetectedImmediately: return "detected";
    case DetectionOutcome::kDetectedOnReboot: return "detected-on-reboot";
    case DetectionOutcome::kEvaded: return "evaded";
  }
  return "?";
}

namespace {

enum class Scenario { kBasic, kAdaptive, kMitigated };

/// Does any policy alert touch one of the attack's payload markers?
bool payload_alerted(const keylime::Verifier& verifier,
                     const attacks::Attack& attack) {
  for (const keylime::Alert& alert : verifier.alerts()) {
    if (alert.type != keylime::AlertType::kHashMismatch &&
        alert.type != keylime::AlertType::kNotInPolicy) {
      continue;
    }
    for (const std::string& marker : attack.payload_markers()) {
      if (alert.path.find(marker) != std::string::npos) return true;
    }
  }
  return false;
}

DetectionOutcome run_scenario(attacks::Attack& attack, Scenario scenario,
                              std::uint64_t seed, std::size_t archive_packages) {
  TestbedOptions options;
  options.seed = seed;  // identical machine image for every run
  options.archive.base_package_count = archive_packages;
  options.provision_extra = 40;  // a lean node keeps the FN rig fast
  if (scenario == Scenario::kMitigated) {
    options.ima_policy = ima::ImaPolicy::enriched();
    options.ima_config.reevaluate_on_path_change = true;
    options.ima_config.script_exec_control = true;
    options.verifier_config.continue_on_failure = true;
  }
  Testbed bed(options);
  if (!bed.enroll().ok()) return DetectionOutcome::kEvaded;
  if (scenario == Scenario::kMitigated) {
    // bash has adopted script-execution control upstream; python has not.
    bed.machine.register_sec_aware_interpreter("/usr/bin/bash");
  }

  // "We use the new policy derived from the false positive experiment":
  // the dynamically generated distribution policy. The stock deployments
  // also carry the inherited /tmp exclusion (P1); the mitigated one does
  // not (§IV-C "Enriching Keylime/IMA Policies").
  bed.mirror.sync(bed.clock.now());
  core::DynamicPolicyGenerator generator(&bed.mirror, core::GeneratorConfig{});
  keylime::RuntimePolicy policy =
      generator.generate_base(bed.machine.kernel_version());
  if (scenario != Scenario::kMitigated) {
    policy.exclude("/tmp/*");
  }
  if (!bed.verifier.set_policy(bed.agent_id(), policy).ok()) {
    return DetectionOutcome::kEvaded;
  }

  // Pre-attack health check: the clean machine must attest green.
  bed.attest();

  attacks::AttackContext ctx;
  ctx.machine = &bed.machine;
  ctx.attestation_round = [&bed] { bed.attest(); };

  const Status run = (scenario == Scenario::kBasic) ? attack.run_basic(ctx)
                                                    : attack.run_adaptive(ctx);
  if (!run.ok()) return DetectionOutcome::kEvaded;

  // The attack window: several verifier polls.
  for (int i = 0; i < 3; ++i) bed.attest();
  if (payload_alerted(bed.verifier, attack)) {
    return DetectionOutcome::kDetectedImmediately;
  }

  // The basic/adaptive columns of Table II are judged within the running
  // boot — the paper observes that /tmp-resident payloads "remained
  // undetected until a reboot", i.e. the reboot path only counts for the
  // mitigation assessment.
  if (scenario != Scenario::kMitigated) return DetectionOutcome::kEvaded;

  // Fresh attestation after a reboot — the paper's "✓*" condition. The
  // stock verifier may be frozen on an unresolved failure; the operator
  // resolves it as part of the maintenance reboot.
  (void)bed.verifier.resolve_failure(bed.agent_id());
  bed.machine.reboot();
  bed.attest();  // absorbs reboot detection
  (void)attack.post_reboot_activity(ctx);
  for (int i = 0; i < 3; ++i) bed.attest();
  if (payload_alerted(bed.verifier, attack)) {
    return DetectionOutcome::kDetectedOnReboot;
  }
  return DetectionOutcome::kEvaded;
}

}  // namespace

std::vector<AttackReport> run_fn_experiment(const FnExperimentOptions& options) {
  std::vector<AttackReport> reports;
  for (const auto& attack : attacks::all_attacks()) {
    AttackReport report;
    report.name = attack->name();
    report.category = attack->category();
    report.exploits = attack->exploits();
    report.paper_expects_mitigable = attack->mitigable();
    report.basic = run_scenario(*attack, Scenario::kBasic, options.seed,
                                options.archive_packages);
    report.adaptive = run_scenario(*attack, Scenario::kAdaptive, options.seed,
                                   options.archive_packages);
    report.mitigated = run_scenario(*attack, Scenario::kMitigated,
                                    options.seed, options.archive_packages);
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace cia::experiments

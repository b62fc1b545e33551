// Cross-layer invariant checking over a live fleet simulation.
//
// Fuzzing (fuzzer.hpp) exercises one parse surface at a time; the
// InvariantChecker exercises the whole attestation pipeline and asserts
// the properties that hold only when every layer agrees:
//
//   pcr_replay   folding each machine's IMA log reproduces its TPM's
//                PCR-10 exactly — the root identity the paper's
//                appraisal step (§II) rests on.
//   audit_chain  the verifier's durable-attestation chain verifies
//                offline after every round, never shrinks, and the old
//                head is still in place after a checkpoint/restore
//                "crash" — history is never forked or truncated.
//   checkpoint   checkpoint -> restore into a fresh verifier (same
//                seed) -> checkpoint is byte-identical, and the fleet
//                keeps attesting through the restart.
//   books        telemetry never drifts from ground truth: the
//                cia_verifier_rounds_total / cia_verifier_alerts_total
//                counters equal the checker's own tallies, and the
//                cia_transport_* counters equal RetryingTransport's
//                internal Stats.
//
// Runs are seed-deterministic; a (seed, rounds) pair replays exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "keylime/audit.hpp"

namespace cia::keylime {
class VerifierPool;
}  // namespace cia::keylime

namespace cia::testkit {

struct InvariantOptions {
  std::uint64_t seed = 1;
  std::size_t machines = 3;
  std::size_t rounds = 18;
  /// Crash-and-restore the verifier every this many rounds (0 = never).
  std::size_t checkpoint_every = 5;
  /// Plant an unauthorized binary mid-run so the alert/quarantine/resolve
  /// path is part of what the invariants must survive.
  bool tamper = true;
};

struct InvariantViolation {
  std::string invariant;  // pcr_replay | audit_chain | checkpoint | books |
                          // policy_install
  std::size_t round = 0;
  std::string detail;
};

struct InvariantReport {
  std::size_t rounds = 0;
  std::size_t checks = 0;    // individual assertions evaluated
  std::size_t restarts = 0;  // checkpoint/restore cycles survived
  std::size_t alerts = 0;    // alerts raised by the planted tamper
  std::vector<InvariantViolation> violations;

  bool clean() const { return violations.empty(); }
};

/// Build a fleet (machines + agents + registrar + verifier + retrying
/// transport + metrics), drive `options.rounds` rounds of file activity
/// and attestation, and assert every invariant after each round.
InvariantReport check_invariants(const InvariantOptions& options = {});

/// Cross-shard audit-chain rule for sharded/resharded pools: collect the
/// audit logs of EVERY shard (active and retired) and assert each
/// agent's sub-chain is whole even when its history spans several
/// shards. Per agent, across all logs combined:
///
///   * agent_seq values are exactly 0..n-1 — a duplicate is a forked
///     chain (two shards both extended the same point, e.g. after a
///     botched handoff), a gap is truncated history;
///   * record 0 has the zero agent_prev_hash and every later record's
///     agent_prev_hash equals the previous record's agent_hash() — the
///     linkage is over the partition-independent sub-chain hash, so a
///     legitimate migration is indistinguishable from no migration.
///
/// Returns one violation per broken agent (invariant
/// "cross_shard_chain").
std::vector<InvariantViolation> check_cross_shard_audit_chains(
    const std::vector<const keylime::AuditLog*>& logs);

/// Single-enrolment rule for sharded pools, to assert after every resize
/// and every leave: each agent the pool routes is enrolled on exactly one
/// shard verifier — its owner — and no shard still holds an agent the
/// pool no longer routes. A migration that committed on both sides, or
/// a leave whose removal failed, shows up here. Returns one violation
/// per broken agent (invariant "single_enrolment").
std::vector<InvariantViolation> check_single_enrolment(
    const keylime::VerifierPool& pool);

}  // namespace cia::testkit

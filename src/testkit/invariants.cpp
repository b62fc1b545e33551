#include "testkit/invariants.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/strutil.hpp"
#include "crypto/cert.hpp"
#include "crypto/sha256.hpp"
#include "ima/ima.hpp"
#include "keylime/agent.hpp"
#include "keylime/audit.hpp"
#include "keylime/registrar.hpp"
#include "keylime/runtime_policy.hpp"
#include "keylime/verifier.hpp"
#include "keylime/verifier_pool.hpp"
#include "netsim/network.hpp"
#include "netsim/transport.hpp"
#include "oskernel/machine.hpp"
#include "telemetry/metrics.hpp"
#include "tpm/tpm.hpp"

namespace cia::testkit {

namespace {

struct Node {
  std::unique_ptr<oskernel::Machine> machine;
  std::unique_ptr<keylime::Agent> agent;
  keylime::RuntimePolicy policy;  // the checker's own mirror of the truth
  int next_file = 0;
};

class Fleet {
 public:
  explicit Fleet(const InvariantOptions& options)
      : options_(options),
        rng_(options.seed),
        ca_("testkit-mfg", to_bytes("testkit-invariant-ca")),
        network_(&clock_, options.seed ^ 0x6e657477),
        registrar_(&network_, &clock_, options.seed ^ 0x72656773),
        transport_(&network_, &clock_, options.seed ^ 0x74726e73) {
    registrar_.trust_manufacturer(ca_.public_key());
    transport_.use_telemetry(&metrics_);
    verifier_ = make_verifier();
    for (std::size_t i = 0; i < options.machines; ++i) {
      Node node;
      oskernel::MachineConfig cfg;
      cfg.hostname = "inv-node-" + std::to_string(i);
      cfg.seed = options.seed + i + 1;
      node.machine = std::make_unique<oskernel::Machine>(cfg, ca_, &clock_);
      node.agent =
          std::make_unique<keylime::Agent>(node.machine.get(), &network_);
      if (!node.agent->register_with(keylime::Registrar::address()).ok()) {
        continue;
      }
      if (!verifier_->add_agent(cfg.hostname, node.agent->address()).ok()) {
        continue;
      }
      // Baseline policy: everything the machine measured while booting.
      for (const auto& entry : node.machine->ima().log()) {
        node.policy.allow(entry.path, entry.file_hash);
      }
      if (Status s = verifier_->set_policy(cfg.hostname, node.policy);
          !s.ok()) {
        setup_failures_.push_back(
            {"policy_install", 0,
             cfg.hostname + ": baseline install failed: " +
                 s.error().to_string()});
      }
      nodes_.push_back(std::move(node));
    }
  }

  InvariantReport run() {
    InvariantReport report;
    report.violations = setup_failures_;
    const std::size_t tamper_round =
        options_.tamper ? options_.rounds / 2 : options_.rounds;
    for (std::size_t round = 0; round < options_.rounds; ++round) {
      ++report.rounds;
      generate_activity(round, round == tamper_round, report);
      attest_all(round, report);
      check_pcr_replay(round, report);
      check_audit_chain(round, report);
      check_books(round, report);
      if (options_.checkpoint_every != 0 && round > 0 &&
          round % options_.checkpoint_every == 0) {
        crash_and_restore(round, report);
      }
      clock_.advance(60);
    }
    return report;
  }

 private:
  std::unique_ptr<keylime::Verifier> make_verifier() {
    // Always the same seed: restore() only accepts audit chains signed by
    // the key this seed derives, which is exactly the crash-recovery
    // contract a real redeploy relies on.
    auto verifier = std::make_unique<keylime::Verifier>(
        &network_, &clock_, options_.seed ^ 0x76657269);
    verifier->use_transport(&transport_);
    verifier->use_telemetry(&metrics_);
    return verifier;
  }

  void fail(InvariantReport& report, const std::string& invariant,
            std::size_t round, std::string detail) {
    report.violations.push_back({invariant, round, std::move(detail)});
  }

  /// A refused install leaves the verifier on a stale policy, so the
  /// next round would raise a false alert: report it where it happened.
  void install_policy(const Node& node, std::size_t round,
                      InvariantReport& report) {
    const std::string& id = node.machine->hostname();
    if (Status s = verifier_->set_policy(id, node.policy); !s.ok()) {
      fail(report, "policy_install", round,
           id + ": install failed: " + s.error().to_string());
    }
  }

  void generate_activity(std::size_t round, bool tamper,
                         InvariantReport& report) {
    // Benign churn: new measured-and-allowed binaries, occasional reruns.
    for (Node& node : nodes_) {
      if (!rng_.chance(0.7)) continue;
      const std::string path = "/usr/local/bin/churn-" +
                               node.machine->hostname() + "-" +
                               std::to_string(node.next_file++);
      const Bytes content = to_bytes("elf:" + path);
      (void)node.machine->fs().create_file(path, content, true);
      node.policy.allow(path, crypto::sha256(content));
      install_policy(node, round, report);
      (void)node.machine->exec(path);
      if (rng_.chance(0.3) && node.next_file > 1) {
        (void)node.machine->exec("/usr/local/bin/churn-" +
                                 node.machine->hostname() + "-0");
      }
    }
    if (tamper && !nodes_.empty()) {
      // An implant the policy does not know about: the next round must
      // alert, quarantine, and — once resolved — keep every invariant.
      Node& victim = nodes_[rng_.uniform(nodes_.size())];
      const std::string mal = "/tmp/.inv-implant";
      (void)victim.machine->fs().create_file(mal, to_bytes("elf:implant"),
                                             true);
      (void)victim.machine->exec(mal);
    }
  }

  void attest_all(std::size_t round, InvariantReport& report) {
    for (Node& node : nodes_) {
      const std::string& id = node.machine->hostname();
      const std::size_t alerts_before = verifier_->alerts().size();
      auto attested = verifier_->attest_once(id);
      if (!attested.ok()) continue;
      ++rounds_tallied_;
      const std::size_t raised = verifier_->alerts().size() - alerts_before;
      alerts_tallied_ += raised;
      report.alerts += raised;
      if (raised > 0) {
        // Operator playbook: acknowledge, then trust the implant's hash so
        // the fleet returns to steady state (the checker only plants one).
        (void)verifier_->resolve_failure(id);
        for (const auto& alert : attested.value().alerts) {
          if (alert.path.empty() || alert.observed_hash_hex.empty()) continue;
          node.policy.allow(alert.path, alert.observed_hash_hex);
        }
        install_policy(node, round, report);
      }
    }
  }

  void check_pcr_replay(std::size_t round, InvariantReport& report) {
    for (const Node& node : nodes_) {
      ++report.checks;
      const crypto::Digest replayed =
          ima::replay_log(node.machine->ima().log());
      const crypto::Digest quoted =
          node.machine->tpm().pcr_value(tpm::kImaPcr);
      if (!(replayed == quoted)) {
        fail(report, "pcr_replay", round,
             node.machine->hostname() + ": log folds to " +
                 crypto::digest_hex(replayed) + " but PCR-10 is " +
                 crypto::digest_hex(quoted));
      }
    }
  }

  void check_audit_chain(std::size_t round, InvariantReport& report) {
    const auto& records = verifier_->audit().records();
    ++report.checks;
    if (Status s = keylime::verify_audit_chain(
            records, verifier_->audit().public_key());
        !s.ok()) {
      fail(report, "audit_chain", round,
           "chain failed offline verification: " + s.error().to_string());
      return;
    }
    ++report.checks;
    if (records.size() < audit_len_) {
      fail(report, "audit_chain", round,
           strformat("chain shrank from %zu to %zu records", audit_len_,
                     records.size()));
      return;
    }
    if (audit_len_ > 0) {
      ++report.checks;
      if (!(records[audit_len_ - 1].record_hash == audit_head_)) {
        fail(report, "audit_chain", round,
             "previously observed head was rewritten at index " +
                 std::to_string(audit_len_ - 1));
      }
    }
    audit_len_ = records.size();
    if (audit_len_ > 0) audit_head_ = records[audit_len_ - 1].record_hash;
  }

  void check_books(std::size_t round, InvariantReport& report) {
    const telemetry::MetricsSnapshot snap = metrics_.snapshot();
    const auto expect = [&](const char* name, std::uint64_t want) {
      ++report.checks;
      const double got = snap.counter_total(name);
      if (got != static_cast<double>(want)) {
        fail(report, "books", round,
             strformat("%s is %.0f but ground truth is %llu", name, got,
                       static_cast<unsigned long long>(want)));
      }
    };
    expect("cia_verifier_rounds_total", rounds_tallied_);
    expect("cia_verifier_alerts_total", alerts_tallied_);
    const auto& ts = transport_.stats();
    expect("cia_transport_calls_total", ts.calls);
    expect("cia_transport_retries_total", ts.retries);
    expect("cia_transport_giveups_total", ts.giveups);
  }

  void crash_and_restore(std::size_t round, InvariantReport& report) {
    const std::string before = verifier_->checkpoint().dump();
    auto doc = json::parse(before);
    ++report.checks;
    if (!doc.ok()) {
      fail(report, "checkpoint", round,
           "checkpoint is not valid JSON: " + doc.error().to_string());
      return;
    }
    auto revived = make_verifier();
    ++report.checks;
    if (Status s = revived->restore(doc.value()); !s.ok()) {
      fail(report, "checkpoint", round,
           "restore rejected our own checkpoint: " + s.error().to_string());
      return;
    }
    ++report.checks;
    const std::string after = revived->checkpoint().dump();
    if (after != before) {
      fail(report, "checkpoint", round,
           strformat("restore drifted: %zu vs %zu checkpoint bytes",
                     before.size(), after.size()));
      return;
    }
    // The restart takes: all later rounds (and invariants) run against
    // the revived instance.
    verifier_ = std::move(revived);
    ++report.restarts;
  }

  InvariantOptions options_;
  Rng rng_;
  SimClock clock_;
  crypto::CertificateAuthority ca_;
  netsim::SimNetwork network_;
  keylime::Registrar registrar_;
  netsim::RetryingTransport transport_;
  telemetry::MetricsRegistry metrics_;
  std::unique_ptr<keylime::Verifier> verifier_;
  std::vector<Node> nodes_;
  /// Violations found while building the fleet, before any round.
  std::vector<InvariantViolation> setup_failures_;

  std::uint64_t rounds_tallied_ = 0;
  std::uint64_t alerts_tallied_ = 0;
  std::size_t audit_len_ = 0;
  crypto::Digest audit_head_{};
};

}  // namespace

InvariantReport check_invariants(const InvariantOptions& options) {
  return Fleet(options).run();
}

std::vector<InvariantViolation> check_cross_shard_audit_chains(
    const std::vector<const keylime::AuditLog*>& logs) {
  std::vector<InvariantViolation> violations;
  std::map<std::string, std::vector<const keylime::AuditRecord*>> by_agent;
  for (const keylime::AuditLog* log : logs) {
    if (!log) continue;
    for (const keylime::AuditRecord& rec : log->records()) {
      by_agent[rec.agent_id].push_back(&rec);
    }
  }
  for (auto& [agent, recs] : by_agent) {
    std::sort(recs.begin(), recs.end(),
              [](const keylime::AuditRecord* a, const keylime::AuditRecord* b) {
                return a->agent_seq < b->agent_seq;
              });
    const auto blame = [&](const std::string& detail) {
      violations.push_back({"cross_shard_chain", 0, agent + ": " + detail});
    };
    bool numbered_ok = true;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i]->agent_seq != i) {
        const bool duplicate = i > 0 && recs[i]->agent_seq == i - 1;
        blame(strformat(
            "%s sub-chain at position %zu: expected agent_seq %zu, got %llu",
            duplicate ? "forked" : "gapped", i, i,
            static_cast<unsigned long long>(recs[i]->agent_seq)));
        numbered_ok = false;
        break;
      }
    }
    if (!numbered_ok) continue;  // linkage checks presume clean numbering
    if (!recs.empty() && recs[0]->agent_prev_hash != crypto::Digest{}) {
      blame("sub-chain head does not start from the zero prev hash");
      continue;
    }
    for (std::size_t i = 1; i < recs.size(); ++i) {
      if (recs[i]->agent_prev_hash != recs[i - 1]->agent_hash()) {
        blame(strformat("broken sub-chain link at agent_seq %zu", i));
        break;
      }
    }
  }
  return violations;
}

std::vector<InvariantViolation> check_single_enrolment(
    const keylime::VerifierPool& pool) {
  std::vector<InvariantViolation> violations;
  for (std::string& fault : pool.enrolment_faults()) {
    violations.push_back({"single_enrolment", 0, std::move(fault)});
  }
  return violations;
}

}  // namespace cia::testkit

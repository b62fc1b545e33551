// Tests for the sharded verifier pool: consistent-hash ring behaviour,
// fleet-level attestation through PoolFleet, copy-on-write policy swaps,
// and the pool's two determinism contracts —
//
//   * the same (seed, shard count) reproduces a byte-identical telemetry
//     snapshot and identical per-shard audit chains;
//   * per-agent verdicts are invariant to the shard count, because every
//     shard network is seeded identically and per-link fault streams
//     derive from the agent's address, never from its shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/strutil.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/verifier_pool.hpp"
#include "telemetry/export.hpp"
#include "testkit/invariants.hpp"

namespace cia {
namespace {

using experiments::PoolFleet;
using experiments::PoolFleetOptions;

std::vector<std::string> sequential_ids(std::size_t n) {
  std::vector<std::string> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(strformat("agent-%04zu", i));
  return ids;
}

// ------------------------------------------------------ consistent hash

TEST(PoolRingTest, SequentialIdsSpreadAcrossShards) {
  keylime::VerifierPoolConfig config;
  config.shards = 8;
  keylime::VerifierPool pool(7, config);

  std::map<std::size_t, std::size_t> counts;
  for (const std::string& id : sequential_ids(1000)) counts[pool.shard_for(id)]++;

  // Sequentially named fleets are the worst case for a weak ring hash
  // (ids differ only in trailing digits); this pins the avalanche fix.
  ASSERT_EQ(counts.size(), 8u) << "every shard must own part of the fleet";
  for (const auto& [shard, n] : counts) {
    EXPECT_GT(n, 1000 / 8 / 4) << "shard " << shard << " owns almost nothing";
    EXPECT_LT(n, 1000 / 8 * 4) << "shard " << shard << " owns almost everything";
  }
}

TEST(PoolRingTest, AssignmentIsStableAcrossInstances) {
  keylime::VerifierPoolConfig config;
  config.shards = 6;
  keylime::VerifierPool a(1, config);
  keylime::VerifierPool b(2, config);  // pool seed does not shape the ring
  for (const std::string& id : sequential_ids(200)) {
    EXPECT_EQ(a.shard_for(id), b.shard_for(id)) << id;
  }
}

TEST(PoolRingTest, ResizeMovesOnlyAFractionOfTheFleet) {
  keylime::VerifierPoolConfig small, large;
  small.shards = 8;
  large.shards = 10;
  keylime::VerifierPool a(1, small);
  keylime::VerifierPool b(1, large);

  std::size_t moved = 0;
  const auto ids = sequential_ids(1000);
  for (const std::string& id : ids) {
    if (a.shard_for(id) != b.shard_for(id)) ++moved;
  }
  // Consistent hashing: growing 8 -> 10 shards should move roughly 1/5
  // of the keys, nowhere near the ~9/10 a modulo partition would.
  EXPECT_LT(moved, ids.size() / 2)
      << "resize reshuffled most of the fleet - ring is not consistent";
  EXPECT_GT(moved, 0u) << "new shards must take over some agents";
}

// ------------------------------------------------------ fleet behaviour

TEST(PoolFleetTest, CleanFleetAttestsOnEveryShard) {
  PoolFleetOptions options;
  options.agents = 16;
  options.shards = 4;
  options.seed = 11;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  fleet.run_workload_round(0);
  const std::size_t polls = fleet.pool().run_round();
  EXPECT_EQ(polls, 16u);
  EXPECT_TRUE(fleet.pool().alerts().empty());
  for (const std::string& id : fleet.agent_ids()) {
    ASSERT_TRUE(fleet.pool().state(id).has_value()) << id;
    EXPECT_EQ(*fleet.pool().state(id), keylime::AgentState::kAttesting) << id;
  }
  EXPECT_EQ(fleet.pool().stats().polls, 16u);
  EXPECT_GT(fleet.pool().stats().index_hits, 0u)
      << "appraisal must be served by the PolicyIndex, not the linear scan";
}

TEST(PoolFleetTest, ViolationFailsOnlyTheOffendingAgent) {
  PoolFleetOptions options;
  options.agents = 12;
  options.shards = 4;
  options.seed = 13;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  fleet.run_workload_round(0);
  fleet.exec_unknown(3);
  fleet.exec_unknown(7);
  fleet.pool().run_round();

  const std::set<std::string> bad = {fleet.agent_ids()[3], fleet.agent_ids()[7]};
  for (const std::string& id : fleet.agent_ids()) {
    const auto state = fleet.pool().state(id);
    ASSERT_TRUE(state.has_value()) << id;
    if (bad.count(id)) {
      EXPECT_EQ(*state, keylime::AgentState::kFailed) << id;
    } else {
      EXPECT_EQ(*state, keylime::AgentState::kAttesting) << id;
    }
  }
  std::set<std::string> alerted;
  for (const keylime::Alert& alert : fleet.pool().alerts()) {
    alerted.insert(alert.agent_id);
    EXPECT_EQ(alert.type, keylime::AlertType::kNotInPolicy);
  }
  EXPECT_EQ(alerted, bad);
}

TEST(PoolFleetTest, MergedAlertsAreDeterministicallyOrdered) {
  PoolFleetOptions options;
  options.agents = 10;
  options.shards = 3;
  options.seed = 17;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  for (std::size_t i = 0; i < options.agents; ++i) fleet.exec_unknown(i);
  fleet.pool().run_round();

  const auto alerts = fleet.pool().alerts();
  ASSERT_EQ(alerts.size(), options.agents);
  for (std::size_t i = 1; i < alerts.size(); ++i) {
    const auto key = [](const keylime::Alert& a) {
      return std::tie(a.time, a.agent_id, a.log_index);
    };
    EXPECT_LE(key(alerts[i - 1]), key(alerts[i]))
        << "alerts() must merge shards into a deterministic order";
  }
}

// -------------------------------------------------- copy-on-write swaps

TEST(PoolPolicyTest, CowSwapAppliesAtTheNextBatchBoundary) {
  PoolFleetOptions options;
  options.agents = 8;
  options.shards = 4;
  options.seed = 23;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  EXPECT_EQ(fleet.pool().policy_revision(), 1u);

  fleet.run_workload_round(0);
  fleet.pool().run_round();
  ASSERT_TRUE(fleet.pool().alerts().empty());

  // A new tool rolls out fleet-wide. Under the old revision it would
  // alert; the updated policy must win because the swap is applied
  // before the round's batch starts.
  for (std::size_t i = 0; i < options.agents; ++i) {
    ASSERT_TRUE(fleet.machine(i)
                    .fs()
                    .create_file("/usr/bin/rolled-out", to_bytes("elf:new"), true)
                    .ok());
    ASSERT_TRUE(fleet.machine(i).exec("/usr/bin/rolled-out").ok());
  }
  keylime::RuntimePolicy updated = fleet.fleet_policy();
  updated.allow("/usr/bin/rolled-out", crypto::sha256(std::string("elf:new")));
  ASSERT_TRUE(
      fleet.pool().set_policy_bulk(fleet.pool().agent_ids(), updated).ok());
  EXPECT_EQ(fleet.pool().policy_revision(), 2u);

  fleet.pool().run_round();
  EXPECT_TRUE(fleet.pool().alerts().empty())
      << "the round after the push must appraise under the new revision";
  EXPECT_GE(fleet.pool().stats().policy_swaps, options.agents)
      << "every agent's pending swap must have been drained";
}

TEST(PoolPolicyTest, SingleAgentPolicyRoutesToOwningShard) {
  PoolFleetOptions options;
  options.agents = 6;
  options.shards = 3;
  options.seed = 29;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  // Agent 2 alone gets an extra allowance; only it may run the tool.
  fleet.exec_unknown(2);  // plants /usr/local/bin/dropper-0002
  keylime::RuntimePolicy special = fleet.fleet_policy();
  special.allow("/usr/local/bin/dropper-0002",
                crypto::sha256(std::string("elf:unknown:/usr/local/bin/dropper-0002")));
  ASSERT_TRUE(fleet.pool().set_policy(fleet.agent_ids()[2], special).ok());

  fleet.pool().run_round();
  EXPECT_EQ(*fleet.pool().state(fleet.agent_ids()[2]),
            keylime::AgentState::kAttesting);
  EXPECT_TRUE(fleet.pool().alerts().empty());
}

// ---------------------------------------------------------- determinism

struct RunArtifacts {
  std::string prometheus;                       // full telemetry snapshot
  std::vector<std::string> audit_heads;         // per shard, hex-free compare
  std::map<std::string, keylime::AgentState> verdicts;
  std::vector<std::tuple<std::string, keylime::AlertType, std::string>> alerts;
};

RunArtifacts run_scenario(std::size_t shards, std::uint64_t seed,
                          bool with_faults) {
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 24;
  options.shards = shards;
  options.seed = seed;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  EXPECT_TRUE(fleet.init_status().ok());
  EXPECT_TRUE(fleet.push_fleet_policy().ok());

  if (with_faults) {
    // Drops and tampering only: timeouts and latency would advance the
    // shard clocks by different amounts per partition, which is allowed
    // to change alert *timestamps* but we keep this scenario time-free
    // so even the telemetry comparison stays simple.
    netsim::FaultProfile chaos;
    chaos.drop_rate = 0.25;
    chaos.tamper_rate = 0.10;
    fleet.pool().set_fleet_faults(chaos);
  }

  fleet.run_workload_round(0);
  fleet.pool().run_round();
  fleet.exec_unknown(5);
  fleet.exec_unknown(13);
  fleet.run_workload_round(1);
  fleet.pool().run_round();

  RunArtifacts artifacts;
  artifacts.prometheus = telemetry::to_prometheus(metrics.snapshot());
  for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
    artifacts.audit_heads.push_back(
        crypto::digest_hex(fleet.pool().verifier(s).audit().head()));
  }
  for (const std::string& id : fleet.agent_ids()) {
    artifacts.verdicts[id] = *fleet.pool().state(id);
  }
  for (const keylime::Alert& a : fleet.pool().alerts()) {
    artifacts.alerts.emplace_back(a.agent_id, a.type, a.path);
  }
  std::sort(artifacts.alerts.begin(), artifacts.alerts.end());
  return artifacts;
}

TEST(PoolDeterminismTest, SameSeedAndShardCountIsByteIdentical) {
  const RunArtifacts a = run_scenario(4, 31, /*with_faults=*/true);
  const RunArtifacts b = run_scenario(4, 31, /*with_faults=*/true);

  EXPECT_EQ(a.prometheus, b.prometheus)
      << "telemetry snapshot must be byte-identical for a fixed "
         "(seed, shard count)";
  EXPECT_EQ(a.audit_heads, b.audit_heads)
      << "every shard's audit chain must replay identically";
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.alerts, b.alerts);
}

TEST(PoolDeterminismTest, VerdictsInvariantToShardCount) {
  const RunArtifacts one = run_scenario(1, 37, /*with_faults=*/true);
  const RunArtifacts two = run_scenario(2, 37, /*with_faults=*/true);
  const RunArtifacts eight = run_scenario(8, 37, /*with_faults=*/true);

  // Re-partitioning the fleet must not change what any agent experiences:
  // shard networks share a seed and per-link fault streams key on the
  // agent address alone.
  EXPECT_EQ(one.verdicts, two.verdicts);
  EXPECT_EQ(one.verdicts, eight.verdicts);
  EXPECT_EQ(one.alerts, two.alerts);
  EXPECT_EQ(one.alerts, eight.alerts);
}

// ------------------------------------------------------ live resharding

using experiments::ChurnCampaignOptions;
using experiments::per_agent_chain_digests;
using experiments::run_churn_campaign;

/// Drive a churn-free advance_to campaign with the given resize
/// schedule and return the fleet's per-agent chain digests.
std::map<std::string, std::string> resharding_run(
    std::size_t shards, std::uint64_t seed,
    std::vector<std::pair<std::size_t, std::size_t>> resize_at,
    PoolFleet** keep = nullptr) {
  static std::vector<std::unique_ptr<PoolFleet>> kept;
  PoolFleetOptions base;
  base.agents = 24;
  base.shards = shards;
  base.seed = seed;
  auto fleet = std::make_unique<PoolFleet>(base);
  EXPECT_TRUE(fleet->init_status().ok());
  EXPECT_TRUE(fleet->push_fleet_policy().ok());
  ChurnCampaignOptions campaign;
  campaign.rounds = 8;
  campaign.max_joins_per_round = 0;
  campaign.max_leaves_per_round = 0;
  campaign.max_reboots_per_round = 0;
  campaign.resize_at = std::move(resize_at);
  const auto report = run_churn_campaign(*fleet, campaign);
  EXPECT_TRUE(report.status.ok()) << report.status.error().message;
  auto digests = per_agent_chain_digests(fleet->pool());
  if (keep) {
    *keep = fleet.get();
    kept.push_back(std::move(fleet));
  }
  return digests;
}

TEST(PoolReshardTest, MidCampaignResizeMatchesFinalShardCountRun) {
  // A grows 3 -> 6 shards mid-campaign; B runs at 6 shards throughout.
  // Every agent's audit sub-chain — verdicts, alert counts, quote
  // digests, linkage — must come out byte-identical: only the partition
  // changed, never what any agent experienced.
  PoolFleet* resized = nullptr;
  const auto a = resharding_run(3, 61, {{4, 6}}, &resized);
  const auto b = resharding_run(6, 61, {});
  ASSERT_EQ(a.size(), 24u);
  EXPECT_EQ(a, b);

  // Only ring-moved agents pay a handoff. The moved set is exactly the
  // ids whose ring assignment differs between a 3-shard and a 6-shard
  // ring (the ring is seed-independent).
  keylime::VerifierPoolConfig three, six;
  three.shards = 3;
  six.shards = 6;
  keylime::VerifierPool ring3(1, three), ring6(1, six);
  std::uint64_t moved = 0;
  ASSERT_NE(resized, nullptr);
  for (const std::string& id : resized->agent_ids()) {
    const bool moves = ring3.shard_for(id) != ring6.shard_for(id);
    moved += moves ? 1 : 0;
    EXPECT_EQ(resized->pool().handoffs(id), moves ? 1u : 0u) << id;
  }
  EXPECT_GT(moved, 0u) << "a 3->6 resize that moves nobody pins nothing";
  const auto& stats = resized->pool().migration_stats();
  EXPECT_EQ(stats.resizes, 1u);
  EXPECT_EQ(stats.ok, moved) << "fault-free handoffs must all deliver";
  EXPECT_EQ(stats.fallback, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(resized->pool().active_shard_count(), 6u);
}

TEST(PoolReshardTest, ShrinkRetiresShardsWithoutDisturbingChains) {
  PoolFleet* shrunk = nullptr;
  const auto a = resharding_run(4, 83, {{3, 2}}, &shrunk);
  const auto b = resharding_run(2, 83, {});
  EXPECT_EQ(a, b);

  ASSERT_NE(shrunk, nullptr);
  EXPECT_EQ(shrunk->pool().active_shard_count(), 2u);
  // Retired shards stay allocated (their clocks/networks may be
  // referenced externally) but own nothing.
  EXPECT_EQ(shrunk->pool().shard_count(), 4u);
  EXPECT_TRUE(shrunk->pool().verifier(2).agent_ids().empty());
  EXPECT_TRUE(shrunk->pool().verifier(3).agent_ids().empty());
  // And the fleet keeps attesting on the surviving shards.
  EXPECT_EQ(shrunk->pool().run_round(), shrunk->agent_ids().size());
}

TEST(PoolReshardTest, ChurnCampaignVerdictsInvariantAcrossResizePoints) {
  // Full churn — joins, leaves, reboots — with two resize points versus
  // the identical campaign with none: zero drift, and the cross-shard
  // chain invariant holds over every shard ever allocated.
  auto run = [](std::vector<std::pair<std::size_t, std::size_t>> resizes,
                std::map<std::string, std::string>* digests) {
    PoolFleetOptions options;
    options.agents = 24;
    options.shards = 3;
    options.seed = 19;
    PoolFleet fleet(options);
    ASSERT_TRUE(fleet.init_status().ok());
    ASSERT_TRUE(fleet.push_fleet_policy().ok());
    ChurnCampaignOptions campaign;
    campaign.rounds = 10;
    campaign.resize_at = std::move(resizes);
    const auto report = run_churn_campaign(fleet, campaign);
    ASSERT_TRUE(report.status.ok()) << report.status.error().message;
    *digests = per_agent_chain_digests(fleet.pool());

    std::vector<const keylime::AuditLog*> logs;
    for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
      logs.push_back(&fleet.pool().verifier(s).audit());
    }
    const auto violations = testkit::check_cross_shard_audit_chains(logs);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " broken sub-chains, first: "
        << (violations.empty() ? "" : violations.front().detail);
  };

  std::map<std::string, std::string> with_resizes, baseline;
  run({{3, 7}, {7, 2}}, &with_resizes);
  run({}, &baseline);
  EXPECT_FALSE(with_resizes.empty());
  EXPECT_EQ(with_resizes, baseline);
}

TEST(PoolReshardTest, JoinersShareTheFoundingPolicyRevision) {
  // A joiner runs the fleet image the founders run, so the pool hands it
  // the head revision's (policy, index) pair: a churn campaign with
  // resizes adds no full index build and no revision.
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 24;
  options.shards = 3;
  options.seed = 19;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  const std::set<std::string> founders(fleet.agent_ids().begin(),
                                       fleet.agent_ids().end());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  const std::uint64_t founding = fleet.pool().policy_revision();
  const auto builds = [&](const char* mode) {
    return metrics.counter_value("cia_policy_index_builds_total",
                                 {{"mode", mode}});
  };
  EXPECT_EQ(builds("full"), 1u);

  ChurnCampaignOptions campaign;
  campaign.rounds = 10;
  campaign.resize_at = {{4, 6}, {7, 2}};
  const auto report = run_churn_campaign(fleet, campaign);
  ASSERT_TRUE(report.status.ok()) << report.status.error().message;
  ASSERT_GT(report.joins, 0u);
  EXPECT_EQ(builds("full"), 1u) << "a join rebuilt the fleet index";
  EXPECT_EQ(builds("reused"), report.joins);
  EXPECT_EQ(fleet.pool().policy_revision(), founding);

  std::size_t joiners = 0;
  for (const std::string& id : fleet.agent_ids()) {
    if (founders.count(id) == 0) ++joiners;
    EXPECT_EQ(fleet.pool().policy_revision_of(id), founding) << id;
  }
  EXPECT_GT(joiners, 0u) << "every joiner left again; nothing is pinned";
}

TEST(PoolReshardTest, HandoffFaultsNeverWedgeOrForkAChain) {
  PoolFleetOptions options;
  options.agents = 32;
  options.shards = 3;
  options.seed = 29;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  // Chaos on the handoff links only: drops, duplicates, timeouts, and
  // tampered acks. Every migration must either retry to completion or
  // fall back to a clean single-agent re-enrollment — never a wedged
  // shard, never a forked chain.
  netsim::FaultProfile chaos;
  chaos.drop_rate = 0.35;
  chaos.duplicate_rate = 0.25;
  chaos.timeout_rate = 0.15;
  chaos.tamper_rate = 0.25;
  fleet.pool().set_handoff_faults(chaos);

  for (std::uint64_t round = 0; round < 3; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
  }
  ASSERT_TRUE(fleet.pool().resize(8).ok());
  for (std::uint64_t round = 3; round < 6; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
  }
  ASSERT_TRUE(fleet.pool().resize(2).ok());

  const auto& stats = fleet.pool().migration_stats();
  EXPECT_EQ(stats.resizes, 2u);
  EXPECT_GT(stats.ok + stats.fallback + stats.failed, 0u);
  EXPECT_GT(stats.retries, 0u) << "chaos this heavy must cost retries";

  // No agent is lost or wedged: every one still resolves to a live
  // shard, still polls, and the union of every shard's records still
  // forms whole per-agent sub-chains.
  EXPECT_EQ(fleet.pool().run_round(), fleet.agent_ids().size());
  for (const std::string& id : fleet.agent_ids()) {
    ASSERT_TRUE(fleet.pool().state(id).has_value()) << id;
  }
  std::vector<const keylime::AuditLog*> logs;
  for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
    logs.push_back(&fleet.pool().verifier(s).audit());
  }
  const auto violations = testkit::check_cross_shard_audit_chains(logs);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " broken sub-chains, first: "
      << (violations.empty() ? "" : violations.front().detail);
}

// A live migration hands the agent's installed policy pair to its new
// shard: the revision an agent is appraised under never depends on
// whether a resize moved it.
TEST(PoolReshardTest, HandoffKeepsEachAgentsPolicyRevision) {
  PoolFleetOptions options;
  options.agents = 16;
  options.shards = 2;
  options.seed = 41;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  fleet.run_workload_round(0);
  fleet.pool().run_round();
  const std::uint64_t pushed = fleet.pool().policy_revision();

  ASSERT_TRUE(fleet.pool().resize(3).ok());
  EXPECT_GT(fleet.pool().migration_stats().ok, 0u);
  EXPECT_EQ(fleet.pool().migration_stats().fallback, 0u);
  for (const std::string& id : fleet.agent_ids()) {
    EXPECT_EQ(fleet.pool().policy_revision_of(id), pushed) << id;
  }
  EXPECT_TRUE(testkit::check_single_enrolment(fleet.pool()).empty());

  // Every agent runs one unknown binary: each alert names the pushed
  // revision, moved agents included.
  for (std::size_t i = 0; i < options.agents; ++i) fleet.exec_unknown(i);
  fleet.pool().run_round();
  const std::vector<keylime::Alert> alerts = fleet.pool().alerts();
  ASSERT_EQ(alerts.size(), options.agents);
  for (const keylime::Alert& a : alerts) {
    EXPECT_EQ(a.type, keylime::AlertType::kNotInPolicy) << a.agent_id;
    EXPECT_EQ(a.policy_revision, pushed) << a.agent_id;
  }
}

// When every handoff is lost the fallback re-enrols the moved agents on
// their new shards — still under the fleet policy, so a clean image
// stays clean.
TEST(PoolReshardTest, FallbackReenrolmentKeepsThePolicy) {
  PoolFleetOptions options;
  options.agents = 16;
  options.shards = 2;
  options.seed = 43;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  fleet.run_workload_round(0);
  fleet.pool().run_round();
  const std::uint64_t pushed = fleet.pool().policy_revision();

  netsim::FaultProfile lost;
  lost.drop_rate = 1.0;
  fleet.pool().set_handoff_faults(lost);
  ASSERT_TRUE(fleet.pool().resize(3).ok());
  const auto& stats = fleet.pool().migration_stats();
  EXPECT_GT(stats.fallback, 0u);
  EXPECT_EQ(stats.ok, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(testkit::check_single_enrolment(fleet.pool()).empty());

  for (std::uint64_t round = 1; round <= 3; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
  }
  const std::vector<keylime::Alert> alerts = fleet.pool().alerts();
  EXPECT_TRUE(alerts.empty())
      << alerts.size() << " alerts on a clean image, first: "
      << (alerts.empty() ? "" : alerts.front().agent_id + " " +
                                    keylime::alert_type_name(
                                        alerts.front().type) +
                                    " " + alerts.front().path);
  for (const std::string& id : fleet.agent_ids()) {
    EXPECT_EQ(fleet.pool().policy_revision_of(id), pushed) << id;
  }
}

TEST(PoolReshardTest, SingleEnrolmentCheckerFlagsDoubleAndMissingAgents) {
  PoolFleetOptions options;
  options.agents = 6;
  options.shards = 2;
  options.seed = 47;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  keylime::VerifierPool& pool = fleet.pool();
  EXPECT_TRUE(testkit::check_single_enrolment(pool).empty());

  // A slice committed on both sides — the state a migration that never
  // released its source would leave.
  const std::string twice = fleet.agent_ids()[0];
  const std::size_t owner = pool.shard_for(twice);
  auto slice = pool.verifier(owner).export_agent(twice);
  ASSERT_TRUE(slice.ok());
  ASSERT_TRUE(pool.verifier(1 - owner).import_agent(slice.value()).ok());
  // And an agent the pool still routes but no shard holds.
  const std::string missing = fleet.agent_ids()[1];
  ASSERT_TRUE(
      pool.verifier(pool.shard_for(missing)).remove_agent(missing).ok());

  const auto violations = testkit::check_single_enrolment(pool);
  ASSERT_EQ(violations.size(), 2u);
  for (const auto& v : violations) {
    EXPECT_EQ(v.invariant, "single_enrolment");
  }
  EXPECT_NE(violations[0].detail.find(twice), std::string::npos);
  EXPECT_NE(violations[1].detail.find(missing), std::string::npos);
}

TEST(PoolReshardTest, CrossShardCheckerFlagsAForkedSubChain) {
  const auto key = [] {
    return crypto::derive_keypair(to_bytes("fork-seed"), "test");
  };
  keylime::AuditLog a(key()), b(key());
  // Two shards both extend agent "x" from the same point — the forked
  // history a botched handoff would create if fallback did not seed the
  // destination tail.
  a.append(0, "x", keylime::AuditVerdict::kPassed, 0, 1,
           crypto::sha256(std::string("q0")));
  b.append(60, "x", keylime::AuditVerdict::kPassed, 0, 1,
           crypto::sha256(std::string("q1")));
  const auto violations = testkit::check_cross_shard_audit_chains({&a, &b});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "cross_shard_chain");
  EXPECT_NE(violations[0].detail.find("forked"), std::string::npos)
      << violations[0].detail;

  // A legitimate continuation — the tail handed to the second log the
  // way a migration does — is clean.
  keylime::AuditLog c(key()), d(key());
  c.append(0, "y", keylime::AuditVerdict::kPassed, 0, 1,
           crypto::sha256(std::string("q0")));
  d.set_agent_tail("y", c.agent_tail("y"));
  d.append(60, "y", keylime::AuditVerdict::kFailed, 1, 1,
           crypto::sha256(std::string("q1")));
  EXPECT_TRUE(testkit::check_cross_shard_audit_chains({&c, &d}).empty());
}

// --------------------------------------------------------- policy index

TEST(PolicyIndexTest, AgreesWithLinearScanOnFixedCases) {
  keylime::RuntimePolicy policy;
  policy.allow("/usr/bin/ls", std::string(64, 'a'));
  policy.allow("/var/cache/app/blob", std::string(64, 'b'));
  policy.exclude("/var/cache/*");   // compiled: directory prefix
  policy.exclude("*.log");          // general: suffix glob
  policy.exclude("*/scratch/*");    // general: infix glob
  const auto index = keylime::PolicyIndex::build(policy, 1);

  const std::vector<std::pair<std::string, std::string>> probes = {
      {"/usr/bin/ls", std::string(64, 'a')},
      {"/usr/bin/ls", std::string(64, 'x')},
      {"/var/cache/app/blob", std::string(64, 'b')},   // excluded wins
      {"/var/cache/other/file", std::string(64, 'c')},
      {"/opt/app/daemon.log", std::string(64, 'd')},
      {"/opt/scratch/tool", std::string(64, 'e')},     // no infix match
      {"/opt/x/scratch/tool", std::string(64, 'e')},
      {"/usr/bin/unknown", std::string(64, 'f')},
  };
  for (const auto& [path, hash] : probes) {
    EXPECT_EQ(index->check(path, hash), policy.check(path, hash)) << path;
  }
}

TEST(PolicyIndexTest, DirPrefixGlobsCompileAndMatchOnBoundaries) {
  keylime::RuntimePolicy policy;
  policy.exclude("/var/cache/*");
  const auto index = keylime::PolicyIndex::build(policy, 1);
  EXPECT_TRUE(index->excluded_by_scan("/var/cache/x"));
  EXPECT_TRUE(index->excluded_by_scan("/var/cache/deep/nested/x"));
  EXPECT_FALSE(index->excluded_by_scan("/var/cachemate/x"))
      << "a directory prefix must only match at a '/' boundary";
  EXPECT_FALSE(index->excluded_by_scan("/var/cache"))
      << "glob '/var/cache/*' does not match the bare directory itself";
}

TEST(PolicyIndexTest, ReportsHitsAndMisses) {
  keylime::RuntimePolicy policy;
  policy.allow("/usr/bin/ls", std::string(64, 'a'));
  const auto index = keylime::PolicyIndex::build(policy, 3);
  EXPECT_EQ(index->revision(), 3u);

  bool known = false;
  index->check("/usr/bin/ls", std::string(64, 'a'), &known);
  EXPECT_TRUE(known);
  index->check("/usr/bin/other", std::string(64, 'a'), &known);
  EXPECT_FALSE(known);
}

}  // namespace
}  // namespace cia

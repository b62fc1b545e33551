#include "testkit/generators.hpp"

#include <algorithm>

#include "common/hex.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "tpm/tpm.hpp"

namespace cia::testkit {

namespace {

crypto::Digest gen_digest(Rng& rng) {
  crypto::Digest d;
  for (auto& b : d) b = static_cast<std::uint8_t>(rng.uniform(256));
  return d;
}

std::string gen_component(Rng& rng) {
  switch (rng.uniform(8)) {
    case 0: return rng.ident(1 + rng.uniform(12));
    case 1: return rng.ident(3) + " " + rng.ident(3);  // embedded space
    case 2: return rng.ident(2) + "." + rng.ident(2);
    case 3: return "..";
    case 4: return std::string(1 + rng.uniform(3), '.');
    case 5: {
      // Raw high bytes — a non-UTF8 filename, perfectly legal on ext4.
      std::string s = rng.ident(2);
      s.push_back(static_cast<char>(0x80 + rng.uniform(0x7f)));
      return s;
    }
    case 6: return rng.ident(40 + rng.uniform(80));  // long component
    default: return rng.ident(4);
  }
}

}  // namespace

std::string gen_path(Rng& rng) {
  switch (rng.uniform(10)) {
    case 0:  // ordinary host binary
      return "/usr/bin/" + gen_component(rng);
    case 1:  // P1: /tmp payloads hidden by the exclude glob
      return "/tmp/" + gen_component(rng);
    case 2:  // P3: tmpfs mounts the stock IMA policy skips
      return "/dev/shm/" + gen_component(rng);
    case 3: {
      // §III-B SNAP: what a host-side scan records...
      return "/snap/" + rng.ident(4) + "/" + std::to_string(rng.uniform(100)) +
             "/usr/bin/" + gen_component(rng);
    }
    case 4:
      // ...vs the namespace-truncated path IMA actually logs.
      return "/usr/bin/" + gen_component(rng);
    case 5:  // container rootfs-relative path (generalized SNAP case)
      return std::string("/") + rng.ident(3) + "/" + gen_component(rng);
    case 6:  // P5: interpreter script
      return "/home/" + rng.ident(4) + "/" + gen_component(rng) + ".py";
    case 7:  // P4: post-rename destination
      return "/moved/" + gen_component(rng);
    case 8: {
      // Deep nesting.
      std::string p;
      const std::size_t depth = 4 + rng.uniform(12);
      for (std::size_t i = 0; i < depth; ++i) {
        p += '/';
        p += rng.ident(2);
      }
      return p;
    }
    default: {
      // Hostile shapes: repeated separators, trailing slash, dot-dots.
      std::string p = "/";
      p += gen_component(rng);
      if (rng.chance(0.4)) p += "//" + gen_component(rng);
      if (rng.chance(0.3)) p += "/../" + gen_component(rng);
      if (rng.chance(0.2)) p += "/";
      return p;
    }
  }
}

ima::LogEntry gen_log_entry(Rng& rng) {
  ima::LogEntry e;
  e.pcr = rng.chance(0.9) ? tpm::kImaPcr
                          : static_cast<int>(rng.uniform(tpm::kNumPcrs));
  e.template_name = rng.chance(0.9) ? "ima-ng" : rng.ident(1 + rng.uniform(8));
  e.file_hash = gen_digest(rng);
  e.path = gen_path(rng);
  // Template hash the way Ima::measure computes it, so generated lists
  // are indistinguishable from organically measured ones.
  crypto::Sha256 ctx;
  ctx.update(crypto::digest_bytes(e.file_hash));
  ctx.update(e.path);
  e.template_hash = ctx.finish();
  return e;
}

std::vector<ima::LogEntry> gen_log(Rng& rng, std::size_t n) {
  std::vector<ima::LogEntry> log;
  log.reserve(n);
  for (std::size_t i = 0; i < n; ++i) log.push_back(gen_log_entry(rng));
  return log;
}

json::Value gen_json(Rng& rng, int max_depth) {
  if (max_depth <= 0 || rng.chance(0.35)) {
    // Leaf.
    switch (rng.uniform(6)) {
      case 0: return json::Value(nullptr);
      case 1: return json::Value(rng.chance(0.5));
      case 2: {
        // Boundary-heavy numbers (all finite — the parser rejects inf).
        static const double kPool[] = {0.0,    -0.0,   1.0,     -1.0,
                                       0.5,    1e-9,   1e15,    -1e15,
                                       1e300,  -1e300, 2147483647.0,
                                       -2147483648.0,  1e15 - 1};
        return json::Value(rng.chance(0.5)
                               ? kPool[rng.uniform(13)]
                               : static_cast<double>(rng.uniform_range(
                                     -1000000, 1000000)));
      }
      case 3: {
        // Escape-heavy string.
        std::string s;
        const std::size_t len = rng.uniform(24);
        for (std::size_t i = 0; i < len; ++i) {
          switch (rng.uniform(8)) {
            case 0: s.push_back('"'); break;
            case 1: s.push_back('\\'); break;
            case 2: s.push_back('\n'); break;
            case 3: s.push_back('\t'); break;
            case 4: s.push_back(static_cast<char>(rng.uniform(0x20))); break;
            case 5: s.push_back(static_cast<char>(0x80 + rng.uniform(0x7f))); break;
            default: s.push_back(static_cast<char>(0x20 + rng.uniform(0x5f)));
          }
        }
        return json::Value(std::move(s));
      }
      case 4: return json::Value(gen_path(rng));
      default: return json::Value(rng.ident(1 + rng.uniform(8)));
    }
  }
  if (rng.chance(0.5)) {
    json::Array arr;
    const std::size_t n = rng.uniform(5);
    for (std::size_t i = 0; i < n; ++i) {
      arr.push_back(gen_json(rng, max_depth - 1));
    }
    return json::Value(std::move(arr));
  }
  json::Object obj;
  const std::size_t n = rng.uniform(5);
  for (std::size_t i = 0; i < n; ++i) {
    obj[rng.ident(1 + rng.uniform(6))] = gen_json(rng, max_depth - 1);
  }
  return json::Value(std::move(obj));
}

keylime::RuntimePolicy gen_policy(Rng& rng, std::size_t max_paths) {
  keylime::RuntimePolicy policy;
  const std::size_t paths = 1 + rng.uniform(std::max<std::size_t>(1, max_paths));
  for (std::size_t i = 0; i < paths; ++i) {
    const std::string path = gen_path(rng);
    const std::size_t hashes = 1 + rng.uniform(4);
    for (std::size_t j = 0; j < hashes; ++j) {
      policy.allow(path, to_hex(rng.bytes(32)));
    }
  }
  const std::size_t globs = rng.uniform(4);
  for (std::size_t i = 0; i < globs; ++i) {
    switch (rng.uniform(4)) {
      case 0: policy.exclude("/tmp/*"); break;
      case 1: policy.exclude(std::string("/") + rng.ident(3) + "/*"); break;
      case 2: policy.exclude("*." + rng.ident(2)); break;
      default: policy.exclude("/?" + rng.ident(2) + "*/" + rng.ident(2)); break;
    }
  }
  return policy;
}

keylime::QuoteResponse gen_quote_response(Rng& rng, std::size_t entries) {
  keylime::QuoteResponse resp;
  resp.quote.device_id = "dev-" + rng.ident(4);
  resp.quote.nonce = rng.bytes(16);
  for (int pcr : {0, 4, 7, tpm::kImaPcr}) {
    resp.quote.pcr_indices.push_back(pcr);
    resp.quote.pcr_values.push_back(gen_digest(rng));
  }
  const auto ak = crypto::derive_keypair(rng.bytes(32), "testkit-ak");
  resp.quote.signature = crypto::sign(ak, resp.quote.attested_message());
  resp.entries = gen_log(rng, entries);
  resp.total_log_length = entries + rng.uniform(8);
  resp.boot_count = static_cast<std::uint32_t>(1 + rng.uniform(4));
  return resp;
}

Bytes gen_wire_frame(Rng& rng) {
  switch (rng.uniform(8)) {
    case 0: {
      keylime::RegisterRequest m;
      m.agent_id = rng.ident(1 + rng.uniform(12));
      m.ek_cert = rng.bytes(rng.uniform(128));
      m.ak_pub = rng.bytes(64);
      return m.encode();
    }
    case 1: {
      keylime::RegisterChallenge m;
      m.blob.ephemeral_pub = rng.bytes(64);
      m.blob.encrypted = rng.bytes(32);
      m.blob.mac = rng.bytes(32);
      m.blob.ak_name = rng.ident(8);
      return m.encode();
    }
    case 2: {
      keylime::ActivateRequest m;
      m.agent_id = rng.ident(8);
      m.proof = rng.bytes(32);
      return m.encode();
    }
    case 3: {
      keylime::GetAgentRequest m;
      m.agent_id = rng.ident(8);
      return m.encode();
    }
    case 4: {
      keylime::GetAgentResponse m;
      m.active = rng.chance(0.5);
      m.ak_pub = rng.bytes(64);
      return m.encode();
    }
    case 5: {
      keylime::QuoteRequest m;
      m.nonce = rng.bytes(16);
      m.log_offset = rng.uniform(1 << 20);
      return m.encode();
    }
    case 6: {
      keylime::BootLogResponse m;
      const std::size_t n = rng.uniform(6);
      for (std::size_t i = 0; i < n; ++i) {
        oskernel::BootEvent e;
        e.pcr = static_cast<int>(rng.uniform(8));
        e.description = rng.ident(1 + rng.uniform(16));
        e.digest = gen_digest(rng);
        m.events.push_back(std::move(e));
      }
      return m.encode();
    }
    default:
      return gen_quote_response(rng, rng.uniform(6)).encode();
  }
}

json::Value gen_scenario(Rng& rng) {
  static const char* kKinds[] = {"chaos", "churn", "storm", "fleet", "attacks"};
  static const char* kScripts[] = {"wan-loss",         "agent-crash-loop",
                                   "verifier-restart", "registrar-outage",
                                   "mirror-partition", "flaky-window"};
  const std::string kind = kKinds[rng.uniform(5)];

  json::Value doc;
  doc.set("version", 1);
  doc.set("name", rng.ident(3 + rng.uniform(10)));
  doc.set("kind", kind);
  if (rng.chance(0.8)) {
    doc.set("seed", static_cast<std::int64_t>(rng.uniform(1u << 20)));
  }

  // Fleet-backed kinds share the topology and fault sections. Optional
  // fields are emitted probabilistically so defaulting paths stay hot.
  const bool fleet_backed = kind == "storm" || kind == "churn" || kind == "fleet";
  const std::int64_t binaries = 2 + static_cast<std::int64_t>(rng.uniform(40));
  if (fleet_backed && rng.chance(0.8)) {
    json::Value fleet;
    fleet.set("agents", static_cast<std::int64_t>(1 + rng.uniform(200)));
    fleet.set("shards", static_cast<std::int64_t>(1 + rng.uniform(12)));
    if (rng.chance(0.5)) fleet.set("binaries_per_machine", binaries);
    if (rng.chance(0.5)) {
      fleet.set("execs_per_round", static_cast<std::int64_t>(1 + rng.uniform(8)));
    }
    // Storm forbids an explicit `true` (retry backoff breaks the
    // partition-invariance contract); the other kinds take either.
    if (kind == "storm") {
      if (rng.chance(0.5)) fleet.set("retrying_transport", false);
    } else if (rng.chance(0.5)) {
      fleet.set("retrying_transport", rng.chance(0.5));
    }
    doc.set("fleet", std::move(fleet));
  }
  if (fleet_backed && rng.chance(0.6)) {
    // Start from an explicit empty object: every field below is
    // optional, and a fieldless `faults` must still be `{}`, not null.
    json::Value faults{json::Object{}};
    if (rng.chance(0.7)) faults.set("drop_rate", rng.uniform01() * 0.3);
    // Storm allows drop faults only; elsewhere timeouts need a latency.
    if (kind != "storm" && rng.chance(0.4)) {
      faults.set("timeout_rate", 0.01 + rng.uniform01() * 0.2);
      faults.set("timeout_latency", static_cast<std::int64_t>(1 + rng.uniform(120)));
    }
    if (kind != "storm" && rng.chance(0.3)) {
      faults.set("duplicate_rate", rng.uniform01() * 0.2);
    }
    doc.set("faults", std::move(faults));
  }

  if (kind == "storm") {
    const std::int64_t storm_rounds = 1 + static_cast<std::int64_t>(rng.uniform(12));
    json::Value storm;
    if (rng.chance(0.7)) {
      storm.set("warmup_rounds", static_cast<std::int64_t>(rng.uniform(4)));
    }
    storm.set("storm_rounds", storm_rounds);
    if (rng.chance(0.6)) {
      storm.set("round_period", static_cast<std::int64_t>(10 + rng.uniform(600)));
    }
    // Stay under binaries_per_machine whether or not fleet emitted it:
    // the default (24) is >= the generated range's floor of 2.
    storm.set("bad_paths", static_cast<std::int64_t>(
                               1 + rng.uniform(static_cast<std::uint64_t>(
                                       std::min<std::int64_t>(binaries, 4)))));
    if (rng.chance(0.3)) {
      json::Value pipeline;
      pipeline.set("cooldown", static_cast<std::int64_t>(60 + rng.uniform(600)));
      pipeline.set("quiet_close",
                   static_cast<std::int64_t>(300 + rng.uniform(1800)));
      if (rng.chance(0.5)) {
        pipeline.set("staleness_after", static_cast<std::int64_t>(rng.uniform(6)));
      }
      storm.set("pipeline", std::move(pipeline));
    }
    doc.set("storm", std::move(storm));
    if (rng.chance(0.4)) {
      json::Value resizes{json::Array{}};
      json::Value ev;
      ev.set("round", static_cast<std::int64_t>(
                          rng.uniform(static_cast<std::uint64_t>(storm_rounds))));
      ev.set("shards", static_cast<std::int64_t>(1 + rng.uniform(12)));
      resizes.push_back(std::move(ev));
      doc.set("resize_at", std::move(resizes));
    }
    // Staged rollout: storms take any bake window (a rollback can trip
    // at any round boundary).
    if (rng.chance(0.3)) {
      json::Value rollout{json::Object{}};
      if (rng.chance(0.7)) {
        rollout.set("canary_fraction", 0.05 + rng.uniform01() * 0.9);
      }
      if (rng.chance(0.7)) {
        rollout.set("bake_rounds", static_cast<std::int64_t>(1 + rng.uniform(8)));
      }
      if (rng.chance(0.5)) {
        rollout.set("alert_budget", static_cast<std::int64_t>(rng.uniform(5)));
      }
      if (rng.chance(0.5)) {
        rollout.set("seed", static_cast<std::int64_t>(rng.uniform(1000)));
      }
      doc.set("policy_rollout", std::move(rollout));
    }
  } else if (kind == "churn") {
    const std::int64_t rounds = 1 + static_cast<std::int64_t>(rng.uniform(16));
    json::Value churn;
    churn.set("rounds", rounds);
    if (rng.chance(0.5)) {
      churn.set("round_period", static_cast<std::int64_t>(30 + rng.uniform(600)));
    }
    if (rng.chance(0.5)) {
      churn.set("max_joins_per_round", static_cast<std::int64_t>(rng.uniform(4)));
    }
    if (rng.chance(0.5)) {
      churn.set("max_leaves_per_round", static_cast<std::int64_t>(rng.uniform(4)));
    }
    if (rng.chance(0.5)) {
      churn.set("max_reboots_per_round", static_cast<std::int64_t>(rng.uniform(4)));
    }
    doc.set("churn", std::move(churn));
    if (rng.chance(0.5)) {
      json::Value resizes{json::Array{}};
      const std::size_t n = 1 + rng.uniform(2);
      for (std::size_t i = 0; i < n; ++i) {
        json::Value ev;
        ev.set("round", static_cast<std::int64_t>(
                            rng.uniform(static_cast<std::uint64_t>(rounds))));
        ev.set("shards", static_cast<std::int64_t>(1 + rng.uniform(12)));
        resizes.push_back(std::move(ev));
      }
      doc.set("resize_at", std::move(resizes));
    }
  } else if (kind == "chaos") {
    json::Value chaos;
    chaos.set("script", kScripts[rng.uniform(6)]);
    if (rng.chance(0.5)) {
      chaos.set("nodes", static_cast<std::int64_t>(1 + rng.uniform(16)));
    }
    if (rng.chance(0.5)) {
      chaos.set("days", static_cast<std::int64_t>(2 + rng.uniform(30)));
    }
    if (rng.chance(0.3)) chaos.set("retrying_transport", rng.chance(0.5));
    if (rng.chance(0.3)) {
      chaos.set("base_packages", static_cast<std::int64_t>(1 + rng.uniform(500)));
    }
    if (rng.chance(0.3)) {
      chaos.set("provision_extra", static_cast<std::int64_t>(rng.uniform(100)));
    }
    doc.set("chaos", std::move(chaos));
  } else if (kind == "fleet") {
    const std::int64_t rounds = 1 + static_cast<std::int64_t>(rng.uniform(20));
    json::Value fleet_run;
    fleet_run.set("rounds", rounds);
    doc.set("fleet_run", std::move(fleet_run));
    // The promote cross-check requires bake_rounds < rounds, so the
    // window is always emitted explicitly here (the default of 3 would
    // invalidate short runs).
    if (rounds >= 2 && rng.chance(0.3)) {
      json::Value rollout{json::Object{}};
      rollout.set("bake_rounds",
                  static_cast<std::int64_t>(
                      1 + rng.uniform(static_cast<std::uint64_t>(rounds - 1))));
      if (rng.chance(0.7)) {
        rollout.set("canary_fraction", 0.05 + rng.uniform01() * 0.9);
      }
      if (rng.chance(0.5)) {
        rollout.set("alert_budget", static_cast<std::int64_t>(rng.uniform(5)));
      }
      if (rng.chance(0.5)) {
        rollout.set("seed", static_cast<std::int64_t>(rng.uniform(1000)));
      }
      doc.set("policy_rollout", std::move(rollout));
    }
  } else {  // attacks
    json::Value attacks;
    attacks.set("archive_packages",
                static_cast<std::int64_t>(50 + rng.uniform(2000)));
    doc.set("attacks", std::move(attacks));
  }
  return doc;
}

}  // namespace cia::testkit

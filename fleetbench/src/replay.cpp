#include "replay.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/strutil.hpp"
#include "crypto/sha256.hpp"
#include "keylime/messages.hpp"

namespace fleetbench {

using namespace cia;
using keylime::AlertType;
using keylime::PolicyMatch;

namespace {

bool passes(PolicyMatch m) {
  return m == PolicyMatch::kAllowed || m == PolicyMatch::kExcluded;
}

AlertType alert_for(PolicyMatch m) {
  return m == PolicyMatch::kHashMismatch ? AlertType::kHashMismatch
                                         : AlertType::kNotInPolicy;
}

}  // namespace

double trimmed_mean(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  samples.resize(samples.size() - samples.size() / 100);
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double trimmed_rate(std::vector<std::pair<double, double>> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end(), [](const auto& a, const auto& b) {
    return a.first * b.second < b.first * a.second;  // by time per item
  });
  samples.resize(samples.size() - samples.size() / 100);
  double time = 0, items = 0;
  for (const auto& [t, n] : samples) {
    time += t;
    items += n;
  }
  return items > 0 ? time / items : 0;
}

Replayer::Replayer(experiments::PoolFleet& fleet, SpanLog* spans)
    : fleet_(fleet),
      spans_(spans),
      audit_(crypto::derive_keypair(to_bytes("fleetbench-replay"), "audit")) {}

void Replayer::replay_pending(std::vector<AgentCapture>& captures,
                              const keylime::PolicyIndex& index) {
  for (AgentCapture& capture : captures) {
    AgentState& st = agents_[capture.slot];
    st.complete = !capture.truncated;
    for (; st.next < capture.polls.size(); ++st.next) {
      replay_poll(capture.slot, st, capture.polls[st.next], index);
    }
  }
}

void Replayer::replay_poll(std::uint32_t slot, AgentState& st,
                           const CapturedPoll& cp,
                           const keylime::PolicyIndex& index) {
  const std::uint64_t poll_span = spans_->reserve_id(kReplayTrack);
  const std::int64_t poll_start = now_ns();
  auto stage = [&](const char* name, std::int64_t t0, std::int64_t t1) {
    spans_->add(kReplayTrack, name, t0, t1, poll_span, cp.poll);
  };
  PollVerdict pv;
  pv.poll = cp.poll;
  ++samples_.polls;
  auto finish = [&](Verdict v) {
    pv.verdict = v;
    if (v == Verdict::kRefused) ++refused_;
    st.verdicts.push_back(pv);
    spans_->add_with_id(poll_span, kReplayTrack, "replay.poll", poll_start,
                        now_ns(), 0, cp.poll);
  };

  std::int64_t t0 = now_ns();
  auto req = keylime::QuoteRequest::decode(cp.request);
  auto view = keylime::QuoteResponseView::decode(cp.response);
  std::int64_t t1 = now_ns();
  samples_.decode_ns.push_back(static_cast<double>(t1 - t0));
  stage("messages.decode", t0, t1);
  if (!req.ok() || !view.ok()) return finish(Verdict::kRefused);
  const keylime::QuoteResponseView& qr = view.value();
  pv.log_offset = req.value().log_offset;
  pv.shipped = qr.entries.size();

  // Re-encode both messages from their decoded form; the wire format is
  // deterministic, so the bytes must come back identical.
  const keylime::QuoteResponse owned = qr.materialize();
  t0 = now_ns();
  const Bytes req_bytes = req.value().encode();
  t1 = now_ns();
  samples_.encode_request_ns.push_back(static_cast<double>(t1 - t0));
  stage("messages.encode_request", t0, t1);
  t0 = now_ns();
  const Bytes resp_bytes = owned.encode();
  t1 = now_ns();
  samples_.encode_response_ns.push_back(static_cast<double>(t1 - t0));
  stage("messages.encode_response", t0, t1);
  if (req_bytes != cp.request || resp_bytes != cp.response) {
    return finish(Verdict::kRefused);
  }

  oskernel::Machine& machine = fleet_.machine(slot);
  const Bytes nonce =
      keylime::bound_quote_nonce(req.value().nonce, qr.boot_count);
  t0 = now_ns();
  const tpm::Quote resigned =
      machine.tpm().quote(nonce, keylime::quoted_pcrs());
  t1 = now_ns();
  samples_.quote_sign_ns.push_back(static_cast<double>(t1 - t0));
  stage("tpm.quote_sign", t0, t1);
  if (resigned.pcr_indices != keylime::quoted_pcrs()) {
    return finish(Verdict::kRefused);
  }

  t0 = now_ns();
  const bool genuine = qr.quote.verify(machine.tpm().ak_public()) &&
                       qr.quote.nonce == nonce &&
                       qr.quote.pcr_indices == keylime::quoted_pcrs();
  t1 = now_ns();
  samples_.quote_verify_ns.push_back(static_cast<double>(t1 - t0));
  stage("tpm.quote_verify", t0, t1);
  if (!genuine) return finish(Verdict::kRefused);

  const std::string& agent_id = fleet_.agent_ids()[slot];
  const crypto::Digest quote_digest =
      crypto::sha256(qr.quote.attested_message());
  auto append_audit = [&](keylime::AuditVerdict verdict, std::size_t alerts,
                          std::size_t evaluated) {
    const std::int64_t a0 = now_ns();
    (void)audit_.append(0, agent_id, verdict, alerts, evaluated, quote_digest);
    const std::int64_t a1 = now_ns();
    samples_.audit_append_ns.push_back(static_cast<double>(a1 - a0));
    stage("audit.append", a0, a1);
  };

  if (st.boot_count == 0) {
    st.boot_count = qr.boot_count;
  } else if (qr.boot_count != st.boot_count) {
    st.boot_count = qr.boot_count;
    st.pcr = crypto::zero_digest();
    st.pending.clear();
    append_audit(keylime::AuditVerdict::kRebootSeen, 0, 0);
    return finish(Verdict::kReboot);
  }

  // Template hashes in sha256_batch blocks, then the sequential fold.
  constexpr std::size_t kBlock = 128;
  crypto::HashInput inputs[kBlock];
  crypto::Digest computed[kBlock];
  crypto::Digest folded = st.pcr;
  std::int64_t hash_ns = 0, fold_ns = 0;
  for (std::size_t base = 0; base < qr.entries.size(); base += kBlock) {
    const std::size_t count = std::min(kBlock, qr.entries.size() - base);
    for (std::size_t i = 0; i < count; ++i) {
      const keylime::LogEntryView& e = qr.entries[base + i];
      inputs[i] = {e.file_hash.data(), e.file_hash.size(),
                   reinterpret_cast<const std::uint8_t*>(e.path.data()),
                   e.path.size()};
    }
    t0 = now_ns();
    crypto::sha256_batch(inputs, count, computed);
    t1 = now_ns();
    hash_ns += t1 - t0;
    for (std::size_t i = 0; i < count; ++i) {
      if (computed[i] != qr.entries[base + i].template_hash) {
        return finish(Verdict::kRefused);
      }
    }
    t0 = now_ns();
    for (std::size_t i = 0; i < count; ++i) {
      folded = crypto::pcr_fold(folded, computed[i]);
    }
    t1 = now_ns();
    fold_ns += t1 - t0;
  }
  samples_.entries += qr.entries.size();
  if (!qr.entries.empty()) {
    const auto n = static_cast<double>(qr.entries.size());
    samples_.template_ns.emplace_back(static_cast<double>(hash_ns), n);
    samples_.fold_ns.emplace_back(static_cast<double>(fold_ns), n);
    const std::int64_t now = now_ns();
    stage("crypto.template_hash", now - hash_ns - fold_ns, now - fold_ns);
    stage("crypto.pcr_fold", now - fold_ns, now);
  }
  if (folded != qr.quote.pcr_values[3]) return finish(Verdict::kRefused);
  st.pcr = folded;
  st.accepted_end = pv.log_offset + pv.shipped;

  // Stock Keylime appraisal: the live verifier only polls a failed agent
  // again once an operator resolved it, so a captured poll clears the
  // flag. Backlog first, then this poll's entries; halt at the first
  // violation and carry the rest as backlog.
  st.failed = false;
  std::size_t alerts = 0, evaluated = 0, checks = 0;
  std::int64_t check_ns = 0;
  auto appraise = [&](std::string_view path, const crypto::Digest& hash,
                      std::uint64_t log_index) {
    ++evaluated;
    if (path == "boot_aggregate") return true;
    const std::int64_t c0 = now_ns();
    const PolicyMatch m = index.check(path, hash);
    check_ns += now_ns() - c0;
    ++checks;
    if (passes(m)) return true;
    st.alerts.push_back({alert_for(m), std::string(path), log_index});
    ++alerts;
    st.failed = true;
    return false;
  };
  const std::int64_t appraise_start = now_ns();
  std::size_t backlog = 0;
  for (; backlog < st.pending.size() && !st.failed; ++backlog) {
    const auto& [at, entry] = st.pending[backlog];
    appraise(entry.path, entry.file_hash, at);
  }
  st.pending.erase(st.pending.begin(),
                   st.pending.begin() + static_cast<std::ptrdiff_t>(backlog));
  std::size_t next = 0;
  if (!st.failed) {
    for (; next < qr.entries.size();) {
      const keylime::LogEntryView& e = qr.entries[next];
      ++next;
      if (!appraise(e.path, e.file_hash, pv.log_offset + next - 1)) break;
    }
  }
  for (; next < qr.entries.size(); ++next) {
    st.pending.emplace_back(pv.log_offset + next,
                            qr.entries[next].materialize());
  }
  samples_.checks += checks;
  if (checks > 0) {
    samples_.check_ns.emplace_back(static_cast<double>(check_ns),
                                   static_cast<double>(checks));
  }
  if (evaluated > 0) stage("policy_index.appraise", appraise_start, now_ns());

  append_audit(alerts ? keylime::AuditVerdict::kFailed
                      : keylime::AuditVerdict::kPassed,
               alerts, evaluated);
  finish(Verdict::kAccepted);
}

std::uint64_t Replayer::disagreements(
    const Probe& probe, const std::vector<keylime::Alert>& live_alerts,
    std::vector<std::string>* notes) const {
  // The live cursor sequence of every replayed agent, in poll order.
  std::unordered_map<std::uint64_t, std::uint64_t> next_offset;  // poll ->
  for (std::size_t s = 0; s < probe.shard_count(); ++s) {
    std::unordered_map<std::uint32_t, std::uint64_t> last_poll;
    for (const Challenge& c : probe.challenges(s)) {
      if (!agents_.count(c.agent)) continue;
      if (auto it = last_poll.find(c.agent); it != last_poll.end()) {
        next_offset[it->second] = c.log_offset;
      }
      last_poll[c.agent] = c.poll;
    }
  }

  std::uint64_t bad = 0;
  for (const auto& [slot, st] : agents_) {
    const std::string& id = fleet_.agent_ids()[slot];
    for (const PollVerdict& pv : st.verdicts) {
      auto it = next_offset.find(pv.poll);
      if (it == next_offset.end()) continue;  // no later challenge seen
      const std::uint64_t expected =
          pv.verdict == Verdict::kReboot     ? 0
          : pv.verdict == Verdict::kAccepted ? pv.log_offset + pv.shipped
                                             : pv.log_offset;
      if (it->second != expected) {
        ++bad;
        notes->push_back(strformat(
            "replay: %s poll %llu cursor %llu, live moved it to %llu",
            id.c_str(), static_cast<unsigned long long>(pv.poll),
            static_cast<unsigned long long>(expected),
            static_cast<unsigned long long>(it->second)));
      }
    }
    // Alerts: all of them when the capture covered the agent's whole run,
    // else those inside the replayed prefix of the log.
    std::vector<std::tuple<int, std::string, std::uint64_t>> live, replayed;
    for (const keylime::Alert& a : live_alerts) {
      if (a.agent_id != id) continue;
      if (!st.complete && a.log_index >= st.accepted_end) continue;
      live.emplace_back(static_cast<int>(a.type), a.path, a.log_index);
    }
    for (const ReplayAlert& a : st.alerts) {
      replayed.emplace_back(static_cast<int>(a.type), a.path, a.log_index);
    }
    if (live != replayed) {
      ++bad;
      notes->push_back(strformat("replay: %s raised %zu alerts, live %zu",
                                 id.c_str(), replayed.size(), live.size()));
    }
  }
  return bad;
}

}  // namespace fleetbench

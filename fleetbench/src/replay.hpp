// Stage replay: re-runs each layer's public function on the exact
// request/response bytes the probe captured during a traced run, one
// call per stage, single-threaded, and times each call.
//
// The replay keeps its own verifier-side state per sampled agent (boot
// count, folded PCR 10, unevaluated backlog, failed flag) with the stock
// Keylime semantics the pool's verifiers run, so it reaches its own
// verdict for every captured poll. Those verdicts are then held against
// the live run's: accept / reboot / reject as the next challenge's log
// cursor shows it, and the alerts the pool raised for the agent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiments/pool_experiment.hpp"
#include "keylime/audit.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/verifier.hpp"
#include "probe.hpp"

namespace fleetbench {

/// Per-call timings of every replayed stage, one sample per poll that
/// reached the stage.
struct StageSamples {
  std::uint64_t polls = 0;    // captured polls replayed
  std::uint64_t entries = 0;  // entries template-checked and folded
  std::uint64_t checks = 0;   // PolicyIndex::check calls
  std::vector<double> decode_ns;          // request + response
  std::vector<double> encode_request_ns;  // QuoteRequest::encode
  std::vector<double> encode_response_ns; // QuoteResponse::encode
  std::vector<double> quote_sign_ns;      // Tpm2::quote
  std::vector<double> quote_verify_ns;    // tpm::Quote::verify + nonce binding
  std::vector<double> audit_append_ns;    // AuditLog::append
  // (time, items) per poll: entries hashed / folded, index checks made.
  std::vector<std::pair<double, double>> template_ns;  // sha256_batch
  std::vector<std::pair<double, double>> fold_ns;      // pcr_fold
  std::vector<std::pair<double, double>> check_ns;     // PolicyIndex::check
};

/// Mean after dropping the slowest 1% of samples: one call descheduled
/// for hundreds of milliseconds would otherwise set a stage's mean.
double trimmed_mean(std::vector<double> samples);

/// Total time over total items, after dropping the 1% of polls with the
/// highest time per item.
double trimmed_rate(std::vector<std::pair<double, double>> samples);

class Replayer {
 public:
  /// Quote signing is re-timed on each agent's own TPM, and quotes are
  /// verified against its AK. `spans` receives one span per stage.
  Replayer(cia::experiments::PoolFleet& fleet, SpanLog* spans);

  /// Replay every captured poll not replayed yet, appraising against
  /// `index` — the policy revision those polls ran under. Call at every
  /// policy change and once at the end.
  void replay_pending(std::vector<AgentCapture>& captures,
                      const cia::keylime::PolicyIndex& index);

  /// Compare the replay's verdicts with the live run: per-poll
  /// acceptance against the probe's challenge logs, and per-agent alerts
  /// against `live_alerts`. Returns the number of disagreeing polls and
  /// appends a line per disagreement to `notes`.
  std::uint64_t disagreements(
      const Probe& probe, const std::vector<cia::keylime::Alert>& live_alerts,
      std::vector<std::string>* notes) const;

  const StageSamples& samples() const { return samples_; }
  /// Captured polls the replay refused (bad quote, nonce, template or
  /// fold) — every captured response must be accepted.
  std::uint64_t refused() const { return refused_; }

 private:
  enum class Verdict { kAccepted, kReboot, kRefused };

  struct PollVerdict {
    std::uint64_t poll = 0;
    std::uint64_t log_offset = 0;  // the request's cursor
    std::uint64_t shipped = 0;
    Verdict verdict = Verdict::kRefused;
  };

  struct ReplayAlert {
    cia::keylime::AlertType type;
    std::string path;
    std::uint64_t log_index;
  };

  struct AgentState {
    std::size_t next = 0;  // captured polls replayed so far
    std::uint32_t boot_count = 0;
    cia::crypto::Digest pcr{};
    bool failed = false;
    std::vector<std::pair<std::uint64_t, cia::ima::LogEntry>> pending;
    std::vector<PollVerdict> verdicts;
    std::vector<ReplayAlert> alerts;
    std::uint64_t accepted_end = 0;  // cursor after the last accepted poll
    bool complete = true;            // capture covered every live poll
  };

  void replay_poll(std::uint32_t slot, AgentState& st, const CapturedPoll& cp,
                   const cia::keylime::PolicyIndex& index);

  cia::experiments::PoolFleet& fleet_;
  SpanLog* spans_;
  cia::keylime::AuditLog audit_;
  std::map<std::uint32_t, AgentState> agents_;
  StageSamples samples_;
  std::uint64_t refused_ = 0;
};

}  // namespace fleetbench

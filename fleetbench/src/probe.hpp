// Outside-in instrumentation for the fleet benchmark.
//
// Nothing here reaches into the program under test. Every number comes
// from one of two places:
//   * AgentTap, a netsim::Endpoint the benchmark slides in front of each
//     agent address (SimNetwork::endpoint/detach/attach). It timestamps
//     each quote challenge as it arrives, times the agent's handler, and
//     (on a traced run) keeps a copy of the request/response bytes of a
//     sample of agents for the stage replay;
//   * spans the benchmark records around the public calls it makes
//     (pool rounds, policy pushes, set-up steps, replayed stages).
//
// Shard workers write only their own shard's challenge log and only the
// captures of agents they own, so no lock is needed: the pool's thread
// spawn/join at every round is the hand-off to and from the driver.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "experiments/pool_experiment.hpp"
#include "netsim/network.hpp"

namespace fleetbench {

/// CPU time the calling thread has run for.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Times the calling thread has blocked so far (voluntary context
/// switches: a lock, I/O, a sleep).
inline std::uint64_t thread_blocks() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw);
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One finished span. `track` is the Chrome-trace thread row: 0 is the
/// driver, 1 + s is pool shard s, kReplayTrack the stage replay.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no parent
  std::uint64_t poll = 0;    // shared by every span of one poll; 0: none
  std::uint32_t track = 0;
};

inline constexpr std::uint32_t kReplayTrack = 1000;

/// In-memory span store with one buffer per track, so shard workers
/// never share a vector. Written to a Chrome-trace file when the run
/// ends.
class SpanLog {
 public:
  SpanLog(std::size_t shards, bool enabled);

  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t add(std::uint32_t track, const char* name,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t parent = 0, std::uint64_t poll = 0);

  /// Reserve an id for a span whose children are recorded before it
  /// ends; pass it to add_with_id when it does.
  std::uint64_t reserve_id(std::uint32_t track);
  void add_with_id(std::uint64_t id, std::uint32_t track, const char* name,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::uint64_t parent = 0, std::uint64_t poll = 0);

  std::size_t size() const;

  /// Write every span as Chrome-trace "X" events (timestamps relative to
  /// `origin_ns`). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          std::int64_t origin_ns) const;

 private:
  std::vector<Span>& buffer(std::uint32_t track);

  bool enabled_;
  std::vector<std::vector<Span>> shard_spans_;  // index = shard
  std::vector<Span> driver_spans_;
  std::vector<Span> replay_spans_;
  std::vector<std::uint64_t> next_seq_;  // per track row (see buffer())
};

/// One quote challenge as the agent saw it.
struct Challenge {
  std::int64_t arrive_ns = 0;
  std::int64_t arrive_cpu_ns = 0;  // the shard thread's CPU clock then
  std::uint64_t arrive_blocks = 0;  // and the times it has blocked
  std::int64_t busy_ns = 0;       // inside the agent's handler
  std::uint64_t poll = 0;         // poll id (unique per run)
  std::uint64_t log_offset = 0;   // the verifier's cursor, from the request
  std::uint64_t entries = 0;      // IMA entries the response ships
  std::uint64_t bytes = 0;        // response size
  std::uint32_t agent = 0;        // fleet slot
  std::uint32_t round = 0;
};

/// A request/response pair kept for the stage replay.
struct CapturedPoll {
  std::uint64_t poll = 0;
  std::uint32_t round = 0;
  cia::Bytes request;
  cia::Bytes response;
};

/// Everything captured for one sampled agent, contiguous from its first
/// poll until its byte budget ran out (`truncated`).
struct AgentCapture {
  std::uint32_t slot = 0;
  std::vector<CapturedPoll> polls;
  std::size_t bytes = 0;
  bool truncated = false;
};

class Probe;

/// The endpoint wrapper in front of one agent address.
class AgentTap : public cia::netsim::Endpoint {
 public:
  AgentTap(Probe* probe, cia::netsim::SimNetwork* network,
           std::string address, cia::oskernel::Machine* machine,
           std::size_t shard, std::uint32_t slot,
           AgentCapture* capture);
  ~AgentTap() override;

  AgentTap(const AgentTap&) = delete;
  AgentTap& operator=(const AgentTap&) = delete;

  cia::Result<cia::Bytes> handle(const std::string& kind,
                                 const cia::Bytes& payload) override;

 private:
  Probe* probe_;
  cia::netsim::SimNetwork* network_;
  std::string address_;
  cia::netsim::Endpoint* inner_;
  cia::oskernel::Machine* machine_;
  std::size_t shard_;
  std::uint32_t slot_;
  AgentCapture* capture_;  // null: not sampled
};

struct ProbeOptions {
  bool trace = false;
  /// Traced runs capture the traffic of every `capture_stride`-th agent.
  std::size_t capture_stride = 4;
};

/// Owns the taps of one fleet and the per-shard challenge logs.
class Probe {
 public:
  Probe(cia::experiments::PoolFleet& fleet, const ProbeOptions& options);

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Driver thread, between rounds: tag the next round's challenges.
  void begin_round(std::uint32_t round) { round_ = round; }

  /// Stop/resume keeping spans and captures (the untraced tail of a
  /// traced run). Driver thread, between rounds. Turning it off ends
  /// every capture for good: the replay needs contiguous traffic.
  void set_tracing(bool on);
  bool tracing() const { return tracing_; }

  std::size_t shard_count() const { return challenges_.size(); }
  const std::vector<Challenge>& challenges(std::size_t shard) const {
    return challenges_[shard];
  }
  std::vector<AgentCapture>& captures() { return captures_; }
  SpanLog& spans() { return spans_; }
  const SpanLog& spans() const { return spans_; }

  /// The span the next round's shard spans hang under.
  void set_round_span(std::uint64_t id) { round_span_ = id; }

 private:
  friend class AgentTap;

  ProbeOptions options_;
  bool tracing_ = false;
  std::uint32_t round_ = 0;
  std::uint64_t round_span_ = 0;
  std::vector<std::vector<Challenge>> challenges_;  // index = shard
  std::vector<std::uint64_t> next_poll_;            // per shard
  std::vector<AgentCapture> captures_;
  std::size_t capture_budget_per_agent_ = 0;
  SpanLog spans_;
  // Declared last: destroyed first, so every tap re-attaches its agent
  // before the logs it writes go away.
  std::vector<std::unique_ptr<AgentTap>> taps_;
};

}  // namespace fleetbench

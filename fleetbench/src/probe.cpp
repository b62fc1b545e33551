#include "probe.hpp"

#include <algorithm>
#include <cstdio>

#include "keylime/messages.hpp"

namespace fleetbench {

using namespace cia;

namespace {

/// Bytes of captured traffic a traced run keeps, over all sampled agents.
constexpr std::size_t kCaptureBudget = std::size_t{48} << 20;

}  // namespace

// ------------------------------------------------------------- SpanLog

SpanLog::SpanLog(std::size_t shards, bool enabled)
    : enabled_(enabled), shard_spans_(shards), next_seq_(shards + 2, 0) {}

std::vector<Span>& SpanLog::buffer(std::uint32_t track) {
  if (track == 0) return driver_spans_;
  if (track == kReplayTrack) return replay_spans_;
  return shard_spans_[track - 1];
}

std::uint64_t SpanLog::reserve_id(std::uint32_t track) {
  if (!enabled_) return 0;
  // Row index into next_seq_: driver 0, shards 1..n, replay n+1. The row
  // sits in the id's high bits, so ids never collide across threads.
  const std::size_t row =
      track == kReplayTrack ? shard_spans_.size() + 1 : track;
  return (static_cast<std::uint64_t>(row) << 40) | ++next_seq_[row];
}

void SpanLog::add_with_id(std::uint64_t id, std::uint32_t track,
                          const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t parent,
                          std::uint64_t poll) {
  if (!enabled_) return;
  buffer(track).push_back({name, start_ns, end_ns, id, parent, poll, track});
}

std::uint64_t SpanLog::add(std::uint32_t track, const char* name,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint64_t parent, std::uint64_t poll) {
  if (!enabled_) return 0;
  const std::uint64_t id = reserve_id(track);
  add_with_id(id, track, name, start_ns, end_ns, parent, poll);
  return id;
}

std::size_t SpanLog::size() const {
  std::size_t n = driver_spans_.size() + replay_spans_.size();
  for (const auto& s : shard_spans_) n += s.size();
  return n;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 std::int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto row_name = [&](std::uint32_t tid, const char* name) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_"
                 "name\",\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, name);
    first = false;
  };
  row_name(0, "driver");
  for (std::size_t s = 0; s < shard_spans_.size(); ++s) {
    char name[32];
    std::snprintf(name, sizeof name, "shard %zu", s);
    row_name(static_cast<std::uint32_t>(s + 1), name);
  }
  row_name(kReplayTrack, "stage replay");
  auto emit = [&](const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      std::fprintf(
          f,
          ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
          "\"poll\":%llu}}",
          s.track, s.name, static_cast<double>(s.start_ns - origin_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.poll));
    }
  };
  emit(driver_spans_);
  for (const auto& spans : shard_spans_) emit(spans);
  emit(replay_spans_);
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ AgentTap

AgentTap::AgentTap(Probe* probe, netsim::SimNetwork* network,
                   std::string address, oskernel::Machine* machine,
                   std::size_t shard, std::uint32_t slot,
                   AgentCapture* capture)
    : probe_(probe),
      network_(network),
      address_(std::move(address)),
      inner_(network->endpoint(address_)),
      machine_(machine),
      shard_(shard),
      slot_(slot),
      capture_(capture) {
  network_->detach(address_);
  network_->attach(address_, this);
}

AgentTap::~AgentTap() {
  network_->detach(address_);
  if (inner_) network_->attach(address_, inner_);
}

Result<Bytes> AgentTap::handle(const std::string& kind, const Bytes& payload) {
  if (kind != keylime::kMsgQuote) return inner_->handle(kind, payload);
  const std::int64_t arrive = now_ns();
  const std::int64_t arrive_cpu = thread_cpu_ns();
  const std::uint64_t arrive_blocks = thread_blocks();
  // The shipped entry count comes from the substrate (the machine's IMA
  // log length), not from decoding the response on the timed path.
  std::uint64_t offset = 0;
  if (auto req = keylime::QuoteRequest::decode(payload); req.ok()) {
    offset = req.value().log_offset;
  }
  const std::uint64_t log_size = machine_->ima().log().size();
  Result<Bytes> response = inner_->handle(kind, payload);
  const std::int64_t done = now_ns();

  Challenge c;
  c.arrive_ns = arrive;
  c.arrive_cpu_ns = arrive_cpu;
  c.arrive_blocks = arrive_blocks;
  c.busy_ns = done - arrive;
  c.poll = (static_cast<std::uint64_t>(shard_ + 1) << 40) |
           ++probe_->next_poll_[shard_];
  c.log_offset = offset;
  c.entries = log_size > offset ? log_size - offset : 0;
  c.bytes = response.ok() ? response.value().size() : 0;
  c.agent = slot_;
  c.round = probe_->round_;
  probe_->challenges_[shard_].push_back(c);

  if (probe_->tracing_) {
    const auto track = static_cast<std::uint32_t>(shard_ + 1);
    probe_->spans_.add(track, "agent.quote", arrive, done, probe_->round_span_,
                       c.poll);
    if (capture_ && !capture_->truncated && response.ok()) {
      const std::size_t size = payload.size() + response.value().size();
      if (capture_->bytes + size > probe_->capture_budget_per_agent_) {
        capture_->truncated = true;
      } else {
        capture_->bytes += size;
        capture_->polls.push_back({c.poll, c.round, payload, response.value()});
      }
    }
  }
  return response;
}

// --------------------------------------------------------------- Probe

void Probe::set_tracing(bool on) {
  tracing_ = on && options_.trace;
  if (!tracing_) {
    for (AgentCapture& c : captures_) c.truncated = true;
  }
}

Probe::Probe(experiments::PoolFleet& fleet, const ProbeOptions& options)
    : options_(options),
      tracing_(options.trace),
      challenges_(fleet.pool().shard_count()),
      next_poll_(fleet.pool().shard_count(), 0),
      spans_(fleet.pool().shard_count(), options.trace) {
  const auto& ids = fleet.agent_ids();
  const std::size_t stride = std::max<std::size_t>(1, options_.capture_stride);
  if (options_.trace) {
    // Sized once: taps keep pointers into this vector.
    captures_.resize((ids.size() + stride - 1) / stride);
    capture_budget_per_agent_ =
        captures_.empty() ? 0 : kCaptureBudget / captures_.size();
  }
  taps_.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t shard = fleet.pool().shard_for(ids[i]);
    AgentCapture* capture = nullptr;
    if (options_.trace && i % stride == 0) {
      capture = &captures_[i / stride];
      capture->slot = static_cast<std::uint32_t>(i);
    }
    taps_.push_back(std::make_unique<AgentTap>(
        this, &fleet.pool().network(shard), "agent:" + ids[i],
        &fleet.machine(i), shard, static_cast<std::uint32_t>(i), capture));
  }
}

}  // namespace fleetbench

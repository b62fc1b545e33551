// The three fleet workloads, their closed-loop driver, the output checks
// and the metric derivation.
//
// One driver thread runs VerifierPool::run_round back to back (a closed
// loop: a slower verifier simply gets through fewer polls). Only the
// rounds themselves are timed. Work the simulated nodes do — executing
// binaries, rebooting, rewriting upgraded files — and the daily policy
// ingest run between rounds and are timed on their own.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/strutil.hpp"
#include "crypto/sha256.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/alert_pipeline/pipeline.hpp"
#include "keylime/audit.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/policy_store/store.hpp"
#include "probe.hpp"
#include "replay.hpp"

namespace fleetbench {

using namespace cia;
namespace store = keylime::policy_store;

namespace {

enum class Kind { kSteadyPoll, kRebootWalk, kDailyUpdate };

struct Spec {
  Kind kind = Kind::kSteadyPoll;
  std::size_t agents = 0;
  std::size_t shards = 0;
  /// Synthetic executables per machine (PoolFleet's shared image).
  std::size_t binaries = 0;
  std::size_t execs_per_round = 0;   // steady-poll
  std::size_t rounds_per_day = 0;    // daily-update
  std::size_t upgrades_per_day = 0;  // daily-update: fleet binaries per delta
  std::size_t pad_entries = 0;       // daily-update: policy lines of padding
  std::size_t delta_lines = 0;       // daily-update: target lines per delta
  std::size_t setups = 3;            // set-ups per run (setup_s is the median)
  std::size_t min_sampled = 1000;    // latency samples per run, at least
  std::size_t min_days = 4;          // daily-update: error day + its cure
  std::size_t capture_stride = 4;    // traced runs replay every n-th agent
  /// Timed rounds after which peak RSS is read. Memory grows with every
  /// poll (audit records, IMA logs), so a fixed point keeps the figure
  /// from tracking how fast the host happened to be.
  std::size_t rss_rounds = 0;
};

/// The daily-update day whose delta omits one upgraded binary (the
/// paper's injected day-31 human error); the next day corrects it.
constexpr std::size_t kErrorDay = 1;

/// daily-update runs a campaign of one day per this many seconds of the
/// run's --seconds (4 days at 20 s). The length is fixed, not timed: the
/// error day's frozen fleet makes its rounds nearly empty, so a campaign
/// that ran until a deadline would move polls_per_s with the error day's
/// weight whenever the host's speed changed the number of days.
constexpr double kSecondsPerDay = 5;

Spec spec_for(const std::string& name, bool smoke) {
  Spec s;
  // Three shard workers: on a 4-vCPU host the fourth core absorbs the
  // driver and other processes, which a round would otherwise wait for.
  const std::size_t cores =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  s.shards = std::min<std::size_t>(smoke ? 2 : 3, cores);
  if (smoke) {
    s.setups = 2;
    s.min_sampled = 20;
  }
  if (name == "steady-poll") {
    s.kind = Kind::kSteadyPoll;
    s.agents = smoke ? 16 : 512;
    s.binaries = smoke ? 8 : 32;
    s.execs_per_round = 4;
    s.capture_stride = smoke ? 4 : 32;
    s.rss_rounds = smoke ? 4 : 40;
  } else if (name == "reboot-walk") {
    s.kind = Kind::kRebootWalk;
    s.agents = smoke ? 8 : 64;
    s.binaries = smoke ? 64 : 4096;
    // A set-up here is short (~0.6 s), so the median is taken over more
    // of them.
    if (!smoke) s.setups = 5;
    s.capture_stride = smoke ? 2 : 4;
    s.rss_rounds = smoke ? 8 : 64;
  } else if (name == "daily-update") {
    s.kind = Kind::kDailyUpdate;
    // Few agents: every verifier agent record holds its own copy of the
    // ~300k-line policy (~115 MB each at this size), so the fleet's
    // memory grows with agents x policy.
    s.agents = 8;
    s.binaries = smoke ? 16 : 256;
    // Enough rounds that the three polled days give ~10 latency windows.
    s.rounds_per_day = smoke ? 3 : 640;
    s.upgrades_per_day = smoke ? 4 : 16;
    s.pad_entries = smoke ? 2000 : 300000;
    // The paper's 1,271-line average delta against a 323,734-line base,
    // scaled to the padded base (same proportion BENCH_policy.json uses).
    s.delta_lines =
        std::max<std::size_t>(s.upgrades_per_day + 8,
                              s.pad_entries * 1271 / 323734);
    s.capture_stride = smoke ? 2 : 4;
    s.rss_rounds = s.min_days * s.rounds_per_day;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Latency samples per p99 window: ten beyond the 99th percentile.
constexpr std::size_t kWindowSamples = 1000;

/// Off-CPU time beyond which a poll counts as preempted (a diagnostic:
/// every poll stays in the latency sample).
constexpr std::int64_t kMaxOffCpuNs = 250'000;

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string hex_of(const std::string& content) {
  return crypto::digest_hex(crypto::sha256(content));
}

/// The process's peak resident set so far (VmHWM), in KiB.
std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// One built fleet. Members are destroyed in reverse order: the taps
/// first (re-attaching the agents), then the fleet, then the pipeline
/// the pool pointed at.
struct Fleet {
  keylime::alert_pipeline::AlertPipeline pipeline;
  std::unique_ptr<experiments::PoolFleet> fleet;
  std::unique_ptr<Probe> probe;
  std::int64_t fleet_ns = 0;   // machines, TPM identities, registrar, enrol
  std::int64_t policy_ns = 0;  // policy digest + first index build
  std::int64_t attach_ns = 0;  // alert pipeline + endpoint taps
  std::int64_t warmup_ns = 0;  // first (untimed) round
};

struct RoundRec {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t span = 0;
  bool timed = false;
  int phase = 0;  // 0: measured phase, 1: untraced tail of a traced run
  std::size_t day = 0;
};

/// What one phase's timed rounds add up to.
struct PhaseStats {
  std::uint64_t rounds = 0;
  std::uint64_t polls = 0;
  std::int64_t wall_ns = 0;
  double on_cpu_wall_ns = 0;  // wall minus the critical path's off-CPU time
  std::uint64_t accepted = 0;  // entries the verifier accepted
  std::vector<double> latency_ms;  // sorted
  std::vector<double> wall_latency_ms;  // sorted; preemption left in
  double sampled_wall_ns = 0;
  double sampled_preempted_ns = 0;
  /// Median and p99 of each window of consecutive rounds holding >= 1000
  /// samples.
  std::vector<double> window_p50_ms;
  std::vector<double> window_p99_ms;
  double agent_busy_ns = 0;
  double bytes = 0;
  double shipped = 0;
  double self_ns = 0;  // sampled polls: interval minus agent busy
  double shard_busy_ns = 0;
  double join_wait_ns = 0;
  double max_over_mean = 0;  // summed over rounds that polled anyone
  std::uint64_t polled_rounds = 0;
  std::uint64_t preempted = 0;  // sampled polls that lost > kMaxOffCpuNs
  // Rounds outside daily-update's error day: the like-for-like base of
  // the tracing overhead (the untraced tail has no error day).
  std::uint64_t polls_no_error_day = 0;
  std::int64_t wall_ns_no_error_day = 0;
  std::size_t shards = 0;
};

class Bench {
 public:
  Bench(const Spec& spec, const RunOptions& options)
      : spec_(spec), opt_(options) {}

  RunResult run();

 private:
  void make_inputs();
  std::unique_ptr<Fleet> build(bool traced);
  void pool_round(bool timed);
  void run_phase(int phase, double seconds, std::size_t min_sampled,
                 std::size_t days);

  void exec(std::size_t slot, const std::string& path);
  void rewrite(std::size_t slot, const std::string& path,
               const std::string& content);
  void substrate_round();
  void start_day();
  void end_day();
  void fail(std::string what, std::uint64_t count = 1);
  std::uint64_t driver_span(const char* name, std::int64_t t0,
                            std::int64_t t1);

  PhaseStats phase_stats(int phase);
  void check_outputs();
  void report(const PhaseStats& main, const PhaseStats* tail);

  Spec spec_;
  RunOptions opt_;
  RunResult result_;

  // Inputs, from the seed.
  std::vector<std::string> paths_;      // the fleet image's binaries
  keylime::RuntimePolicy pad_;          // daily-update padding
  keylime::RuntimePolicy policy_;       // the fleet's current policy
  bool policy_ready_ = false;

  // Expectations, from the inputs.
  std::vector<std::uint64_t> expected_entries_;  // per fleet slot
  std::uint64_t expected_revision_ = 0;
  std::string omitted_path_;                     // daily-update error day
  std::string omitted_hash_;

  // The fleet under test.
  std::unique_ptr<Fleet> f_;
  std::unique_ptr<Replayer> replayer_;
  std::shared_ptr<const keylime::PolicyIndex> replay_index_;
  std::vector<RoundRec> rounds_;  // index = probe round number
  std::vector<std::size_t> seen_;  // challenges per shard before the round
  std::uint64_t phase_sampled_ = 0;
  int phase_ = 0;
  std::uint64_t workload_round_ = 0;
  std::uint64_t timed_rounds_ = 0;  // measured phase
  std::uint64_t rss_kb_ = 0;        // VmHWM after spec_.rss_rounds of them
  std::size_t day_ = 0;

  // Between-round timings.
  std::int64_t substrate_ns_ = 0;
  std::vector<double> setup_s_, setup_agent_ms_, setup_policy_ms_;
  std::vector<double> diff_ms_, apply_ms_, push_ms_, update_ms_;
  std::vector<double> delta_lines_;
  double error_day_round_ms_ = 0;
  keylime::VerifierPool::Stats stats_before_, stats_after_;
  std::int64_t origin_ns_ = 0;
};

void Bench::fail(std::string what, std::uint64_t count) {
  result_.failed += count;
  if (result_.failures.size() < 20) result_.failures.push_back(std::move(what));
}

std::uint64_t Bench::driver_span(const char* name, std::int64_t t0,
                                 std::int64_t t1) {
  if (!f_ || !f_->probe->tracing()) return 0;
  return f_->probe->spans().add(0, name, t0, t1);
}

void Bench::make_inputs() {
  for (std::size_t b = 0; b < spec_.binaries; ++b) {
    // PoolFleet's shared image layout (one file per index).
    paths_.push_back(strformat("/usr/bin/tool-%03zu", b));
  }
  if (spec_.kind != Kind::kDailyUpdate) return;
  // The padded base: the same shape as BENCH_policy.json — half as many
  // paths as lines, two acceptable hashes each — with a production-length
  // exclude list. Content strings carry the seed.
  const char* suffixes[] = {"log", "tmp", "swp", "pyc", "bak", "cache",
                            "old", "lock"};
  for (std::size_t i = 0; i < 96; ++i) {
    switch (i % 4) {
      case 0:
        pad_.exclude(strformat("*.%s.%zu", suffixes[i % 8], i / 4));
        break;
      case 1:
        pad_.exclude(strformat("*/spool-%03zu/*", i));
        break;
      case 2:
        pad_.exclude(strformat("*/tool-scratch-%03zu/*", i));
        break;
      default:
        pad_.exclude(strformat("/var/cache/app-%03zu/*", i));
        break;
    }
  }
  const std::size_t pad_paths = spec_.pad_entries / 2;
  for (std::size_t i = 0; i < pad_paths; ++i) {
    const std::string path = strformat(
        "/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-%zu.so.0", i / 4, i % 4);
    for (std::size_t h = 0; h < 2; ++h) {
      pad_.allow(path,
                 hex_of(strformat("content-%llu-%zu-%zu",
                                  static_cast<unsigned long long>(opt_.seed),
                                  i, h)));
    }
  }
}

// ------------------------------------------------------------ substrate

void Bench::exec(std::size_t slot, const std::string& path) {
  if (auto pid = f_->fleet->machine(slot).exec(path); !pid.ok()) {
    fail("substrate: exec " + path + ": " + pid.error().message);
    return;
  }
  ++expected_entries_[slot];  // every exec the plan makes measures a new file
}

void Bench::rewrite(std::size_t slot, const std::string& path,
                    const std::string& content) {
  if (Status s = f_->fleet->machine(slot).fs().write_file(path,
                                                          to_bytes(content));
      !s.ok()) {
    fail("substrate: write " + path + ": " + s.error().message);
  }
}

std::string steady_version(const std::string& path, std::size_t pass,
                           std::uint64_t seed) {
  return strformat("elf:%s:build-%c:%llu", path.c_str(),
                   pass % 2 ? 'a' : 'b', static_cast<unsigned long long>(seed));
}

void Bench::substrate_round() {
  const std::int64_t t0 = now_ns();
  const std::size_t n = f_->fleet->agent_ids().size();
  if (spec_.kind == Kind::kSteadyPoll) {
    // Every machine runs `execs_per_round` binaries, each a first
    // execution of new content: the first pass over the image runs the
    // installed builds, later passes alternate two rebuilt versions the
    // policy also admits.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < spec_.execs_per_round; ++k) {
        const std::size_t step = workload_round_ * spec_.execs_per_round + k;
        const std::size_t b = step % paths_.size();
        const std::size_t pass = step / paths_.size();
        if (pass > 0) {
          rewrite(i, paths_[b], steady_version(paths_[b], pass, opt_.seed));
        }
        exec(i, paths_[b]);
      }
    }
  } else if (spec_.kind == Kind::kRebootWalk) {
    // A rotating quarter of the fleet reboots and re-executes its whole
    // image: the next poll sees the reboot, the one after walks the full
    // fresh log.
    for (std::size_t i = workload_round_ % 4; i < n; i += 4) {
      f_->fleet->machine(i).reboot();
      ++expected_entries_[i];  // boot_aggregate
      for (const std::string& p : paths_) exec(i, p);
    }
  }
  ++workload_round_;
  const std::int64_t t1 = now_ns();
  substrate_ns_ += t1 - t0;
  driver_span("substrate.workload", t0, t1);
}

// --------------------------------------------------------------- set-up

std::unique_ptr<Fleet> Bench::build(bool traced) {
  auto f = std::make_unique<Fleet>();
  experiments::PoolFleetOptions o;
  o.agents = spec_.agents;
  o.shards = spec_.shards;
  o.seed = opt_.seed;
  o.binaries_per_machine = spec_.binaries;
  const std::int64_t t0 = now_ns();
  f->fleet = std::make_unique<experiments::PoolFleet>(o);
  const std::int64_t t1 = now_ns();
  if (!f->fleet->init_status().ok()) {
    throw std::runtime_error("fleet set-up failed: " +
                             f->fleet->init_status().error().message);
  }
  for (const std::string& p : paths_) {
    if (!f->fleet->machine(0).fs().is_file(p)) {
      throw std::runtime_error("fleet image lacks " + p);
    }
  }
  if (!policy_ready_) {
    // The operator's policy: a scan of the golden image, plus (steady-
    // poll) the two rebuilt versions, or (daily-update) the padding.
    policy_ = f->fleet->fleet_policy();
    if (spec_.kind == Kind::kSteadyPoll) {
      for (const std::string& p : paths_) {
        policy_.allow(p, hex_of(steady_version(p, 1, opt_.seed)));
        policy_.allow(p, hex_of(steady_version(p, 2, opt_.seed)));
      }
    } else if (spec_.kind == Kind::kDailyUpdate) {
      pad_.merge(policy_);
      policy_ = std::move(pad_);
      pad_ = keylime::RuntimePolicy{};
    }
    policy_ready_ = true;
  }

  const std::int64_t t2 = now_ns();
  const std::string digest = store::policy_digest(policy_);
  if (Status s = f->fleet->pool().push_revision(f->fleet->agent_ids(),
                                                policy_, digest, nullptr);
      !s.ok()) {
    throw std::runtime_error("policy push failed: " + s.error().message);
  }
  const std::int64_t t3 = now_ns();
  f->fleet->pool().use_alert_pipeline(&f->pipeline);
  ProbeOptions po;
  po.trace = traced;
  po.capture_stride = spec_.capture_stride;
  f->probe = std::make_unique<Probe>(*f->fleet, po);
  f->fleet_ns = t1 - t0;
  f->policy_ns = t3 - t2;
  f->attach_ns = now_ns() - t3;
  return f;
}

// --------------------------------------------------------------- rounds

void Bench::pool_round(bool timed) {
  Probe& probe = *f_->probe;
  const auto round = static_cast<std::uint32_t>(rounds_.size());
  probe.begin_round(round);
  const std::uint64_t span =
      probe.tracing() ? probe.spans().reserve_id(0) : 0;
  probe.set_round_span(span);
  const std::int64_t t0 = now_ns();
  f_->fleet->pool().run_round();
  const std::int64_t t1 = now_ns();
  if (span) probe.spans().add_with_id(span, 0, "pool.run_round", t0, t1);
  rounds_.push_back({t0, t1, span, timed, phase_, day_});
  if (timed && phase_ == 0 && ++timed_rounds_ == spec_.rss_rounds) {
    rss_kb_ = peak_rss_kb();
  }
  // The latency samples this round adds: every poll of a shard but its
  // last (phase_stats samples exactly these).
  for (std::size_t s = 0; s < probe.shard_count(); ++s) {
    const std::size_t n = probe.challenges(s).size() - seen_[s];
    seen_[s] = probe.challenges(s).size();
    if (timed && n > 1) phase_sampled_ += n - 1;
  }
}

void Bench::start_day() {
  const std::size_t d = day_;
  keylime::VerifierPool& pool = f_->fleet->pool();
  if (replayer_) {
    // Yesterday's captured polls ran under the current index.
    const std::int64_t r0 = now_ns();
    replayer_->replay_pending(f_->probe->captures(), *replay_index_);
    driver_span("replay", r0, now_ns());
  }

  // Today's upgrade: `upgrades_per_day` fleet binaries get new builds.
  const std::int64_t b0 = now_ns();
  std::vector<std::pair<std::string, std::string>> upgrades;  // path, content
  for (std::size_t j = 0; j < spec_.upgrades_per_day; ++j) {
    const std::string& path =
        paths_[(d * spec_.upgrades_per_day + j) % paths_.size()];
    upgrades.emplace_back(
        path, strformat("elf:%s:day-%zu:%llu", path.c_str(), d,
                        static_cast<unsigned long long>(opt_.seed)));
  }
  keylime::RuntimePolicy target = policy_;
  for (std::size_t j = 0; j < upgrades.size(); ++j) {
    const auto& [path, content] = upgrades[j];
    if (d == kErrorDay && j + 1 == upgrades.size()) {
      omitted_path_ = path;  // the human error: left out of the delta
      omitted_hash_ = hex_of(content);
      continue;
    }
    target.set_hashes(path, {hex_of(content)});
  }
  if (d == kErrorDay + 1) target.set_hashes(omitted_path_, {omitted_hash_});
  // The rest of the ~1.2k lines: upgraded libraries (two hash lines
  // each), new files, removals across the padding — BENCH_policy.json's
  // delta mix.
  const std::size_t pad_paths = spec_.pad_entries / 2;
  const std::size_t rest = spec_.delta_lines - upgrades.size();
  const std::size_t removes = std::max<std::size_t>(1, rest / 10);
  const std::size_t adds = std::max<std::size_t>(1, rest * 3 / 10);
  const std::size_t replaces = (rest - removes - adds) / 2;
  auto pad_path = [&](std::size_t i) {
    i %= pad_paths;
    return strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-%zu.so.0",
                     i / 4, i % 4);
  };
  const auto seed = static_cast<std::size_t>(opt_.seed);
  for (std::size_t i = 0; i < replaces; ++i) {
    target.set_hashes(
        pad_path(seed + d * 7919 + i * 104729),
        {hex_of(strformat("upgraded-%zu-%zu-%zu-0", seed, d, i)),
         hex_of(strformat("upgraded-%zu-%zu-%zu-1", seed, d, i))});
  }
  for (std::size_t i = 0; i < adds; ++i) {
    target.allow(strformat("/srv/daily/d%03zu/new-%05zu", d, i),
                 hex_of(strformat("fresh-%zu-%zu-%zu", seed, d, i)));
  }
  for (std::size_t i = 0; i < removes; ++i) {
    (void)target.remove_path(pad_path(seed + d * 7907 + i * 13 + 1));
  }
  substrate_ns_ += now_ns() - b0;  // building the operator's target policy

  // The delta, then its arrival: ingest with both provenance digests and
  // push it to the fleet.
  const std::int64_t t0 = now_ns();
  const store::PolicyDelta delta = store::diff(policy_, target);
  const std::int64_t t1 = now_ns();
  auto applied = store::apply(policy_, delta);
  const std::int64_t t2 = now_ns();
  if (!applied.ok()) {
    throw std::runtime_error("delta apply failed: " + applied.error().message);
  }
  if (Status s = pool.push_revision(f_->fleet->agent_ids(), applied.value(),
                                    delta.target_digest, &delta);
      !s.ok()) {
    throw std::runtime_error("push_revision failed: " + s.error().message);
  }
  const std::int64_t t3 = now_ns();
  ++expected_revision_;
  if (phase_ == 0) {
    diff_ms_.push_back(ms(t1 - t0));
    apply_ms_.push_back(ms(t2 - t1));
    push_ms_.push_back(ms(t3 - t2));
    update_ms_.push_back(ms(t3 - t1));
    delta_lines_.push_back(static_cast<double>(delta.entry_count()));
  }
  driver_span("policy_store.diff", t0, t1);
  driver_span("policy_store.apply", t1, t2);
  driver_span("pool.push_revision", t2, t3);
  policy_ = std::move(applied).take();
  if (replayer_) {
    replay_index_ = keylime::PolicyIndex::build_incremental(
        replay_index_, policy_, delta, expected_revision_);
  }

  // Every machine installs and runs today's builds (the omitted one
  // last), before the day's polling starts.
  const std::int64_t s0 = now_ns();
  for (std::size_t i = 0; i < f_->fleet->agent_ids().size(); ++i) {
    for (const auto& [path, content] : upgrades) {
      rewrite(i, path, content);
      exec(i, path);
    }
  }
  if (d == kErrorDay + 1) {
    // The operator resolves the incident fleet-wide with the corrected
    // push.
    for (const std::string& id : f_->fleet->agent_ids()) {
      if (Status s = pool.resolve_failure(id); !s.ok()) {
        fail("resolve_failure " + id + ": " + s.error().message);
      }
    }
  }
  const std::int64_t s1 = now_ns();
  substrate_ns_ += s1 - s0;
  driver_span("substrate.workload", s0, s1);
}

void Bench::end_day() {
  keylime::VerifierPool& pool = f_->fleet->pool();
  std::uint64_t stale = 0;
  for (const std::string& id : f_->fleet->agent_ids()) {
    if (pool.policy_revision_of(id) != expected_revision_) ++stale;
  }
  if (stale) {
    fail(strformat("day %zu: %llu agents not on pushed revision %llu", day_,
                   static_cast<unsigned long long>(stale),
                   static_cast<unsigned long long>(expected_revision_)),
         stale);
  }
  if (day_ == kErrorDay) {
    // The first round after the faulty push is where every agent alerts.
    for (const RoundRec& r : rounds_) {
      if (r.day == kErrorDay && r.timed) {
        error_day_round_ms_ = ms(r.end - r.start);
        break;
      }
    }
    const auto opened = f_->pipeline.stats().opened;
    if (opened != 1 + (opt_.wrong_expectation ? 1 : 0)) {
      fail(strformat("error day: %llu incidents, expected 1",
                     static_cast<unsigned long long>(opened)));
    }
  }
  ++day_;
}

/// Runs timed rounds: on daily-update exactly `days` days, elsewhere for
/// `seconds` and until `min_sampled` latency samples.
void Bench::run_phase(int phase, double seconds, std::size_t min_sampled,
                      std::size_t days) {
  phase_ = phase;
  phase_sampled_ = 0;
  std::size_t days_run = 0;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  // A hard stop well inside the per-run time limit, even if the minimum
  // sample count is out of reach on a slow host.
  const std::int64_t hard_stop = start + budget * 2 + 20'000'000'000LL;
  const bool daily = spec_.kind == Kind::kDailyUpdate;
  while (true) {
    const std::int64_t now = now_ns();
    const bool enough = daily ? days_run >= days
                              : now - start >= budget &&
                                    phase_sampled_ >= min_sampled;
    if (enough || now > hard_stop) break;
    if (daily) {
      start_day();
      for (std::size_t r = 0; r < spec_.rounds_per_day; ++r) pool_round(true);
      end_day();
      ++days_run;
    } else {
      substrate_round();
      pool_round(true);
    }
  }
  // Two untimed rounds: the last timed polls' outcome shows in the
  // verifier's next challenge, and a reboot seen by the first is walked
  // by the second.
  pool_round(false);
  pool_round(false);
}

// --------------------------------------------------------------- metrics

PhaseStats Bench::phase_stats(int phase) {
  const Probe& probe = *f_->probe;
  PhaseStats ps;
  ps.shards = probe.shard_count();
  const std::size_t nrounds = rounds_.size();
  std::vector<std::uint64_t> accepted(nrounds, 0), polls(nrounds, 0);
  std::vector<double> max_busy(nrounds, 0), busy_sum(nrounds, 0);
  std::vector<double> max_on_cpu_busy(nrounds, 0);
  std::vector<std::uint64_t> max_polls(nrounds, 0);
  std::vector<std::vector<double>> round_latency(nrounds);
  auto in_phase = [&](std::uint32_t r) {
    return rounds_[r].timed && rounds_[r].phase == phase;
  };

  for (std::size_t s = 0; s < probe.shard_count(); ++s) {
    const std::vector<Challenge>& cs = probe.challenges(s);
    // Acceptance: the verifier's next challenge to the same agent shows
    // how far its cursor moved (back to 0 after a reboot).
    std::map<std::uint32_t, const Challenge*> last;
    for (const Challenge& c : cs) {
      auto it = last.find(c.agent);
      if (it != last.end() && c.log_offset > it->second->log_offset) {
        accepted[it->second->round] += c.log_offset - it->second->log_offset;
      }
      last[c.agent] = &c;
    }
    // Poll intervals: challenge to the next challenge on the same shard
    // in the same round; the last poll of a round is not sampled.
    for (std::size_t i = 0; i < cs.size();) {
      std::size_t j = i;
      while (j < cs.size() && cs[j].round == cs[i].round) ++j;
      const std::uint32_t r = cs[i].round;
      const std::size_t n = j - i;
      if (in_phase(r)) {
        polls[r] += n;
        max_polls[r] = std::max<std::uint64_t>(max_polls[r], n);
        std::vector<double> intervals;
        double off_cpu_sum = 0;
        for (std::size_t k = i; k < j; ++k) {
          ps.agent_busy_ns += static_cast<double>(cs[k].busy_ns);
          ps.bytes += static_cast<double>(cs[k].bytes);
          ps.shipped += static_cast<double>(cs[k].entries);
          if (k + 1 < j) {
            const std::int64_t iv = cs[k + 1].arrive_ns - cs[k].arrive_ns;
            intervals.push_back(static_cast<double>(iv));
            // The shard thread's CPU clock excludes time it spent blocked,
            // preempted or stolen by the hypervisor. If the thread never
            // blocked during the poll, its off-CPU time is time it was
            // runnable but not running (the guest's scheduler or the
            // hypervisor ran something else): the latency leaves it out.
            // A poll in which the thread blocked (a lock, I/O) keeps its
            // whole wall time. Throughput stays on wall time, so threads
            // that oversubscribe the cores still show there.
            const std::int64_t off_cpu =
                iv - (cs[k + 1].arrive_cpu_ns - cs[k].arrive_cpu_ns);
            const std::int64_t preempted =
                cs[k + 1].arrive_blocks == cs[k].arrive_blocks
                    ? std::max<std::int64_t>(0, off_cpu)
                    : 0;
            round_latency[r].push_back(ms(iv - preempted));
            ps.wall_latency_ms.push_back(ms(iv));
            ps.sampled_wall_ns += static_cast<double>(iv);
            ps.sampled_preempted_ns += static_cast<double>(preempted);
            off_cpu_sum +=
                static_cast<double>(std::max<std::int64_t>(0, off_cpu));
            if (off_cpu > kMaxOffCpuNs) ++ps.preempted;
            ps.self_ns += static_cast<double>(iv - cs[k].busy_ns);
            if (probe.spans().enabled() && rounds_[r].span) {
              f_->probe->spans().add(static_cast<std::uint32_t>(s + 1),
                                     "pool.poll", cs[k].arrive_ns,
                                     cs[k + 1].arrive_ns, rounds_[r].span,
                                     cs[k].poll);
            }
          }
        }
        // Shard busy time, outside in: from the round's start to the
        // last challenge, plus the shard's median poll for the last one
        // (nothing marks its end), never past the round's own end.
        const double last_poll = n > 1 ? median(intervals)
                                       : static_cast<double>(cs[i].busy_ns);
        const double busy = std::min(
            static_cast<double>(cs[j - 1].arrive_ns - rounds_[r].start) +
                last_poll,
            static_cast<double>(rounds_[r].end - rounds_[r].start));
        max_busy[r] = std::max(max_busy[r], busy);
        max_on_cpu_busy[r] =
            std::max(max_on_cpu_busy[r], std::max(0.0, busy - off_cpu_sum));
        busy_sum[r] += busy;
        if (probe.spans().enabled() && rounds_[r].span) {
          f_->probe->spans().add(
              static_cast<std::uint32_t>(s + 1), "pool.shard_busy",
              rounds_[r].start,
              rounds_[r].start + static_cast<std::int64_t>(busy),
              rounds_[r].span);
        }
      }
      i = j;
    }
  }

  for (std::size_t r = 0; r < nrounds; ++r) {
    if (!in_phase(static_cast<std::uint32_t>(r))) continue;
    const std::int64_t wall = rounds_[r].end - rounds_[r].start;
    // Diagnostic only: the round as if no shard thread had lost CPU (the
    // slowest shard's on-CPU busy time plus the measured join and spawn
    // overhead). Throughput itself is counted on the round's wall time.
    ps.on_cpu_wall_ns += max_on_cpu_busy[r] +
                         (static_cast<double>(wall) - max_busy[r]);
    ++ps.rounds;
    ps.polls += polls[r];
    ps.wall_ns += wall;
    ps.accepted += accepted[r];
    ps.shard_busy_ns += busy_sum[r];
    ps.join_wait_ns += static_cast<double>(wall) - max_busy[r];
    if (polls[r] > 0) {
      ++ps.polled_rounds;
      ps.max_over_mean += static_cast<double>(max_polls[r]) *
                          static_cast<double>(ps.shards) /
                          static_cast<double>(polls[r]);
    }
    if (spec_.kind != Kind::kDailyUpdate || rounds_[r].day != kErrorDay) {
      ps.polls_no_error_day += polls[r];
      ps.wall_ns_no_error_day += wall;
    }
  }
  // Per window of consecutive rounds. A host stall that hits one window
  // moves only that window's p99, not the run's median of them. The
  // host's cores also switch between two speeds every few seconds (window
  // medians of one run differ by up to ~1.9x); a run's p50 is the mean of
  // its window medians, which follows the mix of the two, where the median
  // of all samples jumps from one speed to the other.
  std::vector<double> window;
  for (std::size_t r = 0; r < nrounds; ++r) {
    window.insert(window.end(), round_latency[r].begin(),
                  round_latency[r].end());
    ps.latency_ms.insert(ps.latency_ms.end(), round_latency[r].begin(),
                         round_latency[r].end());
    if (window.size() >= kWindowSamples) {
      std::sort(window.begin(), window.end());
      ps.window_p50_ms.push_back(percentile(window, 0.50));
      ps.window_p99_ms.push_back(percentile(window, 0.99));
      window.clear();
    }
  }
  std::sort(ps.latency_ms.begin(), ps.latency_ms.end());
  std::sort(ps.wall_latency_ms.begin(), ps.wall_latency_ms.end());
  if (ps.window_p99_ms.empty()) {
    ps.window_p50_ms.push_back(percentile(ps.latency_ms, 0.50));
    ps.window_p99_ms.push_back(percentile(ps.latency_ms, 0.99));
  }
  return ps;
}


// ---------------------------------------------------------------- checks

void Bench::check_outputs() {
  const std::int64_t t0 = now_ns();
  keylime::VerifierPool& pool = f_->fleet->pool();
  const auto& ids = f_->fleet->agent_ids();

  // Alerts: exactly the expected ones. Only daily-update expects any:
  // one hash mismatch per agent on the error day's omitted binary.
  std::map<std::string, std::uint64_t> expected_alerts;
  if (spec_.kind == Kind::kDailyUpdate && day_ > kErrorDay) {
    for (const std::string& id : ids) expected_alerts[id] = 1;
  }
  if (opt_.wrong_expectation && spec_.kind != Kind::kDailyUpdate) {
    expected_alerts[ids.front()] = 1;
  }
  const std::vector<keylime::Alert> alerts = pool.alerts();
  for (const keylime::Alert& a : alerts) {
    auto it = expected_alerts.find(a.agent_id);
    const bool wanted = it != expected_alerts.end() && it->second > 0 &&
                        a.type == keylime::AlertType::kHashMismatch &&
                        a.path == omitted_path_;
    if (wanted) {
      --it->second;
    } else {
      fail(strformat("unexpected %s alert on %s (%s)",
                     keylime::alert_type_name(a.type), a.agent_id.c_str(),
                     a.path.c_str()));
    }
  }
  for (const auto& [id, missing] : expected_alerts) {
    if (missing) fail("missing expected alert on " + id, missing);
  }
  const std::uint64_t want_incidents =
      spec_.kind == Kind::kDailyUpdate && day_ > kErrorDay ? 1 : 0;
  if (f_->pipeline.stats().opened != want_incidents) {
    fail(strformat("%llu incidents opened, expected %llu",
                   static_cast<unsigned long long>(f_->pipeline.stats().opened),
                   static_cast<unsigned long long>(want_incidents)));
  }

  // Entries accepted equal entries the workload executed.
  std::vector<std::uint64_t> accepted(ids.size(), 0);
  for (std::size_t s = 0; s < f_->probe->shard_count(); ++s) {
    std::map<std::uint32_t, std::uint64_t> last;
    for (const Challenge& c : f_->probe->challenges(s)) {
      auto it = last.find(c.agent);
      if (it != last.end() && c.log_offset > it->second) {
        accepted[c.agent] += c.log_offset - it->second;
      }
      last[c.agent] = c.log_offset;
    }
  }
  std::uint64_t short_agents = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t want =
        expected_entries_[i] + (opt_.wrong_expectation && i == 0 ? 1 : 0);
    if (accepted[i] != want) {
      ++short_agents;
      if (short_agents <= 3) {
        fail(strformat("%s: %llu entries accepted, %llu executed",
                       ids[i].c_str(),
                       static_cast<unsigned long long>(accepted[i]),
                       static_cast<unsigned long long>(want)));
      } else {
        ++result_.failed;
      }
    }
  }

  // Every shard's audit chain verifies (in parallel: one signature
  // check per record).
  const std::size_t shards = pool.shard_count();
  std::vector<int> chain_ok(shards, 0);
  {
    std::vector<std::thread> workers;
    for (std::size_t s = 0; s < shards; ++s) {
      workers.emplace_back([&pool, &chain_ok, s] {
        const keylime::AuditLog& log = pool.verifier(s).audit();
        chain_ok[s] =
            keylime::verify_audit_chain(log.records(), log.public_key()).ok();
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (std::size_t s = 0; s < shards; ++s) {
    if (!chain_ok[s]) fail(strformat("shard %zu audit chain fails", s));
  }

  // The replayed stages agree with the live verdicts.
  if (replayer_) {
    const std::int64_t r0 = now_ns();
    replayer_->replay_pending(f_->probe->captures(), *replay_index_);
    driver_span("replay", r0, now_ns());
    if (replayer_->refused()) {
      fail(strformat("replay refused %llu captured responses",
                     static_cast<unsigned long long>(replayer_->refused())),
           replayer_->refused());
    }
    std::vector<std::string> notes;
    const std::uint64_t bad =
        replayer_->disagreements(*f_->probe, alerts, &notes);
    for (std::string& n : notes) fail(std::move(n), 0);
    result_.failed += bad;
  }
  driver_span("checks", t0, now_ns());
}

// ---------------------------------------------------------------- report

void Bench::report(const PhaseStats& ps, const PhaseStats* tail) {
  const double wall_s = static_cast<double>(ps.wall_ns) / 1e9;
  const double polls = static_cast<double>(ps.polls);
  const double sampled = static_cast<double>(ps.latency_ms.size());
  const std::string polls_base = strformat(
      "%llu polls in %llu rounds, %.3f s of pool rounds",
      static_cast<unsigned long long>(ps.polls),
      static_cast<unsigned long long>(ps.rounds), wall_s);
  auto e2e = [&](const char* name, double v, const char* unit,
                 std::string base) {
    result_.end_to_end.push_back({name, v, unit, std::move(base)});
  };
  e2e("setup_s", median(setup_s_), "s",
      strformat("median of %zu set-ups of %zu agents, %.3f-%.3f s",
                setup_s_.size(), spec_.agents,
                *std::min_element(setup_s_.begin(), setup_s_.end()),
                *std::max_element(setup_s_.begin(), setup_s_.end())));
  e2e("polls_per_s", polls / wall_s, "1/s", polls_base);
  const double windows_p50 =
      std::accumulate(ps.window_p50_ms.begin(), ps.window_p50_ms.end(), 0.0) /
      static_cast<double>(ps.window_p50_ms.size());
  e2e("poll_ms_p50", windows_p50, "ms",
      strformat("mean over %zu windows of >= %zu of the %.0f sampled polls",
                ps.window_p50_ms.size(), kWindowSamples, sampled));
  e2e("poll_ms_p99", median(ps.window_p99_ms), "ms",
      strformat("median over %zu windows of >= %zu of the %.0f sampled polls",
                ps.window_p99_ms.size(), kWindowSamples, sampled));
  e2e("entries_per_s", static_cast<double>(ps.accepted) / wall_s, "1/s",
      strformat("%llu entries accepted in %.3f s of pool rounds",
                static_cast<unsigned long long>(ps.accepted), wall_s));
  e2e("peak_rss_mb",
      static_cast<double>(rss_kb_ ? rss_kb_ : peak_rss_kb()) / 1024.0, "MB",
      rss_kb_ ? strformat("VmHWM after %zu timed rounds", spec_.rss_rounds)
              : strformat("VmHWM at the end: fewer than %zu timed rounds",
                          spec_.rss_rounds));

  result_.info.push_back(strformat(
      "off CPU: %.1f%% of the round wall on the critical path, %.0f of %.0f "
      "sampled polls lost > %.2f ms; polls over the rounds' on-CPU time "
      "%.1f/s; runnable but not running for %.2f%% of the sampled polls' "
      "wall time; p50 and p99 of all sampled polls %.4f and %.4f ms, on "
      "wall time %.4f and %.4f ms",
      100.0 * (1.0 - ps.on_cpu_wall_ns / static_cast<double>(ps.wall_ns)),
      static_cast<double>(ps.preempted), sampled, ms(kMaxOffCpuNs),
      polls / (ps.on_cpu_wall_ns / 1e9),
      ps.sampled_wall_ns > 0
          ? 100.0 * ps.sampled_preempted_ns / ps.sampled_wall_ns
          : 0.0,
      percentile(ps.latency_ms, 0.50), percentile(ps.latency_ms, 0.99),
      percentile(ps.wall_latency_ms, 0.50),
      percentile(ps.wall_latency_ms, 0.99)));
  result_.attempted =
      std::max<std::uint64_t>(1, ps.polls + (tail ? tail->polls : 0));
  const double error_rate =
      static_cast<double>(result_.failed) /
      static_cast<double>(result_.attempted);
  result_.info.push_back(strformat(
      "error_rate %.6f (%llu of %llu polls differ from the expectation)",
      error_rate, static_cast<unsigned long long>(result_.failed),
      static_cast<unsigned long long>(result_.attempted)));
  if (spec_.kind == Kind::kDailyUpdate) {
    result_.info.push_back(strformat(
        "update_ms %.3f ms (median of %zu days: policy_store::apply + "
        "VerifierPool::push_revision; median delta %.0f lines on a %zu-line "
        "policy)",
        median(update_ms_), update_ms_.size(), median(delta_lines_),
        policy_.entry_count()));
  }
  if (!opt_.trace) return;

  // ---- per-layer metrics (traced run) ----
  auto layer = [&](const char* name, double v, const char* unit,
                   std::string base) {
    result_.per_layer.push_back({name, v, unit, std::move(base)});
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double rounds = static_cast<double>(ps.rounds);
  layer("pool.round_ms", per(ms(ps.wall_ns), rounds), "ms",
        strformat("%llu rounds", static_cast<unsigned long long>(ps.rounds)));
  layer("pool.shard_busy_ratio",
        per(ps.shard_busy_ns, static_cast<double>(ps.shards) *
                                  static_cast<double>(ps.wall_ns)),
        "ratio", strformat("%zu shards x %.3f s", ps.shards, wall_s));
  layer("pool.join_wait_ms", per(ps.join_wait_ns / 1e6, rounds), "ms",
        strformat("%llu rounds", static_cast<unsigned long long>(ps.rounds)));
  layer("pool.shard_polls_max_over_mean",
        per(ps.max_over_mean, static_cast<double>(ps.polled_rounds)), "ratio",
        strformat("%zu shards, %llu rounds", ps.shards,
                  static_cast<unsigned long long>(ps.polled_rounds)));
  layer("pool.preempted_poll_share",
        per(static_cast<double>(ps.preempted), sampled), "ratio",
        strformat("%.0f sampled polls; off CPU > %.2f ms", sampled,
                  ms(kMaxOffCpuNs)));
  layer("pool.on_cpu_polls_per_s", per(polls, ps.on_cpu_wall_ns / 1e9), "1/s",
        polls_base + strformat(", %.3f s of them on CPU on the critical path",
                               ps.on_cpu_wall_ns / 1e9));
  layer("agent.busy_ms_per_poll", per(ps.agent_busy_ns / 1e6, polls), "ms",
        polls_base);
  layer("agent.bytes_per_poll", per(ps.bytes, polls), "B", polls_base);
  layer("agent.entries_per_poll", per(ps.shipped, polls), "count",
        polls_base);
  const double self_ms = per(ps.self_ns / 1e6, sampled);
  layer("verifier.self_ms_per_poll", self_ms, "ms",
        strformat("%.0f sampled polls", sampled));

  // Replayed stages: 1%-trimmed means of one call per poll.
  const StageSamples& st = replayer_->samples();
  const std::string replay_base = strformat(
      "%llu replayed polls, 1%% trimmed",
      static_cast<unsigned long long>(st.polls));
  const std::string entry_base = strformat(
      "%llu replayed entries, 1%% trimmed",
      static_cast<unsigned long long>(st.entries));
  const double probes = static_cast<double>(
      (stats_after_.index_hits - stats_before_.index_hits) +
      (stats_after_.index_misses - stats_before_.index_misses));
  const double cache_hits =
      static_cast<double>(stats_after_.cache_hits - stats_before_.cache_hits);
  const double cache_total =
      cache_hits + static_cast<double>(stats_after_.cache_misses -
                                       stats_before_.cache_misses);
  const double sign_us = trimmed_mean(st.quote_sign_ns) / 1e3;
  const double verify_us = trimmed_mean(st.quote_verify_ns) / 1e3;
  const double append_us = trimmed_mean(st.audit_append_ns) / 1e3;
  const double encode_request_us = trimmed_mean(st.encode_request_ns) / 1e3;
  const double encode_response_us = trimmed_mean(st.encode_response_ns) / 1e3;
  const double decode_us = trimmed_mean(st.decode_ns) / 1e3;
  const double template_ns = trimmed_rate(st.template_ns);
  const double fold_ns = trimmed_rate(st.fold_ns);
  const double check_ns = trimmed_rate(st.check_ns);
  const double accepted_per_poll = per(static_cast<double>(ps.accepted), polls);
  const double probes_per_poll = per(probes, polls);
  // The verifier's share of a poll that the replayed stages account for:
  // per-call stages once per poll, per-entry stages scaled by the live
  // run's entries and index probes per poll.
  const double verifier_stages_ms =
      (decode_us + encode_request_us + verify_us + append_us) / 1e3 +
      (template_ns + fold_ns) * accepted_per_poll / 1e6 +
      check_ns * probes_per_poll / 1e6;
  layer("verifier.unattributed_ms_per_poll", self_ms - verifier_stages_ms, "ms",
        "self time minus the replayed verifier stages");
  layer("tpm.quote_sign_us", sign_us, "us", replay_base);
  layer("tpm.quote_verify_us", verify_us, "us", replay_base);
  layer("audit.append_us", append_us, "us", replay_base);
  layer("messages.encode_us_per_poll", encode_request_us + encode_response_us,
        "us", replay_base);
  layer("messages.decode_us_per_poll", decode_us, "us", replay_base);
  layer("crypto.template_hash_ns_per_entry", template_ns, "ns", entry_base);
  layer("crypto.pcr_fold_ns_per_entry", fold_ns, "ns", entry_base);
  layer("policy_index.check_ns", check_ns, "ns",
        strformat("%llu replayed checks",
                  static_cast<unsigned long long>(st.checks)));
  layer("policy_index.probes_per_poll", probes_per_poll, "count",
        strformat("%.0f live index probes", probes));
  layer("appraisal_cache.hit_ratio", per(cache_hits, cache_total), "ratio",
        strformat("%.0f live cache lookups", cache_total));
  const std::string days_base = strformat("%zu days", update_ms_.size());
  layer("policy_store.diff_ms", median(diff_ms_), "ms", days_base);
  layer("policy_store.apply_ms", median(apply_ms_), "ms", days_base);
  layer("pool.push_revision_ms", median(push_ms_), "ms", days_base);
  layer("update_ms", median(update_ms_), "ms", days_base);
  const auto& pst = f_->pipeline.stats();
  layer("alert_pipeline.raw_alerts", static_cast<double>(pst.raw), "count",
        "whole run");
  layer("alert_pipeline.emitted", static_cast<double>(pst.emitted), "count",
        "whole run");
  layer("alert_pipeline.incidents", static_cast<double>(pst.opened), "count",
        "whole run");
  layer("alert_pipeline.error_day_round_ms", error_day_round_ms_, "ms",
        spec_.kind == Kind::kDailyUpdate ? "first round of the error day"
                                         : "no error day");
  layer("substrate.workload_ms_per_round",
        per(ms(substrate_ns_), static_cast<double>(rounds_.size())), "ms",
        strformat("%zu rounds, whole run", rounds_.size()));
  layer("setup.agent_ms", median(setup_agent_ms_), "ms",
        strformat("median of %zu set-ups", setup_agent_ms_.size()));
  layer("setup.policy_build_ms", median(setup_policy_ms_), "ms",
        strformat("median of %zu set-ups", setup_policy_ms_.size()));
  // The tail has no error day (its frozen agents make polls cheap), so
  // the traced side leaves it out too.
  auto pps_no_error_day = [&](const PhaseStats& p) {
    return per(static_cast<double>(p.polls_no_error_day),
               static_cast<double>(p.wall_ns_no_error_day) / 1e9);
  };
  const double traced_pps = pps_no_error_day(ps);
  const double untraced_pps = tail ? pps_no_error_day(*tail) : 0;
  layer("trace.polls_per_s_ratio", per(traced_pps, untraced_pps), "ratio",
        strformat("traced %.1f vs untraced tail %.1f polls/s", traced_pps,
                  untraced_pps));
  layer("error_rate", error_rate, "ratio",
        strformat("%llu polls",
                  static_cast<unsigned long long>(result_.attempted)));
}

// ------------------------------------------------------------------ run

RunResult Bench::run() {
  origin_ns_ = now_ns();
  make_inputs();
  const std::int64_t inputs_done = now_ns();
  for (std::size_t k = 0; k < spec_.setups; ++k) {
    const bool last = k + 1 == spec_.setups;
    f_.reset();  // one fleet alive at a time
    rounds_.clear();
    f_ = build(opt_.trace && last);
    seen_.assign(f_->probe->shard_count(), 0);
    expected_entries_.assign(spec_.agents, 1);  // boot_aggregate
    expected_revision_ = 1;
    workload_round_ = 0;
    // The image every machine runs at boot (node work, not set-up).
    const std::int64_t s0 = now_ns();
    const std::int64_t t0 = s0 - f_->fleet_ns - f_->policy_ns - f_->attach_ns;
    if (spec_.kind != Kind::kSteadyPoll) {
      for (std::size_t i = 0; i < spec_.agents; ++i) {
        for (const std::string& p : paths_) exec(i, p);
      }
    }
    const std::int64_t s1 = now_ns();
    substrate_ns_ = s1 - s0;
    pool_round(false);  // enrolment poll: every agent's first full walk
    const std::int64_t t1 = now_ns();
    f_->warmup_ns = t1 - s1;
    // Set-up: the fleet, the first policy push, the taps and the
    // enrolment round; neither the operator deriving the policy nor the
    // nodes running their image count.
    setup_s_.push_back(static_cast<double>(f_->fleet_ns + f_->policy_ns +
                                           f_->attach_ns + f_->warmup_ns) /
                       1e9);
    setup_agent_ms_.push_back(ms(f_->fleet_ns) /
                              static_cast<double>(spec_.agents));
    setup_policy_ms_.push_back(ms(f_->policy_ns));
    if (last && f_->probe->tracing()) {
      SpanLog& spans = f_->probe->spans();
      spans.add(0, "setup.fleet", t0, t0 + f_->fleet_ns);
      spans.add(0, "setup.policy_build", t0 + f_->fleet_ns,
                t0 + f_->fleet_ns + f_->policy_ns);
      spans.add(0, "substrate.workload", s0, s1);
      spans.add(0, "setup.warmup_round", s1, t1);
    }
  }
  if (opt_.trace) {
    replayer_ = std::make_unique<Replayer>(*f_->fleet, &f_->probe->spans());
    if (spec_.kind == Kind::kDailyUpdate) {
      replay_index_ = keylime::PolicyIndex::build(policy_, expected_revision_);
    }
  }

  const std::int64_t setups_done = now_ns();
  stats_before_ = f_->fleet->pool().stats();
  const bool daily = spec_.kind == Kind::kDailyUpdate;
  const std::size_t days = std::max(
      spec_.min_days, static_cast<std::size_t>(opt_.seconds / kSecondsPerDay));
  run_phase(0, opt_.seconds, spec_.min_sampled, daily ? days : 0);
  stats_after_ = f_->fleet->pool().stats();
  if (opt_.trace && !replay_index_) {
    replay_index_ = keylime::PolicyIndex::build(policy_, expected_revision_);
  }
  if (opt_.trace) {
    // Replay the traced phase now, under the policy it ran with.
    replayer_->replay_pending(f_->probe->captures(), *replay_index_);
  }
  std::unique_ptr<PhaseStats> tail;
  if (opt_.trace) {
    // The untraced tail: the tracing overhead is the traced phase's
    // polls/s against this one's, same process, same fleet.
    f_->probe->set_tracing(false);
    run_phase(1, opt_.seconds / 2, 0, daily ? 1 : 0);
    f_->probe->set_tracing(true);
    tail = std::make_unique<PhaseStats>(phase_stats(1));
  }
  const std::int64_t loop_done = now_ns();
  check_outputs();
  result_.info.push_back(strformat(
      "run wall: inputs %.2f s, set-ups %.2f s, workload %.2f s, checks %.2f s",
      ms(inputs_done - origin_ns_) / 1e3, ms(setups_done - inputs_done) / 1e3,
      ms(loop_done - setups_done) / 1e3, ms(now_ns() - loop_done) / 1e3));
  const PhaseStats main = phase_stats(0);
  if (main.latency_ms.size() < spec_.min_sampled) {
    fail(strformat("only %zu latency samples, need %zu",
                   main.latency_ms.size(), spec_.min_sampled));
  }
  report(main, tail.get());
  if (opt_.trace && !opt_.out_dir.empty()) {
    const std::string path = strformat(
        "%s/trace-%s-seed%llu.json", opt_.out_dir.c_str(),
        opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed));
    if (f_->probe->spans().write_chrome_trace(path, origin_ns_)) {
      result_.info.push_back(strformat("span file: %s (%zu spans)",
                                       path.c_str(),
                                       f_->probe->spans().size()));
    } else {
      fail("cannot write span file " + path);
    }
  }
  return result_;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"steady-poll", "reboot-walk",
                                                 "daily-update"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  Bench bench(spec_for(options.workload, options.smoke), options);
  return bench.run();
}

}  // namespace fleetbench

// cia_metrics — run a chaos scenario with full telemetry attached and
// export the metrics snapshot / span trace, or diff two saved snapshots.
//
//   cia_metrics run [--scenario NAME] [--nodes N] [--days D] [--seed S]
//                   [--format prom|json|trace|all] [--out PREFIX]
//       Drive one chaos script (NAME as in scenarios/chaos-NAME.json)
//       with a metrics registry and tracer wired through every
//       component, then write the result: Prometheus text
//       (PREFIX.prom), canonical metrics JSON (PREFIX.json), and/or
//       Chrome trace_event JSON
//       (PREFIX.trace.json — load in chrome://tracing or Perfetto).
//       Without --out, the selected format is printed to stdout
//       (--format all requires --out).
//
//   cia_metrics diff BEFORE.json AFTER.json
//       Line-oriented diff of two saved metrics snapshots: one line per
//       added/removed/changed series, counters and gauges with deltas.
//       Exit status 1 when the snapshots differ.
//
//   cia_metrics incidents [--agents N] [--shards N] [--rounds N] [--seed S]
//                         [--format table|json|prom] [--out PREFIX]
//       Drive the alert-storm scenario with the alert pipeline attached
//       and render the resulting incidents: a human triage table
//       (severity, subject, affected-agent width, suppressed tallies),
//       the canonical incident-snapshot JSON (PREFIX.incidents.json),
//       or the cia_alert_* / cia_incident_* Prometheus series.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/log.hpp"
#include "experiments/chaos_experiment.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/alert_pipeline/incident.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace cia;
using namespace cia::experiments;

struct Args {
  std::string scenario = "wan-loss";
  std::size_t nodes = 6;
  int days = 5;
  std::uint64_t seed = 42;
  std::string format = "prom";
  bool format_set = false;  // explicit --format (commands differ in default)
  std::string out;  // path prefix; empty = stdout
  // incidents view
  std::size_t agents = 0;  // 0 = storm default
  std::size_t shards = 0;
  std::size_t rounds = 0;
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      args.scenario = next();
    } else if (arg == "--nodes") {
      args.nodes = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--days") {
      args.days = std::atoi(next());
    } else if (arg == "--seed") {
      args.seed =
          static_cast<std::uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--format") {
      args.format = next();
      args.format_set = true;
    } else if (arg == "--out") {
      args.out = next();
    } else if (arg == "--agents") {
      args.agents = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--shards") {
      args.shards = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--rounds") {
      args.rounds = static_cast<std::size_t>(std::atoi(next()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// Emit one artifact: to PREFIX+suffix when a prefix is set, else stdout.
bool emit(const Args& args, const char* suffix, const std::string& content) {
  if (args.out.empty()) {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  const std::string path = args.out + suffix;
  if (!write_file(path, content)) return false;
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(), content.size());
  return true;
}

int cmd_run(const Args& args) {
  if (args.format != "prom" && args.format != "json" &&
      args.format != "trace" && args.format != "all") {
    std::fprintf(stderr, "bad --format %s (prom|json|trace|all)\n",
                 args.format.c_str());
    return 2;
  }
  if (args.format == "all" && args.out.empty()) {
    std::fprintf(stderr, "--format all requires --out PREFIX\n");
    return 2;
  }

  SimClock trace_clock;  // placeholder; the rig rebinds to its own clock
  telemetry::MetricsRegistry registry;
  telemetry::attach_log_counter(&registry);
  ChaosOptions options;
  options.scenario = args.scenario;
  options.nodes = args.nodes;
  options.days = args.days;
  options.seed = args.seed;
  options.archive.base_package_count = 200;
  options.metrics = &registry;
  telemetry::Tracer tracer(&trace_clock);
  options.tracer = &tracer;
  const ChaosReport report = run_chaos_experiment(options);
  telemetry::attach_log_counter(nullptr);
  if (!report.valid) {
    std::fprintf(stderr, "scenario %s failed to run (unknown name?)\n",
                 args.scenario.c_str());
    return 1;
  }

  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  std::fprintf(stderr,
               "%s: %zu polls, %zu comms alerts, %llu retries, "
               "%zu metric series, %zu spans (%zu dropped)\n",
               report.scenario.c_str(), report.polls, report.comms_alerts,
               static_cast<unsigned long long>(report.retries),
               snapshot.points.size(), tracer.finished().size(),
               tracer.dropped());

  bool ok = true;
  if (args.format == "prom" || args.format == "all") {
    ok &= emit(args, ".prom", telemetry::to_prometheus(snapshot));
  }
  if (args.format == "json" || args.format == "all") {
    ok &= emit(args, ".json", telemetry::to_json(snapshot).dump() + "\n");
  }
  if (args.format == "trace" || args.format == "all") {
    ok &= emit(args, ".trace.json", tracer.chrome_trace().dump() + "\n");
  }
  return ok ? 0 : 1;
}

/// Human triage table over an incident snapshot: one row per incident,
/// widest (most affected agents) first within each severity.
std::string render_incident_table(
    const keylime::alert_pipeline::IncidentSnapshot& snapshot) {
  std::ostringstream out;
  out << "  ID  SEVERITY             STATE   AGENTS  ALERTS  SUPP.  "
         "FIRST..LAST  SUBJECT\n";
  for (const keylime::alert_pipeline::Incident& inc : snapshot.incidents) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%4llu  %-19s  %-6s  %6llu  %6llu  %5llu  %5llu..%-5llu  %s",
                  static_cast<unsigned long long>(inc.id),
                  severity_name(inc.severity), inc.open ? "open" : "closed",
                  static_cast<unsigned long long>(inc.affected_agents),
                  static_cast<unsigned long long>(inc.alerts),
                  static_cast<unsigned long long>(inc.suppressed),
                  static_cast<unsigned long long>(inc.first_seen),
                  static_cast<unsigned long long>(inc.last_seen),
                  inc.subject.empty() ? inc.reason.c_str()
                                      : inc.subject.c_str());
    out << line << "\n";
    out << "      sample agents:";
    for (const std::string& id : inc.sample_agents) out << " " << id;
    out << "\n";
  }
  return out.str();
}

int cmd_incidents(Args args) {
  if (!args.format_set) args.format = "table";
  if (args.format != "table" && args.format != "json" &&
      args.format != "prom") {
    std::fprintf(stderr, "bad --format %s (table|json|prom)\n",
                 args.format.c_str());
    return 2;
  }

  telemetry::MetricsRegistry registry;
  StormOptions options;
  options.seed = args.seed;
  if (args.agents > 0) options.agents = args.agents;
  if (args.shards > 0) options.shards = args.shards;
  if (args.rounds > 0) options.storm_rounds = args.rounds;
  options.metrics = &registry;
  const StormReport report = run_alert_storm(options);
  if (!report.status.ok()) {
    std::fprintf(stderr, "storm scenario failed: %s\n",
                 report.status.error().message.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "storm: %zu agents, %llu raw alerts -> %llu emitted, "
               "%llu incidents (%llu open)\n",
               report.agents,
               static_cast<unsigned long long>(report.raw_alerts),
               static_cast<unsigned long long>(report.emitted_alerts),
               static_cast<unsigned long long>(report.incidents_opened),
               static_cast<unsigned long long>(report.incidents_open));

  if (args.format == "prom") {
    return emit(args, ".prom", telemetry::to_prometheus(registry.snapshot()))
               ? 0
               : 1;
  }
  if (args.format == "json") {
    return emit(args, ".incidents.json", report.incident_stream + "\n") ? 0
                                                                        : 1;
  }
  // The table view re-decodes the canonical stream — doubling as an
  // end-to-end exercise of the snapshot codec on every invocation.
  auto doc = json::parse(report.incident_stream);
  if (!doc.ok()) {
    std::fprintf(stderr, "incident stream unparsable: %s\n",
                 doc.error().to_string().c_str());
    return 1;
  }
  auto snapshot = keylime::alert_pipeline::snapshot_from_json(doc.value());
  if (!snapshot.ok()) {
    std::fprintf(stderr, "incident stream invalid: %s\n",
                 snapshot.error().to_string().c_str());
    return 1;
  }
  return emit(args, ".incidents.txt", render_incident_table(snapshot.value()))
             ? 0
             : 1;
}

Result<telemetry::MetricsSnapshot> load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return err(Errc::kNotFound, "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = json::parse(buf.str());
  if (!doc.ok()) return doc.error();
  return telemetry::snapshot_from_json(doc.value());
}

int cmd_diff(const std::string& before_path, const std::string& after_path) {
  auto before = load_snapshot(before_path);
  if (!before.ok()) {
    std::fprintf(stderr, "%s: %s\n", before_path.c_str(),
                 before.error().to_string().c_str());
    return 2;
  }
  auto after = load_snapshot(after_path);
  if (!after.ok()) {
    std::fprintf(stderr, "%s: %s\n", after_path.c_str(),
                 after.error().to_string().c_str());
    return 2;
  }
  const std::string diff =
      telemetry::diff_snapshots(before.value(), after.value());
  if (diff.empty()) {
    std::printf("snapshots identical (%zu series)\n",
                before.value().points.size());
    return 0;
  }
  std::fputs(diff.c_str(), stdout);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  cia::set_log_level(cia::LogLevel::kError);
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "run") {
    return cmd_run(parse_args(argc, argv, 2));
  }
  if (cmd == "diff" && argc == 4) {
    return cmd_diff(argv[2], argv[3]);
  }
  if (cmd == "incidents") {
    return cmd_incidents(parse_args(argc, argv, 2));
  }
  std::fprintf(stderr,
               "usage: cia_metrics run [--scenario NAME] [--nodes N] "
               "[--days D] [--seed S] [--format prom|json|trace|all] "
               "[--out PREFIX]\n"
               "       cia_metrics diff BEFORE.json AFTER.json\n"
               "       cia_metrics incidents [--agents N] [--shards N] "
               "[--rounds N] [--seed S] [--format table|json|prom] "
               "[--out PREFIX]\n");
  return 2;
}

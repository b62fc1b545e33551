// cia_sim — command-line driver for the paper's experiments.
//
//   cia_sim fp-baseline [--days N] [--seed S]
//       §III-B: benign week under a static policy (unattended upgrades +
//       SNAP), reporting the false-positive causes.
//
//   cia_sim dynamic [--days N] [--period daily|weekly] [--inject-race]
//                   [--seed S]
//       §III-D: the dynamic-policy-generation run; prints the figures the
//       run supports (Fig. 3-5 for daily runs) and the effectiveness
//       summary.
//
//   cia_sim attacks [--seed S]
//       §IV: the eight-attack Table II matrix (basic/adaptive/mitigated).
//
//   cia_sim table1 [--seed S]
//       Table I: daily (31d) vs weekly (35d) update-cost summary.
//
//   Fleet campaigns (pool fleets, churn, alert storms, chaos scripts)
//   run from scenario files: cia_scenario run scenarios/NAME.json.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/log.hpp"
#include "experiments/report.hpp"

namespace {

using namespace cia;
using namespace cia::experiments;

struct Args {
  int days = -1;
  std::uint64_t seed = 42;
  std::string period = "daily";
  bool inject_race = false;
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
    if (arg == "--days") {
      args.days = std::atoi(next());
    } else if (arg == "--seed") {
      args.seed = static_cast<std::uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--period") {
      args.period = next();
    } else if (arg == "--inject-race") {
      args.inject_race = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

int cmd_fp_baseline(const Args& args) {
  FpBaselineOptions options;
  options.seed = args.seed;
  if (args.days > 0) options.days = args.days;
  const auto result = run_fp_baseline(options);
  std::printf("%s\n", render_fp_baseline(result).c_str());
  return 0;
}

int cmd_dynamic(const Args& args) {
  DynamicRunOptions options;
  options.seed = args.seed;
  options.update_period_days = (args.period == "weekly") ? 7 : 1;
  options.days = args.days > 0 ? args.days
                               : (options.update_period_days == 7 ? 35 : 31);
  if (args.inject_race) {
    options.inject_mirror_race = true;
    options.race_day = options.days - 1;
  }
  const auto run = run_dynamic_policy_experiment(options);
  if (options.update_period_days == 1) {
    std::printf("%s\n", render_fig3(run).c_str());
    std::printf("%s\n", render_fig4(run).c_str());
    std::printf("%s\n", render_fig5(run).c_str());
  }
  std::printf("run: %d days, %d updates, %zu false positives (%zu from the "
              "injected incident), %d reboots\n",
              run.days, run.updates_run, run.false_positives,
              run.incident_false_positives, run.reboots);
  return 0;
}

int cmd_attacks(const Args& args) {
  FnExperimentOptions options;
  options.seed = args.seed;
  const auto reports = run_fn_experiment(options);
  std::printf("%s\n", render_table2(reports).c_str());
  return 0;
}

int cmd_table1(const Args& args) {
  DynamicRunOptions daily_options;
  daily_options.seed = args.seed;
  daily_options.days = 31;
  const auto daily = run_dynamic_policy_experiment(daily_options);
  DynamicRunOptions weekly_options;
  weekly_options.seed = args.seed + 1;
  weekly_options.days = 35;
  weekly_options.update_period_days = 7;
  const auto weekly = run_dynamic_policy_experiment(weekly_options);
  std::printf("%s\n", render_table1(daily, weekly).c_str());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: cia_sim <command> [flags]\n"
               "  fp-baseline [--days N] [--seed S]\n"
               "  dynamic [--days N] [--period daily|weekly] [--inject-race]"
               " [--seed S]\n"
               "  attacks [--seed S]\n"
               "  table1 [--seed S]\n"
               "fleet campaigns: cia_scenario run scenarios/NAME.json"
               " (see docs/SCENARIOS.md)\n");
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  if (argc < 2) {
    usage();
    return 2;
  }
  static const std::map<std::string, int (*)(const Args&)> kCommands = {
      {"fp-baseline", cmd_fp_baseline},
      {"dynamic", cmd_dynamic},
      {"attacks", cmd_attacks},
      {"table1", cmd_table1},
  };
  const auto command = kCommands.find(argv[1]);
  if (command == kCommands.end()) {
    usage();
    return 2;
  }
  return command->second(parse_args(argc, argv, 2));
}

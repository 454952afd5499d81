// cocg_schedfuzz — deterministic schedule record/replay and the
// invariant-checking scheduler fuzzer (src/schedcheck).
//
//   cocg_schedfuzz record <out.sched> [scenario flags]
//   cocg_schedfuzz replay <in.sched> [--strict] [--report-out r.json]
//   cocg_schedfuzz fuzz [base.sched] [scenario flags] [--variants N]
//                       [--fuzz-seed S] [--max-mutations M]
//                       [--keep K] [--out-dir DIR]
//   cocg_schedfuzz minimize <in.sched> <out.sched> [--max-runs N]
//
// Scenario flags (record, and fuzz without a base schedule):
//   --shards N --threads N
//   --policy round_robin|power_of_two|region_affinity
//   --servers N --gpus N --minutes N --games a,b,c --rate R --seed S
//
// --fault double_host_window arms the planted bug (fuzzer validation).
//
// Replay is self-contained: the scenario is reconstructed from the
// schedule's meta block, so a failing artifact replays from the file
// alone. Exit codes: 0 clean, 2 usage/load error, 3 invariant violation
// (replay) or failing variants found (fuzz).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_parse.h"
#include "schedcheck/fault.h"
#include "schedcheck/fuzz.h"
#include "schedcheck/harness.h"
#include "schedcheck/minimize.h"
#include "schedcheck/schedule.h"

namespace {

using namespace cocg;

int usage(std::ostream& err) {
  err << "usage: cocg_schedfuzz <record|replay|fuzz|minimize> ...\n"
         "  record <out.sched> [scenario flags]\n"
         "  replay <in.sched> [--strict] [--report-out r.json]\n"
         "  fuzz [base.sched] [scenario flags] [--variants N]\n"
         "       [--fuzz-seed S] [--max-mutations M] [--keep K]\n"
         "       [--out-dir DIR]\n"
         "  minimize <in.sched> <out.sched> [--max-runs N]\n"
         "scenario flags: --shards N --threads N\n"
         "  --policy P --servers N --gpus N --minutes N --games a,b\n"
         "  --rate R --seed S   (--fault double_host_window plants the bug)\n"
         "exit: 0 clean, 2 usage/load error, 3 violation/failures found\n";
  return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream is(csv);
  while (std::getline(is, cur, ',')) {
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

/// Consumes scenario flags from `args` (erasing what it takes); leaves
/// everything else for the subcommand parser.
void parse_scenario_flags(std::vector<std::string>& args,
                          schedcheck::Scenario& sc) {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::runtime_error(a + " expects a value");
      }
      return args[++i];
    };
    if (a == "--shards") sc.shards = tools::parse_positive_int(a, next());
    else if (a == "--threads") sc.threads = tools::parse_positive_int(a, next());
    else if (a == "--policy") {
      const std::string v = next();
      const auto p = fleet::parse_router_policy(v);
      if (!p) throw std::runtime_error("unknown policy '" + v + "'");
      sc.policy = *p;
    } else if (a == "--servers") sc.servers = tools::parse_positive_int(a, next());
    else if (a == "--gpus") sc.gpus = tools::parse_positive_int(a, next());
    else if (a == "--minutes") sc.minutes = tools::parse_positive_int(a, next());
    else if (a == "--games") sc.games = split_csv(next());
    else if (a == "--rate") sc.arrivals_per_hour = tools::parse_positive_double(a, next());
    else if (a == "--seed") sc.seed = tools::parse_u64(a, next());
    else if (a == "--fault") {
      const std::string v = next();
      if (v == "double_host_window") {
        schedcheck::set_fault(schedcheck::Fault::kDoubleHostWindow);
      } else if (v == "none") {
        schedcheck::set_fault(schedcheck::Fault::kNone);
      } else {
        throw std::runtime_error("unknown fault '" + v + "'");
      }
    } else {
      rest.push_back(a);
    }
  }
  args = std::move(rest);
}

void print_stats(const schedcheck::ReplayStats& st, std::ostream& os) {
  os << "decisions=" << st.decisions << " forced=" << st.forced
     << " freerun=" << st.freerun << " divergences=" << st.divergences
     << " clamped=" << st.clamped << " unconsumed=" << st.unconsumed
     << " wall_points=" << st.wall_points << "\n";
}

int report_outcome(const schedcheck::RunOutcome& out, std::ostream& os) {
  print_stats(out.stats, os);
  if (out.aborted) {
    os << "INVARIANT VIOLATION\n" << schedcheck::describe(out.violations);
    return 3;
  }
  os << "run clean\n";
  return 0;
}

int cmd_record(std::vector<std::string> args) {
  schedcheck::Scenario sc;
  parse_scenario_flags(args, sc);
  if (args.size() != 1) return usage(std::cerr);
  const std::string out_path = args[0];

  schedcheck::RunOutcome out = schedcheck::record_run(sc);
  const int rc = report_outcome(out, std::cout);
  schedcheck::save_schedule(out.recorded, out_path);
  std::cout << "recorded " << out.recorded.total_records()
            << " decision(s) to " << out_path << "\n";
  return rc;
}

int cmd_replay(std::vector<std::string> args) {
  schedcheck::Scenario ignored;
  parse_scenario_flags(args, ignored);  // accepts --fault on replay
  bool strict = false;
  std::string report_out;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--strict") {
      strict = true;
    } else if (a == "--report-out") {
      if (i + 1 >= args.size()) return usage(std::cerr);
      report_out = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown flag: " << a << "\n";
      return usage(std::cerr);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 1) return usage(std::cerr);

  const schedcheck::Schedule schedule =
      schedcheck::load_schedule(positional[0]);
  const schedcheck::Scenario sc = schedcheck::scenario_from_meta(schedule);
  schedcheck::RunOutcome out = schedcheck::replay_run(sc, schedule, strict);
  const int rc = report_outcome(out, std::cout);
  if (!report_out.empty() && !out.aborted) {
    std::ofstream os(report_out);
    if (!os) throw std::runtime_error("cannot open " + report_out);
    os << out.report;
    std::cout << "wrote replay report to " << report_out << "\n";
  }
  return rc;
}

int cmd_fuzz(std::vector<std::string> args) {
  schedcheck::Scenario sc;
  parse_scenario_flags(args, sc);
  schedcheck::FuzzOptions opts;
  std::string out_dir = "schedfuzz-failures";
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::runtime_error(a + " expects a value");
      }
      return args[++i];
    };
    if (a == "--variants") opts.variants = tools::parse_positive_int(a, next());
    else if (a == "--fuzz-seed") opts.seed = tools::parse_u64(a, next());
    else if (a == "--max-mutations") opts.max_mutations = tools::parse_positive_int(a, next());
    else if (a == "--keep") opts.keep_failures = tools::parse_positive_int(a, next());
    else if (a == "--out-dir") out_dir = next();
    else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown flag: " << a << "\n";
      return usage(std::cerr);
    } else positional.push_back(a);
  }
  if (positional.size() > 1) return usage(std::cerr);

  schedcheck::Schedule base;
  if (positional.size() == 1) {
    base = schedcheck::load_schedule(positional[0]);
    sc = schedcheck::scenario_from_meta(base);
    std::cout << "base schedule: " << positional[0] << " ("
              << base.total_records() << " records)\n";
  } else {
    std::cout << "recording base schedule...\n";
    schedcheck::RunOutcome rec = schedcheck::record_run(sc);
    if (rec.aborted) {
      std::cout << "natural run violates invariants — nothing to fuzz:\n"
                << schedcheck::describe(rec.violations);
      return 3;
    }
    base = rec.recorded;
    std::cout << "recorded " << base.total_records() << " decision(s)\n";
  }

  const schedcheck::FuzzResult result = schedcheck::fuzz(
      base, opts, [&sc](const schedcheck::Schedule& variant) {
        return schedcheck::replay_run(sc, variant);
      });
  std::cout << "fuzz: " << result.variants_run << " variant(s), "
            << result.mutations_applied << " mutation(s), "
            << result.failures << " failure(s)\n";
  if (result.failures == 0) return 0;

  std::filesystem::create_directories(out_dir);
  for (const auto& f : result.kept) {
    const std::string path =
        out_dir + "/variant-" + std::to_string(f.variant) + ".sched";
    schedcheck::save_schedule(f.schedule, path);
    std::cout << path << ":\n" << schedcheck::describe(f.violations);
  }
  std::cout << "wrote " << result.kept.size() << " failing schedule(s) to "
            << out_dir << "/\n";
  return 3;
}

int cmd_minimize(std::vector<std::string> args) {
  schedcheck::Scenario ignored;
  parse_scenario_flags(args, ignored);  // accepts --fault
  schedcheck::MinimizeOptions opts;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--max-runs") {
      if (i + 1 >= args.size()) return usage(std::cerr);
      opts.max_runs = tools::parse_positive_int(a, args[++i]);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown flag: " << a << "\n";
      return usage(std::cerr);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) return usage(std::cerr);

  const schedcheck::Schedule failing =
      schedcheck::load_schedule(positional[0]);
  const schedcheck::Scenario sc = schedcheck::scenario_from_meta(failing);

  // The failure of interest: replay aborts with the same leading
  // invariant as the input schedule does.
  schedcheck::RunOutcome probe = schedcheck::replay_run(sc, failing);
  if (!probe.aborted) {
    std::cerr << "error: " << positional[0]
              << " replays clean — nothing to minimize\n";
    return 2;
  }
  const std::string invariant = probe.violations.front().invariant;
  std::cout << "minimizing against invariant '" << invariant << "' ("
            << failing.total_records() << " records)\n";

  const schedcheck::MinimizeResult res = schedcheck::minimize(
      failing,
      [&sc, &invariant](const schedcheck::Schedule& candidate) {
        const schedcheck::RunOutcome out =
            schedcheck::replay_run(sc, candidate);
        return out.aborted &&
               out.violations.front().invariant == invariant;
      },
      opts);
  schedcheck::save_schedule(res.schedule, positional[1]);
  std::cout << "minimized to " << res.schedule.total_records()
            << " record(s) in " << res.runs << " run(s)"
            << (res.minimal ? " (1-minimal)" : " (budget exhausted)")
            << "; wrote " << positional[1] << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(std::cerr);
  const std::string cmd = args[0];
  args.erase(args.begin());
  try {
    if (cmd == "record") return cmd_record(std::move(args));
    if (cmd == "replay") return cmd_replay(std::move(args));
    if (cmd == "fuzz") return cmd_fuzz(std::move(args));
    if (cmd == "minimize") return cmd_minimize(std::move(args));
    std::cerr << "unknown command: " << cmd << "\n";
    return usage(std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

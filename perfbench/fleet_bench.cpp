// fleet_bench — one measured run of one benchmark workload.
//
//   fleet_bench --workload steady|overload|paper_fig11 --seed N
//               --seconds S --trace 0|1 [--minutes M] [--inputs K]
//
// A workload is K inputs, each generated from its own sub-seed
// N*K + j: a model training seed, a traffic trace and a fleet seed (or,
// on paper_fig11, a training seed and a platform seed). One cycle
// rebuilds and runs every input once — training, trace generation and
// fleet construction included. A second cycle starts only if it is
// expected to end within S seconds; repetitions of one input must
// produce identical reports. --minutes and --inputs shrink a workload
// for quick checks; they change its inputs.
//
// With --trace 1 the untraced cycles get half of S, then one profiled
// cycle follows (obs stage profiler on, scheduler decorator timing every
// call) and, on the fleet workloads, a single-thread run of the first
// third of the inputs. Both must reproduce the untraced reports byte for
// byte.
//
// The program reaches the simulator only through its public headers: a
// platform::Scheduler decorator around core::CocgScheduler, timed calls
// to core::train_game and traffic::generate_trace, and the counters and
// stage table the fleet report already carries. The last line of stdout
// is one JSON object with every raw measurement; perfbench/run.py turns
// it into the benchmark's metrics (perfbench/README.md lists them).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.h"
#include "core/baselines.h"
#include "core/cocg_scheduler.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "fleet/fleet.h"
#include "game/library.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "platform/cloud_platform.h"
#include "traffic/generator.h"

using namespace cocg;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

std::string num(double v) { return obs::json_number(v); }

// ---------------------------------------------------------------------------
// Scheduler decorator: counts every call, records the admission wait of
// each accepted request and the arrival of each request it has not
// accepted yet, and (when timed) the host time of each call.

class TimedScheduler final : public platform::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<core::CocgScheduler> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  std::string name() const override { return inner_->name(); }

  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override {
    const auto t0 = Clock::now();
    auto placement = inner_->admit(view, req);
    if (timed_) admit_ns.push_back(ns_since(t0));
    ++admit_calls;
    if (placement) {
      waits_ms.push_back(view.now() - req.arrival);
      pending_.erase(req.id.value);
    } else {
      pending_.emplace(req.id.value, req.arrival);
    }
    return placement;
  }

  void control(platform::PlatformView& view) override {
    const int before = inner_->model_replacements();
    const auto t0 = Clock::now();
    inner_->control(view);
    if (!timed_) return;
    const std::uint64_t ns = ns_since(t0);
    control_ns.push_back(ns);
    if (inner_->model_replacements() != before) replace_ns += ns;
  }

  void on_session_start(platform::PlatformView& view, SessionId sid) override {
    const auto t0 = Clock::now();
    inner_->on_session_start(view, sid);
    if (timed_) hooks_ns += ns_since(t0);
  }

  void on_session_end(platform::PlatformView& view, SessionId sid) override {
    const auto t0 = Clock::now();
    inner_->on_session_end(view, sid);
    if (timed_) hooks_ns += ns_since(t0);
  }

  int model_replacements() const { return inner_->model_replacements(); }

  /// Waits, censored at `horizon`, of the requests admit() has seen but
  /// not accepted: they were still queued when the run ended.
  std::vector<DurationMs> censored_waits_ms(TimeMs horizon) const {
    std::vector<DurationMs> out;
    for (const auto& [id, arrival] : pending_) out.push_back(horizon - arrival);
    return out;
  }

  std::uint64_t admit_calls = 0;
  std::vector<DurationMs> waits_ms;  ///< one per accepted request
  std::vector<std::uint64_t> admit_ns;
  std::vector<std::uint64_t> control_ns;
  std::uint64_t replace_ns = 0;
  std::uint64_t hooks_ns = 0;

 private:
  std::unique_ptr<core::CocgScheduler> inner_;
  bool timed_;
  std::map<std::uint64_t, TimeMs> pending_;  ///< request id -> arrival
};

// ---------------------------------------------------------------------------
// Workloads.

// Host time is dominated by CoCG's model retrains, whose count varies
// with the training and trace seeds, so one input is a noisy sample of a
// workload's cost. A run averages K inputs, sized so one cycle fits the
// benchmark's 30-s run; overload uses half the fleet and half the rate of
// a 32-server fleet at 600/h (same overload ratio) for that reason.
struct Workload {
  std::string name;
  int inputs = 1;  ///< K: independent inputs per cycle
  bool fleet = true;
  // Fleet workloads: 4 shards on 2 threads, least-loaded routing,
  // two-GPU servers, one Poisson trace across the five paper games.
  int servers = 0;
  double arrivals_per_hour = 0.0;
  int minutes = 0;
  core::OfflineConfig offline;
};

constexpr int kShards = 4;
constexpr int kThreads = 2;

Workload workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "steady" || name == "overload") {
    // cocg_fleet's offline configuration: what fleet users train with.
    w.offline.profiling_runs = 8;
    w.offline.corpus_runs = 40;
    w.minutes = 60;
    w.inputs = 12;
    // steady runs well under capacity; overload offers more than its
    // fleet serves (it admits about 62%).
    w.servers = name == "steady" ? 128 : 16;
    w.arrivals_per_hour = name == "steady" ? 600.0 : 300.0;
  } else if (name == "paper_fig11") {
    // bench_fig11_throughput's offline configuration and horizon.
    w.fleet = false;
    w.offline.profiling_runs = 14;
    w.offline.corpus_runs = 80;
    w.offline.players = 12;
    w.minutes = 120;
    w.inputs = 32;
  } else {
    throw std::runtime_error("unknown workload: " + name);
  }
  return w;
}

// Seeds of one input's generated parts. Sub-seed 0 (workload seed 0,
// first input) gives bench_fig11_throughput's training (1111) and
// platform (1200) seeds.
std::uint64_t training_seed(std::uint64_t sub) { return 1111 + sub; }
std::uint64_t platform_seed(std::uint64_t sub) { return 1200 + sub; }
std::uint64_t trace_seed(std::uint64_t sub) { return 1300 + sub; }

const std::vector<game::GameSpec>& suite() {
  static const std::vector<game::GameSpec> s = game::paper_suite();
  return s;
}

const game::GameSpec* spec_of(const std::string& name) {
  for (const auto& g : suite()) {
    if (g.name == name) return &g;
  }
  throw std::runtime_error("unknown game: " + name);
}

/// Per-layer numbers of one input (the timings only on a profiled run).
struct Layers {
  std::uint64_t admit_calls = 0;
  std::uint64_t admit_accepted = 0;
  std::vector<std::uint64_t> admit_ns;
  std::vector<std::uint64_t> control_ns;
  std::uint64_t replace_ns = 0;
  std::uint64_t hooks_ns = 0;
  std::uint64_t model_replacements = 0;
  std::vector<std::uint64_t> train_ns;
  std::uint64_t generate_ns = 0;
  obs::StageProfile stages{};
  platform::QuiescenceStats quiescence{};
  fleet::Fleet::ExecutorStats executor{};

  void absorb(const TimedScheduler& s) {
    admit_calls += s.admit_calls;
    admit_accepted += s.waits_ms.size();
    admit_ns.insert(admit_ns.end(), s.admit_ns.begin(), s.admit_ns.end());
    control_ns.insert(control_ns.end(), s.control_ns.begin(),
                      s.control_ns.end());
    replace_ns += s.replace_ns;
    hooks_ns += s.hooks_ns;
    model_replacements += static_cast<std::uint64_t>(s.model_replacements());
  }

  void add_quiescence(const platform::QuiescenceStats& q) {
    quiescence.ticks_skipped += q.ticks_skipped;
    quiescence.fast_forward_windows += q.fast_forward_windows;
    quiescence.resolve_cache_hits += q.resolve_cache_hits;
    quiescence.resolve_cache_misses += q.resolve_cache_misses;
  }

  void merge(const Layers& o) {
    admit_calls += o.admit_calls;
    admit_accepted += o.admit_accepted;
    admit_ns.insert(admit_ns.end(), o.admit_ns.begin(), o.admit_ns.end());
    control_ns.insert(control_ns.end(), o.control_ns.begin(),
                      o.control_ns.end());
    replace_ns += o.replace_ns;
    hooks_ns += o.hooks_ns;
    model_replacements += o.model_replacements;
    train_ns.insert(train_ns.end(), o.train_ns.begin(), o.train_ns.end());
    generate_ns += o.generate_ns;
    for (std::size_t i = 0; i < stages.size(); ++i) {
      stages[i].calls += o.stages[i].calls;
      stages[i].total_ns += o.stages[i].total_ns;
    }
    add_quiescence(o.quiescence);
    executor.steals += o.executor.steals;
    executor.syncs += o.executor.syncs;
    executor.idle_ns += o.executor.idle_ns;
  }
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// The outcome of running one input once.
struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::size_t operations = 0;  ///< arrivals offered, or pair runs
  std::string report;          ///< canonical report, stage costs cleared
  // Simulated results, exact for a fixed sub-seed. On paper_fig11 they
  // cover the CoCG runs.
  std::uint64_t offered = 0;   ///< requests offered
  std::uint64_t admitted = 0;  ///< of those, admitted before the horizon
  double throughput = 0.0;       ///< Eq. 2 T: completed game-seconds
  double qos_violation_s = 0.0;  ///< of those, below the QoS floor
  double cocg_gain_pct = 0.0;  ///< paper_fig11 only
  /// Arrival to admission for every offered request; a request still
  /// queued at the horizon counts with its wait so far.
  std::vector<DurationMs> waits_ms;
  std::vector<Check> checks;
  Layers layers;
};

void check(Rep& rep, const std::string& name, bool ok,
           const std::string& detail) {
  rep.checks.push_back({name, ok, detail});
}

/// Adds one platform's admissions and the scheduler's counts and waits to
/// `rep`; returns the number of requests still queued.
std::size_t account(Rep& rep, const platform::CloudPlatform& cloud,
                    const TimedScheduler& sched, TimeMs horizon) {
  rep.layers.absorb(sched);
  rep.admitted += cloud.sessions_admitted();
  rep.waits_ms.insert(rep.waits_ms.end(), sched.waits_ms.begin(),
                      sched.waits_ms.end());
  const auto censored = sched.censored_waits_ms(horizon);
  rep.waits_ms.insert(rep.waits_ms.end(), censored.begin(), censored.end());
  return censored.size();
}

core::ModelBank train_bank(const Workload& w, std::uint64_t sub,
                           Layers& layers) {
  core::OfflineConfig cfg = w.offline;
  cfg.seed = training_seed(sub);
  core::ModelBank bank;
  for (const auto& spec : suite()) {
    const auto t0 = Clock::now();
    const core::TrainedGame tg = core::train_game(spec, cfg);
    layers.train_ns.push_back(ns_since(t0));
    bank.add_trained(tg);
  }
  return bank;
}

Rep run_fleet(const Workload& w, std::uint64_t sub, int threads,
              bool profiled) {
  const DurationMs horizon = static_cast<DurationMs>(w.minutes) * 60000;
  Rep rep;
  obs::set_profiling_enabled(profiled);

  const auto t0 = Clock::now();
  const core::ModelBank bank = train_bank(w, sub, rep.layers);

  traffic::GeneratorConfig gcfg;
  gcfg.duration_ms = horizon;
  gcfg.arrivals_per_hour = w.arrivals_per_hour;
  for (const auto& g : suite()) gcfg.games.push_back(&g);
  gcfg.seed = trace_seed(sub);
  const auto tg0 = Clock::now();
  const traffic::Trace trace = traffic::generate_trace(gcfg);
  rep.layers.generate_ns = ns_since(tg0);

  fleet::FleetConfig fcfg;
  fcfg.shards = kShards;
  fcfg.threads = threads;
  fcfg.policy = fleet::RouterPolicy::kLeastLoaded;
  fcfg.seed = platform_seed(sub);
  std::vector<TimedScheduler*> scheds(kShards, nullptr);
  fleet::Fleet sim(fcfg, [&](int shard) {
    auto s = std::make_unique<TimedScheduler>(
        std::make_unique<core::CocgScheduler>(bank.instantiate_suite(suite())),
        profiled);
    scheds[static_cast<std::size_t>(shard)] = s.get();
    return s;
  });
  hw::ServerSpec two_gpu;
  two_gpu.num_gpus = 2;
  for (int i = 0; i < w.servers; ++i) sim.add_server(two_gpu);
  sim.add_trace_arrivals(trace, gcfg.games, /*use_recorded_routing=*/false);
  rep.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  sim.run(horizon);
  rep.wall_s = seconds_since(t1);
  obs::set_profiling_enabled(false);

  fleet::FleetReport report = sim.report();
  rep.layers.stages = report.stage_costs;
  rep.layers.add_quiescence(report.quiescence);
  rep.layers.executor = sim.executor_stats();
  report.stage_costs = {};  // host times; everything else is simulated
  rep.report = fleet::report_json(report);

  std::size_t queued = 0;
  for (int i = 0; i < kShards; ++i) {
    queued += account(rep, sim.shard(i), *scheds[static_cast<std::size_t>(i)],
                      horizon);
  }

  std::size_t accounted = 0, routed = 0;
  for (const auto& row : report.shards) {
    accounted += row.completed + row.running_end + row.queued_end;
    routed += row.routed;
  }
  rep.operations = report.arrivals;
  rep.offered = report.arrivals;
  check(rep, "arrivals_offered",
        report.arrivals == trace.events.size() && report.arrivals > 0,
        "fleet " + std::to_string(report.arrivals) + ", trace " +
            std::to_string(trace.events.size()));
  check(rep, "conservation",
        report.arrivals == accounted && routed == report.arrivals,
        "arrivals " + std::to_string(report.arrivals) + ", routed " +
            std::to_string(routed) + ", completed+running+queued " +
            std::to_string(accounted));
  check(rep, "decorator_accepted", rep.layers.admit_accepted == rep.admitted,
        "decorator " + std::to_string(rep.layers.admit_accepted) +
            ", sessions_admitted " + std::to_string(rep.admitted));
  check(rep, "waits_cover_arrivals", rep.waits_ms.size() == report.arrivals,
        std::to_string(rep.waits_ms.size()) + " waits (" +
            std::to_string(queued) + " still queued) for " +
            std::to_string(report.arrivals) + " arrivals");
  rep.throughput = report.throughput;
  rep.qos_violation_s = report.qos_violation_s;
  return rep;
}

// ---------------------------------------------------------------------------
// Fig. 11: three pairs x four schedulers on one single-GPU server, closed
// loop, two simulated hours each (bench_fig11_throughput's experiment).

const std::vector<std::pair<std::string, std::string>>& fig11_pairs() {
  static const std::vector<std::pair<std::string, std::string>> p = {
      {"DOTA2", "Devil May Cry"},
      {"CSGO", "Genshin Impact"},
      {"Genshin Impact", "Contra"}};
  return p;
}

const std::vector<std::string>& fig11_schemes() {
  static const std::vector<std::string> s = {"VBP", "GAugur", "Improved",
                                             "CoCG"};
  return s;
}

// Fig. 11's QoS budget: a baseline competes only if its worst pair
// degrades at most this share of delivered game-time.
constexpr double kQosBudget = 0.08;

std::unique_ptr<platform::Scheduler> baseline(
    const std::string& scheme, std::map<std::string, core::TrainedGame> m) {
  if (scheme == "VBP") return std::make_unique<core::VbpScheduler>(std::move(m));
  if (scheme == "GAugur") {
    return std::make_unique<core::GaugurScheduler>(std::move(m));
  }
  return std::make_unique<core::ImprovedScheduler>(std::move(m));
}

Rep run_fig11(const Workload& w, std::uint64_t sub, bool profiled,
              bool print) {
  const DurationMs horizon = static_cast<DurationMs>(w.minutes) * 60000;
  Rep rep;
  obs::set_profiling_enabled(profiled);

  const auto t0 = Clock::now();
  const core::ModelBank bank = train_bank(w, sub, rep.layers);
  rep.setup_s = seconds_since(t0);
  obs::profiler().reset();  // the stage table covers the pair runs only

  std::map<std::string, double> totals, worst_loss;
  std::ostringstream digest_src;
  for (const auto& [a, b] : fig11_pairs()) {
    for (const auto& scheme : fig11_schemes()) {
      auto models = bank.instantiate_suite(suite());
      TimedScheduler* cocg = nullptr;
      std::unique_ptr<platform::Scheduler> sched;
      if (scheme == "CoCG") {
        auto t = std::make_unique<TimedScheduler>(
            std::make_unique<core::CocgScheduler>(std::move(models)),
            profiled);
        cocg = t.get();
        sched = std::move(t);
      } else {
        sched = baseline(scheme, std::move(models));
      }
      platform::PlatformConfig cfg;
      cfg.seed = platform_seed(sub);
      platform::CloudPlatform cloud(cfg, std::move(sched));
      hw::ServerSpec one_gpu;
      one_gpu.num_gpus = 1;
      cloud.add_server(one_gpu);
      const auto* ga = spec_of(a);
      const auto* gb = spec_of(b);
      cloud.add_source({ga, ga->short_game ? 2 : 1, 8});
      cloud.add_source({gb, gb->short_game ? 2 : 1, 8});
      cloud.run(horizon);

      const double t = cloud.throughput();
      double violation_s = 0.0;
      for (const auto& run : cloud.completed_runs()) {
        violation_s += ms_to_sec(run.qos_violation_ms);
      }
      totals[scheme] += t;
      worst_loss[scheme] =
          std::max(worst_loss[scheme], t > 0 ? violation_s / t : 0.0);
      digest_src << a << '+' << b << ' ' << scheme << ' ' << num(t) << ' '
                 << num(violation_s) << ' ' << cloud.completed_runs().size()
                 << '\n';

      const std::size_t accounted = cloud.completed_runs().size() +
                                    cloud.running_sessions() +
                                    cloud.queued_requests();
      check(rep, "conservation", cloud.submitted_requests() == accounted,
            a + "+" + b + " " + scheme + ": submitted " +
                std::to_string(cloud.submitted_requests()) +
                ", completed+running+queued " + std::to_string(accounted));
      rep.layers.add_quiescence(cloud.quiescence_stats());
      if (cocg != nullptr) {
        check(rep, "decorator_accepted",
              cocg->waits_ms.size() == cloud.sessions_admitted(),
              a + "+" + b + ": decorator " +
                  std::to_string(cocg->waits_ms.size()) +
                  ", sessions_admitted " +
                  std::to_string(cloud.sessions_admitted()));
        const std::size_t queued = account(rep, cloud, *cocg, horizon);
        rep.qos_violation_s += violation_s;
        check(rep, "waits_cover_arrivals",
              cocg->waits_ms.size() + queued == cloud.submitted_requests(),
              a + "+" + b + ": " + std::to_string(cocg->waits_ms.size()) +
                  " admitted + " + std::to_string(queued) +
                  " still queued for " +
                  std::to_string(cloud.submitted_requests()) + " requests");
        rep.offered += cloud.submitted_requests();
      }
      ++rep.operations;
    }
  }
  rep.wall_s = seconds_since(t0);
  obs::set_profiling_enabled(false);
  rep.layers.stages = obs::profiler().profile();

  double best_baseline = 0.0;
  for (const auto& scheme : fig11_schemes()) {
    if (scheme != "CoCG" && worst_loss[scheme] <= kQosBudget) {
      best_baseline = std::max(best_baseline, totals[scheme]);
    }
  }
  rep.throughput = totals["CoCG"];
  rep.cocg_gain_pct =
      best_baseline > 0 ? 100.0 * (rep.throughput / best_baseline - 1.0) : 0.0;
  if (print) {
    std::cout << "fig11 sub-seed " << sub << " (training "
              << training_seed(sub) << ", platform " << platform_seed(sub)
              << "):";
    for (const auto& scheme : fig11_schemes()) {
      std::cout << ' ' << scheme << ' ' << num(totals[scheme]);
    }
    std::cout << " | CoCG gain " << num(rep.cocg_gain_pct) << "%\n";
  }
  rep.report = digest_src.str();
  return rep;
}

Rep run_rep(const Workload& w, std::uint64_t sub, int threads, bool profiled,
            bool print) {
  return w.fleet ? run_fleet(w, sub, threads, profiled)
                 : run_fig11(w, sub, profiled, print);
}

// ---------------------------------------------------------------------------
// Output.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string digest(const std::string& s) {
  std::ostringstream os;
  os << std::hex << fnv1a(s);
  return os.str();
}

template <typename T>
std::string json_array(const std::vector<T>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += num(static_cast<double>(v[i]));
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string layers_json(const Layers& l) {
  std::ostringstream os;
  os << "{\"admit_calls\":" << l.admit_calls
     << ",\"admit_accepted\":" << l.admit_accepted
     << ",\"admit_ns\":" << json_array(l.admit_ns)
     << ",\"control_ns\":" << json_array(l.control_ns)
     << ",\"replace_ns\":" << l.replace_ns << ",\"hooks_ns\":" << l.hooks_ns
     << ",\"model_replacements\":" << l.model_replacements
     << ",\"train_ns\":" << json_array(l.train_ns)
     << ",\"generate_ns\":" << l.generate_ns << ",\"stages\":{";
  // Iterate the profiler's own taxonomy, so stages added or renamed in
  // src/obs need no change here.
  for (std::size_t i = 0; i < l.stages.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << obs::stage_name(i) << "\":{\"calls\":" << l.stages[i].calls
       << ",\"ns\":" << l.stages[i].total_ns << '}';
  }
  const auto& q = l.quiescence;
  const auto& e = l.executor;
  os << "},\"ticks_skipped\":" << q.ticks_skipped
     << ",\"resolve_cache_hits\":" << q.resolve_cache_hits
     << ",\"resolve_cache_misses\":" << q.resolve_cache_misses
     << ",\"executor\":{\"steals\":" << e.steals << ",\"syncs\":" << e.syncs
     << ",\"idle_ns\":" << e.idle_ns << "}}";
  return os.str();
}

/// Pass/fail counts per check name, with the first failure's detail.
class CheckTally {
 public:
  void add(const std::string& name, bool ok, const std::string& detail) {
    Row& r = rows_[name];
    (ok ? r.passed : r.failed) += 1;
    if (r.failed == 0 || (!ok && r.failed == 1)) r.detail = detail;
  }
  /// Tally one repetition's checks plus whether its report equals
  /// `expected`; returns whether all passed.
  bool add_rep(const Rep& rep, const std::string& expected,
               const std::string& agreement, const std::string& prefix) {
    bool ok = rep.report == expected;
    add(agreement, ok, "digest " + digest(rep.report));
    for (const Check& c : rep.checks) {
      add(prefix + c.name, c.ok, c.detail);
      ok = ok && c.ok;
    }
    return ok;
  }
  std::string json() const {
    std::string out = "[";
    for (const auto& [name, r] : rows_) {
      if (out.size() > 1) out += ',';
      out += "{\"name\":\"" + name + "\",\"passed\":" +
             std::to_string(r.passed) + ",\"failed\":" +
             std::to_string(r.failed) + ",\"detail\":\"" +
             obs::json_escape(r.detail) + "\"}";
    }
    return out + "]";
  }

 private:
  struct Row {
    int passed = 0;
    int failed = 0;
    std::string detail;
  };
  std::map<std::string, Row> rows_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int minutes = 0;  ///< 0 = the workload's own horizon
  int inputs = 0;   ///< 0 = the workload's own input count
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--minutes") {
      o.minutes = std::stoi(v);
    } else if (a == "--inputs") {
      o.inputs = std::stoi(v);
    } else {
      throw std::runtime_error("unknown flag: " + a);
    }
  }
  if (o.workload.empty()) throw std::runtime_error("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    set_log_level(LogLevel::kError);
    const Options opt = parse(argc, argv);
    Workload w = workload(opt.workload);
    if (opt.minutes > 0) w.minutes = opt.minutes;
    if (opt.inputs > 0) w.inputs = opt.inputs;
    const auto k = static_cast<std::size_t>(w.inputs);
    const auto sub = [&](std::size_t j) { return opt.seed * k + j; };

    // Untraced cycles over all inputs fill the budget; a cycle starts
    // only if it is expected to end within it. A traced run keeps half
    // of the budget for its profiled and single-thread cycles.
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    std::vector<std::vector<Rep>> reps(k);  // [input][cycle]
    std::size_t cycles = 0;
    const auto start = Clock::now();
    do {
      for (std::size_t j = 0; j < k; ++j) {
        reps[j].push_back(run_rep(w, sub(j), kThreads, false, cycles == 0));
      }
      ++cycles;
    } while (seconds_since(start) * static_cast<double>(cycles + 1) /
                 static_cast<double>(cycles) <=
             budget);

    CheckTally checks;
    std::size_t attempted = 0, failed = 0;
    const auto tally = [&](const Rep& rep, std::size_t j,
                           const std::string& agreement,
                           const std::string& prefix) {
      attempted += rep.operations;
      if (!checks.add_rep(rep, reps[j][0].report, agreement, prefix)) {
        failed += rep.operations;
      }
    };
    for (std::size_t j = 0; j < k; ++j) {
      for (const Rep& rep : reps[j]) tally(rep, j, "repetitions_agree", "");
    }

    std::string traced_json = "null", single_json = "null";
    if (opt.trace) {
      Layers layers;
      std::vector<double> walls;
      for (std::size_t j = 0; j < k; ++j) {
        const Rep rep = run_rep(w, sub(j), kThreads, true, false);
        tally(rep, j, "traced_report_identical", "traced_");
        layers.merge(rep.layers);
        walls.push_back(rep.wall_s);
      }
      traced_json = "{\"wall_s\":" + json_array(walls) +
                    ",\"layers\":" + layers_json(layers) + "}";
      if (w.fleet) {
        // The first third of the inputs again, on one thread.
        walls.clear();
        for (std::size_t j = 0; j < (k + 2) / 3; ++j) {
          const Rep rep = run_rep(w, sub(j), 1, false, false);
          tally(rep, j, "one_thread_report_identical", "one_thread_");
          walls.push_back(rep.wall_s);
        }
        single_json = "{\"wall_s\":" + json_array(walls) + "}";
      }
    }

    std::string all_reports;
    for (std::size_t j = 0; j < k; ++j) {
      all_reports += reps[j][0].report;
      std::cout << "digest " << w.name << " seed " << opt.seed << " input "
                << j << " (sub-seed " << sub(j) << ") "
                << digest(reps[j][0].report) << "\n";
    }
    std::cout << "digest " << w.name << " seed " << opt.seed << " all "
              << digest(all_reports) << "\n";
    std::ostringstream os;
    os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"reps\":[";
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < reps[j].size(); ++c) {
        os << (j + c != 0 ? "," : "") << "{\"input\":" << j
           << ",\"wall_s\":" << num(reps[j][c].wall_s)
           << ",\"setup_s\":" << num(reps[j][c].setup_s) << '}';
      }
    }
    os << "],\"sim\":[";
    for (std::size_t j = 0; j < k; ++j) {
      const Rep& r = reps[j][0];
      os << (j != 0 ? "," : "") << "{\"offered\":" << r.offered
         << ",\"admitted\":" << r.admitted
         << ",\"throughput\":" << num(r.throughput)
         << ",\"qos_violation_s\":" << num(r.qos_violation_s)
         << ",\"cocg_gain_pct\":" << num(r.cocg_gain_pct)
         << ",\"waits_ms\":" << json_array(r.waits_ms) << '}';
    }
    os << "],\"checks\":" << checks.json()
       << ",\"peak_rss_mb\":" << num(peak_rss_mb())
       << ",\"traced\":" << traced_json << ",\"one_thread\":" << single_json
       << "}";
    std::cout << os.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fleet_bench: " << e.what() << "\n";
    return 1;
  }
}

#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/cocg_scheduler.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "core/scheduler_factory.h"
#include "game/library.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace cocg::fleet {
namespace {

/// Greedy admit-everything scheduler: model-free, so fleet tests exercise
/// the sharding machinery without offline training cost.
class GreedyScheduler final : public platform::Scheduler {
 public:
  explicit GreedyScheduler(ResourceVector alloc = {60, 90, 4000, 4000})
      : alloc_(alloc) {}

  std::string name() const override { return "greedy"; }

  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override {
    (void)req;
    for (ServerId server : view.server_ids()) {
      const auto& srv = view.server(server);
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        if (alloc_.fits_within(srv.free_on_gpu(g))) {
          return platform::Placement{server, g, alloc_};
        }
      }
    }
    return std::nullopt;
  }

 private:
  ResourceVector alloc_;
};

/// Flip the obs switches for one test and restore them after.
class ObsGuard {
 public:
  explicit ObsGuard(bool trace = false)
      : saved_(obs::enabled()), saved_trace_(obs::trace_enabled()) {
    obs::set_enabled(true);
    obs::set_trace_enabled(trace);
  }
  ~ObsGuard() {
    obs::set_enabled(saved_);
    obs::set_trace_enabled(saved_trace_);
  }

 private:
  bool saved_;
  bool saved_trace_;
};

const game::GameSpec& contra() {
  static const game::GameSpec g = game::make_contra();
  return g;
}
const game::GameSpec& csgo() {
  static const game::GameSpec g = game::make_csgo();
  return g;
}

SchedulerFactory greedy_factory() {
  return [](int) { return std::make_unique<GreedyScheduler>(); };
}

FleetConfig small_config(int shards, int threads,
                         RouterPolicy policy = RouterPolicy::kLeastLoaded) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.policy = policy;
  cfg.seed = 99;
  return cfg;
}

/// Standard small fleet: `shards` shards, 2 servers each, two open-loop
/// game streams.
std::unique_ptr<Fleet> make_small_fleet(int shards, int threads,
                                        RouterPolicy policy =
                                            RouterPolicy::kLeastLoaded) {
  auto f = std::make_unique<Fleet>(small_config(shards, threads, policy),
                                   greedy_factory());
  for (int i = 0; i < 2 * shards; ++i) f->add_server(hw::ServerSpec{});
  f->add_global_source({&contra(), 60.0, 8});
  f->add_global_source({&csgo(), 40.0, 8});
  return f;
}

TEST(Fleet, ServersPartitionRoundRobin) {
  Fleet f(small_config(2, 1), greedy_factory());
  EXPECT_EQ(f.add_server(hw::ServerSpec{}), 0);
  EXPECT_EQ(f.add_server(hw::ServerSpec{}), 1);
  EXPECT_EQ(f.add_server(hw::ServerSpec{}), 0);
  EXPECT_EQ(f.loads()[0].servers, 2u);
  EXPECT_EQ(f.loads()[1].servers, 1u);
  EXPECT_EQ(f.loads()[0].gpu_views, 4u);
}

TEST(Fleet, OpenLoopArrivalsAreConserved) {
  auto f = make_small_fleet(3, 1);
  f->run(30 * 60 * 1000);
  const auto rep = f->report();
  EXPECT_GT(rep.arrivals, 10u);
  std::size_t routed = 0;
  for (int i = 0; i < f->num_shards(); ++i) routed += f->routed_to(i);
  EXPECT_EQ(routed, rep.arrivals);
  // Every routed request is still accounted for: finished, running, or
  // queued. Nothing lost, nothing duplicated.
  for (const auto& row : rep.shards) {
    EXPECT_EQ(row.routed,
              row.completed + row.running_end + row.queued_end)
        << "shard " << row.shard;
  }
  EXPECT_GT(rep.completed, 0u);
  EXPECT_GT(rep.throughput, 0.0);
}

// The determinism contract (docs/fleet.md): thread count affects wall
// clock only. Aggregated events, metrics, traces and results must be
// byte-identical between a serial and a parallel run.
TEST(Fleet, AggregateResultsIdenticalAcrossThreadCounts) {
  ObsGuard guard(/*trace=*/true);
  auto run_with = [](int threads) {
    auto f = make_small_fleet(4, threads);
    f->run(30 * 60 * 1000);
    struct Out {
      std::string events, metrics, trace;
      FleetReport rep;
      std::vector<std::size_t> routed;
    } out;
    out.events = f->merged_events_jsonl();
    obs::MetricsRegistry merged;
    f->merge_metrics(merged);
    out.metrics = merged.to_json();
    std::ostringstream tr;
    f->write_merged_trace(tr);
    out.trace = tr.str();
    out.rep = f->report();
    for (int i = 0; i < f->num_shards(); ++i) {
      out.routed.push_back(f->routed_to(i));
    }
    return out;
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.routed, parallel.routed);
  EXPECT_DOUBLE_EQ(serial.rep.throughput, parallel.rep.throughput);
  EXPECT_EQ(serial.rep.completed, parallel.rep.completed);
  EXPECT_EQ(serial.rep.arrivals, parallel.rep.arrivals);
  ASSERT_FALSE(serial.events.empty());
  ASSERT_GT(serial.rep.completed, 0u);
}

TEST(Fleet, SameSeedReproducesDifferentSeedDiverges) {
  ObsGuard guard;
  auto run_with = [](std::uint64_t seed) {
    auto cfg = small_config(2, 2);
    cfg.seed = seed;
    Fleet f(cfg, greedy_factory());
    for (int i = 0; i < 4; ++i) f.add_server(hw::ServerSpec{});
    f.add_global_source({&contra(), 60.0, 8});
    f.run(20 * 60 * 1000);
    return f.merged_events_jsonl();
  };
  EXPECT_EQ(run_with(5), run_with(5));
  EXPECT_NE(run_with(5), run_with(6));
}

TEST(Fleet, MergedEventsCarryShardFieldTimeOrdered) {
  ObsGuard guard;
  auto f = make_small_fleet(2, 2);
  f->run(20 * 60 * 1000);
  std::istringstream is(f->merged_events_jsonl());
  std::string line;
  double prev_t = -1.0;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    obs::JsonValue v;
    ASSERT_TRUE(obs::json_parse(line, v)) << line;
    const double shard = v.get_number("shard", -1.0);
    EXPECT_GE(shard, 0.0);
    EXPECT_LT(shard, 2.0);
    const double t = v.get_number("t", -1.0);
    EXPECT_GE(t, prev_t);
    prev_t = t;
  }
  EXPECT_GT(lines, 0u);
}

TEST(Fleet, MergedTraceRendersShardsAsProcessGroups) {
  ObsGuard guard(/*trace=*/true);
  auto f = make_small_fleet(2, 2);
  f->run(20 * 60 * 1000);
  std::ostringstream os;
  f->write_merged_trace(os);
  const std::string trace = os.str();
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(trace, v));
  EXPECT_NE(trace.find("shard0/"), std::string::npos);
  EXPECT_NE(trace.find("shard1/"), std::string::npos);
  // Shard 1's pids live in the second stride block (platform pids are
  // 1-based server ids).
  EXPECT_NE(trace.find("\"pid\":" + std::to_string(kShardPidStride + 1)),
            std::string::npos);
}

TEST(Fleet, MergedMetricsSumShardCounters) {
  ObsGuard guard;
  auto f = make_small_fleet(2, 1);
  f->run(20 * 60 * 1000);
  std::uint64_t per_shard_sum = 0;
  for (int i = 0; i < 2; ++i) {
    per_shard_sum += f->shard_domain(i).metrics.counter_value(
        "platform.requests_submitted");
  }
  obs::MetricsRegistry merged;
  f->merge_metrics(merged);
  EXPECT_EQ(merged.counter_value("platform.requests_submitted"),
            per_shard_sum);
  EXPECT_EQ(per_shard_sum, f->arrivals_generated());
  // The process-global registry saw none of the shard activity.
  EXPECT_EQ(obs::global_domain().metrics.counter_value(
                "platform.requests_submitted"),
            0u);
}

TEST(Fleet, ShardSourceBypassesRouter) {
  auto cfg = small_config(2, 1);
  Fleet f(cfg, greedy_factory());
  for (int i = 0; i < 4; ++i) f.add_server(hw::ServerSpec{});
  f.add_shard_source(0, {&contra(), 2, 4});
  f.run(40 * 60 * 1000);
  EXPECT_EQ(f.arrivals_generated(), 0u);
  EXPECT_EQ(f.routed_to(0), 0u);
  const auto rep = f.report();
  EXPECT_GT(rep.shards[0].completed, 0u);
  EXPECT_EQ(rep.shards[1].completed, 0u);
}

TEST(Fleet, RunIsOneShot) {
  auto f = make_small_fleet(1, 1);
  f->run(60 * 1000);
  EXPECT_THROW(f->run(60 * 1000), ContractError);
}

TEST(Fleet, ReportJsonIsCanonical) {
  auto f = make_small_fleet(2, 2);
  f->run(20 * 60 * 1000);
  const auto rep = f->report();
  const std::string json = report_json(rep);
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(json, v)) << json;
  EXPECT_EQ(v.get_number("completed", -1.0),
            static_cast<double>(rep.completed));
  std::ostringstream os;
  write_report_json(rep, os);
  EXPECT_EQ(os.str(), json);
}

// --- the executor against the former lockstep runner's pinned bytes ---

/// Everything a run externalizes, for byte comparison.
struct RunSurface {
  std::string report, events, metrics, trace;
};

RunSurface run_surface(Fleet& f, DurationMs horizon) {
  f.run(horizon);
  RunSurface out;
  out.report = report_json(f.report());
  out.events = f.merged_events_jsonl();
  obs::MetricsRegistry merged;
  f.merge_metrics(merged);
  out.metrics = merged.to_json();
  std::ostringstream tr;
  f.write_merged_trace(tr);
  out.trace = tr.str();
  return out;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a digests of a RunSurface's four artifacts.
struct SurfaceDigest {
  std::uint64_t report, events, metrics, trace;
};

void expect_surface(const RunSurface& got, const SurfaceDigest& want,
                    const std::string& what) {
  EXPECT_EQ(fnv1a(got.report), want.report) << what << " report";
  EXPECT_EQ(fnv1a(got.events), want.events) << what << " events";
  EXPECT_EQ(fnv1a(got.metrics), want.metrics) << what << " metrics";
  EXPECT_EQ(fnv1a(got.trace), want.trace) << what << " trace";
}

// Golden digests taken from the former lockstep runner (every shard
// advanced one epoch, then a barrier) at threads = 1, for
// make_runner_fleet over a 30-minute horizon. The executor must reproduce
// them at any thread count.
constexpr SurfaceDigest kLockstepRr{0xb8a689f5db585636, 0xa98c52298b8db0ca,
                                     0x4f4976725120b439, 0xb27d1a892f91835a};
constexpr SurfaceDigest kLockstepLl{0xfcbe473db4b3bfa2, 0x2d25761b0958275c,
                                     0xf046eb0c42393644, 0xa2e32bf16d42e5c2};
/// The `cocg-traffic-v1` bytes captured from the lockstep `ll` run over
/// a 20-minute horizon, and that run's report and events.
constexpr std::uint64_t kLockstepCaptureTrace = 0x31880091d146d16c;
constexpr std::uint64_t kLockstepCaptureReport = 0xd4a8c2163fff4fac;
constexpr std::uint64_t kLockstepCaptureEvents = 0x2f4055d3dc301b7a;
/// Lockstep `rr` health stream: 60-s heartbeats over 10 minutes.
constexpr std::uint64_t kLockstepHealthRr = 0x1d4487f640d3c936;

std::unique_ptr<Fleet> make_runner_fleet(int threads, RouterPolicy policy) {
  auto f = std::make_unique<Fleet>(small_config(4, threads, policy),
                                   greedy_factory());
  for (int i = 0; i < 8; ++i) f->add_server(hw::ServerSpec{});
  f->add_global_source({&contra(), 60.0, 8});
  f->add_global_source({&csgo(), 40.0, 8});
  return f;
}

// The determinism contract: the entire external surface is byte-identical
// to the pinned lockstep bytes at any thread count, under both a
// loads-free policy (rr — full run-ahead, no syncs) and a load-based one
// (ll — sync every fresh-routed epoch).
TEST(FleetSteal, ByteIdenticalToLockstepAcrossThreadCounts) {
  ObsGuard guard(/*trace=*/true);
  constexpr DurationMs kHorizon = 30 * 60 * 1000;
  for (const auto& [policy, golden] :
       {std::pair{RouterPolicy::kRoundRobin, kLockstepRr},
        std::pair{RouterPolicy::kLeastLoaded, kLockstepLl}}) {
    for (int threads : {1, 2, 8}) {
      auto f = make_runner_fleet(threads, policy);
      expect_surface(run_surface(*f, kHorizon), golden,
                     std::string(router_policy_name(policy)) +
                         " threads=" + std::to_string(threads));
    }
  }
}

// Fleet::set_barrier_hook promises one call per epoch boundary, so the
// schedcheck invariant audit sees every epoch whatever the routing policy
// — including rr, which otherwise never syncs before the end of the run.
TEST(FleetSteal, BarrierHookFiresAtEveryEpochBoundary) {
  constexpr DurationMs kHorizon = 10 * 60 * 1000;
  const DurationMs epoch = FleetConfig{}.platform.control_period_ms;
  std::vector<TimeMs> want;
  for (TimeMs t = epoch; t <= kHorizon; t += epoch) want.push_back(t);
  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded}) {
    for (int threads : {1, 2, 8}) {
      auto f = make_runner_fleet(threads, policy);
      std::vector<TimeMs> seen;
      f->set_barrier_hook([&seen](TimeMs t) { seen.push_back(t); });
      f->run(kHorizon);
      EXPECT_EQ(seen, want)
          << router_policy_name(policy) << " threads=" << threads;
    }
  }
}

TEST(FleetSteal, RoundRobinRunsAheadWithoutSyncs) {
  auto f = make_runner_fleet(2, RouterPolicy::kRoundRobin);
  f->run(30 * 60 * 1000);
  const auto& es = f->executor_stats();
  EXPECT_GT(es.jobs_run, 0u);
  // rr never reads the load snapshots and no health stream or barrier
  // hook is attached, so the coordinator never has to drain mid-run.
  EXPECT_EQ(es.syncs, 0u);
}

TEST(FleetSteal, LoadBasedPolicySyncsButStaysIdentical) {
  auto f = make_runner_fleet(2, RouterPolicy::kLeastLoaded);
  f->run(30 * 60 * 1000);
  const auto& es = f->executor_stats();
  // ll reads loads on every freshly routed epoch: syncs must happen.
  EXPECT_GT(es.syncs, 0u);
  EXPECT_GT(es.jobs_run, 0u);
}

TEST(FleetSteal, HealthSnapshotsIdenticalAcrossRunnersModuloExecutor) {
  // Every heartbeat carries an "executor" block (wall-clock steal/idle
  // telemetry); with it stripped, the simulated-state portion must match
  // the pinned lockstep stream, which had no such block, byte for byte.
  ObsGuard guard;
  auto run_with = [](int threads) {
    auto f = make_runner_fleet(threads, RouterPolicy::kRoundRobin);
    std::ostringstream health;
    f->enable_health_stream(&health, 60 * 1000);
    f->run(10 * 60 * 1000);
    return health.str();
  };
  auto strip_executor = [](const std::string& jsonl) {
    std::string out;
    std::istringstream is(jsonl);
    std::string line;
    while (std::getline(is, line)) {
      const auto pos = line.find(",\"executor\":{");
      if (pos != std::string::npos) {
        const auto end = line.find('}', pos);
        EXPECT_NE(end, std::string::npos);
        line.erase(pos, end - pos + 1);
      }
      out += line;
      out += '\n';
    }
    return out;
  };
  for (int threads : {1, 2, 8}) {
    const std::string health = run_with(threads);
    ASSERT_FALSE(health.empty());
    EXPECT_NE(health.find("\"executor\""), std::string::npos) << threads;
    EXPECT_EQ(fnv1a(strip_executor(health)), kLockstepHealthRr) << threads;
  }
}

// Capture at one thread, replay with recorded verdicts: the verdicts
// bypass the router entirely, so the replay runs fully ahead and must
// still reproduce the pinned lockstep capture byte for byte.
TEST(FleetSteal, CaptureReplayRoundTripsAcrossRunners) {
  ObsGuard guard;
  constexpr DurationMs kHorizon = 20 * 60 * 1000;
  traffic::TraceRecorder rec;
  auto captured = make_runner_fleet(1, RouterPolicy::kLeastLoaded);
  captured->enable_capture(&rec);
  const RunSurface base = run_surface(*captured, kHorizon);
  ASSERT_GT(rec.size(), 0u);
  std::ostringstream trace_bytes;
  traffic::write_trace(rec.trace(), trace_bytes);
  EXPECT_EQ(fnv1a(trace_bytes.str()), kLockstepCaptureTrace);
  EXPECT_EQ(fnv1a(base.report), kLockstepCaptureReport);
  EXPECT_EQ(fnv1a(base.events), kLockstepCaptureEvents);

  const std::vector<const game::GameSpec*> specs = {&contra(), &csgo()};
  for (int threads : {1, 2, 8}) {
    Fleet replay(small_config(4, threads, RouterPolicy::kLeastLoaded),
                 greedy_factory());
    for (int i = 0; i < 8; ++i) replay.add_server(hw::ServerSpec{});
    replay.add_trace_arrivals(rec.trace(), specs,
                              /*use_recorded_routing=*/true);
    const RunSurface got = run_surface(replay, kHorizon);
    EXPECT_EQ(fnv1a(got.report), kLockstepCaptureReport) << threads;
    EXPECT_EQ(fnv1a(got.events), kLockstepCaptureEvents) << threads;
  }
}

// --- train-once model sharing (core::ModelBank) across shards ---

/// Fleet run under the real CoCG scheduler; returns the canonical report
/// JSON plus the merged event stream, the full determinism surface.
struct CocgRunOut {
  std::string report, events;
};

CocgRunOut run_cocg_fleet(const core::ModelBank* bank,
                          const std::vector<game::GameSpec>& suite,
                          const core::OfflineConfig& ocfg, int threads) {
  ObsGuard guard;
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.threads = threads;
  cfg.policy = RouterPolicy::kLeastLoaded;
  cfg.seed = 7;
  Fleet f(cfg, [&](int) {
    if (bank != nullptr) {
      return core::make_named_scheduler("cocg", *bank, suite);
    }
    return core::make_named_scheduler("cocg", core::train_suite(suite, ocfg));
  });
  for (int i = 0; i < 4; ++i) f.add_server(hw::ServerSpec{});
  for (const auto& g : suite) f.add_global_source({&g, 40.0, 8});
  f.run(15 * 60 * 1000);
  CocgRunOut out;
  out.report = report_json(f.report());
  out.events = f.merged_events_jsonl();
  return out;
}

TEST(FleetModelBank, SharedBankMatchesRetrainPerShard) {
  const std::vector<game::GameSpec> suite = {game::make_contra(),
                                             game::make_csgo()};
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 5;
  ocfg.corpus_runs = 8;
  ocfg.seed = 7;

  core::ModelBank bank;
  for (const auto& [name, tg] : core::train_suite(suite, ocfg)) {
    bank.add_trained(tg);
  }

  // One shared training pass vs. an independent retrain inside every
  // shard: byte-identical reports and event streams (the acceptance
  // criterion for the train-once path), at any thread count.
  const auto shared_1 = run_cocg_fleet(&bank, suite, ocfg, 1);
  const auto shared_2 = run_cocg_fleet(&bank, suite, ocfg, 2);
  const auto retrain = run_cocg_fleet(nullptr, suite, ocfg, 2);
  EXPECT_EQ(shared_1.report, shared_2.report);
  EXPECT_EQ(shared_1.events, shared_2.events);
  EXPECT_EQ(shared_1.report, retrain.report);
  EXPECT_EQ(shared_1.events, retrain.events);
  ASSERT_FALSE(shared_1.events.empty());
}

// --- the CoCG admission path against pinned bytes ---

/// Train-once bank for the CoCG oracle runs (corpus kept, so the §IV-B2
/// fallback can retrain mid-run).
const core::ModelBank& oracle_bank() {
  static const core::ModelBank bank = [] {
    core::OfflineConfig ocfg;
    ocfg.profiling_runs = 5;
    ocfg.corpus_runs = 8;
    ocfg.seed = 7;
    core::ModelBank b;
    for (const auto& [name, tg] :
         core::train_suite({contra(), csgo()}, ocfg)) {
      b.add_trained(tg);
    }
    return b;
  }();
  return bank;
}

/// An overloaded 2-shard CoCG fleet: 2 servers per shard against ~300
/// arrivals per hour, so the queue grows and every control tick re-checks
/// it. A hair-trigger replacement rule makes models change mid-run.
RunSurface run_cocg_oracle(int threads, std::size_t trace_max_samples = 0) {
  ObsGuard guard;
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.threads = threads;
  cfg.policy = RouterPolicy::kLeastLoaded;
  cfg.seed = 31;
  cfg.platform.trace_max_samples = trace_max_samples;
  const std::vector<game::GameSpec> suite = {contra(), csgo()};
  core::CocgConfig ccfg;
  ccfg.replace_model_after = 1;
  Fleet f(cfg, [&](int) {
    return std::make_unique<core::CocgScheduler>(
        oracle_bank().instantiate_suite(suite), ccfg);
  });
  for (int i = 0; i < 4; ++i) f.add_server(hw::ServerSpec{});
  f.add_global_source({&contra(), 180.0, 16});
  f.add_global_source({&csgo(), 120.0, 16});
  f.run(30 * 60 * 1000);
  RunSurface out;
  out.report = report_json(f.report());
  out.events = f.merged_events_jsonl();
  obs::MetricsRegistry merged;
  f.merge_metrics(merged);
  out.metrics = merged.to_json();
  return out;
}

// Golden digests of run_cocg_oracle's report, events and metrics, taken
// before admission became incremental (candidate-outlook memo + per-pass
// view snapshot). Every decision, verdict counter and logged reason must
// survive the caching, at any thread count.
constexpr std::uint64_t kCocgOracleReport = 0x30cd0f8d8ab016cd;
constexpr std::uint64_t kCocgOracleEvents = 0x79c81ae20a475f1e;
constexpr std::uint64_t kCocgOracleMetrics = 0x936ded5931bb42a3;

TEST(FleetCocg, OverloadedRetrainingRunMatchesPinnedDigests) {
  for (int threads : {1, 2, 8}) {
    const RunSurface got = run_cocg_oracle(threads);
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(fnv1a(got.report), kCocgOracleReport) << what;
    EXPECT_EQ(fnv1a(got.events), kCocgOracleEvents) << what;
    EXPECT_EQ(fnv1a(got.metrics), kCocgOracleMetrics) << what;
    if (threads != 1) continue;
    // The run exercises what the caches must survive: a queue that never
    // drains and models replaced mid-run.
    obs::JsonValue rep;
    ASSERT_TRUE(obs::json_parse(got.report, rep));
    double queued = 0.0;
    for (const auto& row : rep.find("shards")->array) {
      queued += row.get_number("queued_end", 0.0);
    }
    EXPECT_GT(queued, 0.0);
    obs::JsonValue met;
    ASSERT_TRUE(obs::json_parse(got.metrics, met));
    EXPECT_GT(met.find("counters")->get_number("scheduler.model_replacements",
                                              0.0),
              0.0);
  }
}

// A windowed telemetry trace (trace_max_samples) trims its oldest samples;
// the CoCG monitor must keep reading the newest detection window, so the
// run decides exactly as with unbounded traces.
TEST(FleetCocg, TrimmedTracesDecideLikeUnboundedOnes) {
  const RunSurface full = run_cocg_oracle(2);
  const RunSurface capped = run_cocg_oracle(2, /*trace_max_samples=*/64);
  EXPECT_EQ(capped.report, full.report);
  EXPECT_EQ(capped.events, full.events);
}

}  // namespace
}  // namespace cocg::fleet

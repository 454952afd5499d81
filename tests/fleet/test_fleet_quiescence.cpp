// Fleet-level quiescence identity: with the resolve cache and macro-tick
// fast-forward on, fleet reports and merged event logs must stay
// byte-identical to the always-resolve per-tick oracle — at 1/2/8 worker
// threads, and through capture/replay. The quiescence
// counters themselves ride only in the extended report and the health
// heartbeat, never in the canonical encoding these comparisons use.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "fleet/fleet.h"
#include "game/library.h"
#include "obs/obs.h"
#include "traffic/trace.h"

namespace cocg::fleet {
namespace {

class GreedyScheduler final : public platform::Scheduler {
 public:
  std::string name() const override { return "greedy"; }
  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest&) override {
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
  ResourceVector alloc_{40, 45, 2000, 2000};
};

SchedulerFactory greedy_factory() {
  return [](int) { return std::make_unique<GreedyScheduler>(); };
}

/// Jitter-free finite game so fleet shards actually reach quiescent
/// windows between arrivals and stage boundaries.
const game::GameSpec& det_game() {
  static const game::GameSpec g = [] {
    game::GameSpec spec;
    spec.id = GameId{904};
    spec.name = "DetFleet";
    spec.category = game::GameCategory::kWeb;

    game::FrameClusterSpec load;
    load.id = 0;
    load.name = "load";
    load.centroid = ResourceVector{30.0, 5.0, 600.0, 400.0};
    load.fps_base = 0.0;
    game::FrameClusterSpec play;
    play.id = 1;
    play.name = "play";
    play.centroid = ResourceVector{12.0, 24.0, 800.0, 440.0};
    play.fps_base = 60.0;
    spec.clusters = {load, play};

    game::StageTypeSpec loading;
    loading.id = 0;
    loading.name = "loading";
    loading.kind = game::StageKind::kLoading;
    loading.clusters = {0};
    loading.min_dwell_ms = 6000;
    loading.max_dwell_ms = 6000;
    game::StageTypeSpec level;
    level.id = 1;
    level.name = "level";
    level.kind = game::StageKind::kExecution;
    level.clusters = {1};
    level.min_dwell_ms = 120000;
    level.max_dwell_ms = 120000;
    spec.stage_types = {loading, level};
    spec.loading_stage_type = 0;

    game::ScriptSpec script;
    script.name = "level";
    script.segments.push_back(game::ScriptSegment{1, 1, 1, 0.0});
    spec.scripts = {script};
    return spec;
  }();
  return g;
}

FleetConfig det_config(int shards, int threads, bool quiescence) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.seed = 515;
  cfg.platform.measurement_noise_rel = 0.0;
  cfg.platform.streaming.network_jitter_ms = 0.0;
  cfg.platform.session.spike_prob = 0.0;
  cfg.platform.incremental_resolve = quiescence;
  cfg.platform.macro_ticks = quiescence;
  return cfg;
}

constexpr DurationMs kRunMs = 20 * 60 * 1000;

std::unique_ptr<Fleet> make_fleet(const FleetConfig& cfg) {
  auto f = std::make_unique<Fleet>(cfg, greedy_factory());
  for (int i = 0; i < 2 * cfg.shards; ++i) f->add_server(hw::ServerSpec{});
  f->add_global_source({&det_game(), 90.0, 8});
  return f;
}

struct RunResult {
  std::string report;  ///< canonical 2-arg encoding (no quiescence object)
  std::string events;
  platform::QuiescenceStats quiescence;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Golden digests of canonical reports, taken from the former lockstep
// runner (every shard advanced one epoch, then a barrier) at threads = 1:
// the 3-shard oracle run, and the 2-shard quiescent capture run.
constexpr std::uint64_t kOracleReport = 0xf9f4624161bb4620;
constexpr std::uint64_t kCapturedReport = 0xed37fdc36f596cf8;

RunResult run_fleet(const FleetConfig& cfg) {
  auto f = make_fleet(cfg);
  f->run(kRunMs);
  const FleetReport rep = f->report();
  return {report_json(rep), f->merged_events_jsonl(), rep.quiescence};
}

TEST(FleetQuiescence, ReportIdenticalToOracleAcrossThreadsAndRunners) {
  const RunResult oracle = run_fleet(det_config(3, 1, false));
  EXPECT_EQ(oracle.quiescence.resolve_cache_hits, 0u);
  EXPECT_EQ(oracle.quiescence.ticks_skipped, 0u);
  EXPECT_EQ(fnv1a(oracle.report), kOracleReport);

  for (int threads : {1, 2, 8}) {
    const RunResult fast = run_fleet(det_config(3, threads, true));
    EXPECT_EQ(fast.report, oracle.report) << "threads=" << threads;
    EXPECT_EQ(fast.events, oracle.events) << "threads=" << threads;
    // The engine engaged for real on every shard aggregate.
    EXPECT_GT(fast.quiescence.resolve_cache_hits, 0u);
    EXPECT_GT(fast.quiescence.ticks_skipped, 0u);
    EXPECT_GT(fast.quiescence.fast_forward_windows, 0u);
  }
}

TEST(FleetQuiescence, CapturedRunReplaysIdenticallyOnOracle) {
  // Capture under the quiescent engine, replay the identical arrival
  // stream (recorded routing) on the per-tick oracle: same report.
  auto fast = make_fleet(det_config(2, 2, true));
  traffic::TraceRecorder recorder;
  fast->enable_capture(&recorder);
  fast->run(kRunMs);
  const std::string fast_report = report_json(fast->report());
  ASSERT_FALSE(recorder.trace().events.empty());
  EXPECT_GT(fast->report().quiescence.ticks_skipped, 0u);
  EXPECT_EQ(fnv1a(fast_report), kCapturedReport);

  Fleet oracle(det_config(2, 1, false), greedy_factory());
  for (int i = 0; i < 4; ++i) oracle.add_server(hw::ServerSpec{});
  oracle.add_trace_arrivals(recorder.trace(), {&det_game()},
                            /*use_recorded_routing=*/true);
  oracle.run(kRunMs);
  EXPECT_EQ(report_json(oracle.report()), fast_report);
}

TEST(FleetQuiescence, ExtendedReportAndHealthCarryCounters) {
  std::ostringstream health;
  auto f = make_fleet(det_config(2, 1, true));
  f->enable_health_stream(&health, 5 * 60 * 1000);
  f->run(kRunMs);
  const FleetReport rep = f->report();
  EXPECT_GT(rep.quiescence.ticks_skipped, 0u);

  // Canonical encoding stays quiescence-free (oracle comparability)...
  const std::string canonical = report_json(rep);
  EXPECT_EQ(canonical.find("quiescence"), std::string::npos);
  // ...the extended operator-facing encoding carries the counters...
  std::ostringstream ext;
  write_report_json(rep, ext, f->executor_stats());
  EXPECT_NE(ext.str().find("\"quiescence\":{\"ticks_skipped\":"),
            std::string::npos)
      << ext.str();
  // ...and so does the health heartbeat.
  EXPECT_NE(health.str().find("\"quiescence\":{"), std::string::npos)
      << health.str();

  // An oracle run keeps the legacy health schema byte-compatible: no
  // quiescence object at all.
  std::ostringstream oracle_health;
  auto o = make_fleet(det_config(2, 1, false));
  o->enable_health_stream(&oracle_health, 5 * 60 * 1000);
  o->run(kRunMs);
  EXPECT_EQ(oracle_health.str().find("quiescence"), std::string::npos);
}

}  // namespace
}  // namespace cocg::fleet

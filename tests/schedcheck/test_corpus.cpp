// Seeded regression corpus: every .sched artifact under
// tests/schedcheck/corpus replays in-process and must reproduce the
// outcome its meta declares. Conventions (see corpus/README.md):
//   meta expect clean            — replay must finish without violations
//   meta expect <invariant>      — replay must abort on that invariant
//   meta fault double_host_window — arm the planted fault for this replay
// The corpus dir is baked in at compile time (COCG_SCHEDCHECK_CORPUS_DIR)
// and overridable via the environment variable of the same name, so CI
// can point the suite at freshly minimized fuzz artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "schedcheck/fault.h"
#include "schedcheck/harness.h"
#include "schedcheck/schedule.h"

namespace cocg::schedcheck {
namespace {

std::string corpus_dir() {
  if (const char* env = std::getenv("COCG_SCHEDCHECK_CORPUS_DIR")) {
    return env;
  }
  return COCG_SCHEDCHECK_CORPUS_DIR;
}

TEST(SchedCorpus, EveryArtifactReproducesItsDeclaredOutcome) {
  namespace fs = std::filesystem;
  const std::string dir = corpus_dir();
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".sched") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no .sched artifacts in " << dir;

  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const Schedule schedule = load_schedule(path.string());
    const std::string expect = schedule.meta_value("expect");
    ASSERT_FALSE(expect.empty()) << "corpus artifact lacks 'meta expect'";

    const std::string fault_name = schedule.meta_value("fault");
    if (fault_name == "double_host_window") {
      set_fault(Fault::kDoubleHostWindow);
    } else {
      ASSERT_TRUE(fault_name.empty()) << "unknown fault " << fault_name;
    }

    const Scenario sc = scenario_from_meta(schedule);
    const RunOutcome out = replay_run(sc, schedule);
    set_fault(Fault::kNone);

    if (expect == "clean") {
      EXPECT_FALSE(out.aborted) << describe(out.violations);
    } else {
      ASSERT_TRUE(out.aborted) << "expected invariant " << expect;
      ASSERT_FALSE(out.violations.empty());
      EXPECT_EQ(out.violations.front().invariant, expect)
          << describe(out.violations);
    }
  }
}

// Quiescence engine vs oracle on a pinned schedule: strict replay of the
// clean corpus artifacts must force every decision and produce the same
// fleet report whether the platform runs the incremental-resolve +
// macro-tick engine or the always-resolve per-tick oracle.
TEST(SchedCorpus, CleanArtifactsReplayIdenticallyUnderQuiescenceAndOracle) {
  namespace fs = std::filesystem;
  const std::string dir = corpus_dir();
  for (const char* name : {"two_shard_clean.sched", "steal_clean.sched"}) {
    SCOPED_TRACE(name);
    const fs::path path = fs::path(dir) / name;
    ASSERT_TRUE(fs::exists(path)) << path;
    const Schedule schedule = load_schedule(path.string());

    Scenario quiesce = scenario_from_meta(schedule);
    quiesce.quiescence = true;
    Scenario oracle = quiesce;
    oracle.quiescence = false;

    const RunOutcome fast = replay_run(quiesce, schedule, /*strict=*/true);
    const RunOutcome slow = replay_run(oracle, schedule, /*strict=*/true);
    ASSERT_FALSE(fast.aborted) << describe(fast.violations);
    ASSERT_FALSE(slow.aborted) << describe(slow.violations);
    EXPECT_EQ(fast.report, slow.report);
    EXPECT_EQ(fast.stats.forced, fast.stats.decisions);
    EXPECT_EQ(slow.stats.forced, slow.stats.decisions);
    EXPECT_EQ(fast.stats.divergences, 0u);
    EXPECT_EQ(slow.stats.divergences, 0u);
  }
}

}  // namespace
}  // namespace cocg::schedcheck

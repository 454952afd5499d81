#include "benchdiff.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace cocg::tools {
namespace {

namespace fs = std::filesystem;

obs::JsonValue parse(const std::string& text) {
  obs::JsonValue v;
  EXPECT_TRUE(obs::json_parse(text, v)) << text;
  return v;
}

const char* kBaseline =
    "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":1000.0,\"rows\":["
    "{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":1000.0,\"wall_s\":1.0},"
    "{\"servers\":8,\"obs\":\"on\",\"ticks_per_sec\":500.0,\"wall_s\":2.0}]}";

std::string candidate_with(double s1, double s8) {
  std::ostringstream os;
  os << "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":" << s1
     << ",\"rows\":[{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":" << s1
     << ",\"wall_s\":1.0},{\"servers\":8,\"obs\":\"on\",\"ticks_per_sec\":"
     << s8 << ",\"wall_s\":2.0}]}";
  return os.str();
}

/// Unique scratch dir per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("cocg_benchdiff_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name, const std::string& content) {
    const fs::path p = path_ / name;
    std::ofstream os(p);
    os << content;
    return p.string();
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(BenchDiff, IdenticalFilesPass) {
  const auto base = parse(kBaseline);
  const BenchDiff d = diff_bench(base, base);
  EXPECT_FALSE(d.any_regression);
  EXPECT_TRUE(d.warnings.empty());
  for (const auto& m : d.metrics) EXPECT_DOUBLE_EQ(m.ratio, 1.0);
}

TEST(BenchDiff, GatedDropBeyondThresholdIsRegression) {
  const auto base = parse(kBaseline);
  const auto cand = parse(candidate_with(1000.0, 400.0));  // s8 -20%
  const BenchDiff d = diff_bench(base, cand);
  EXPECT_TRUE(d.any_regression);
  bool found = false;
  for (const auto& m : d.metrics) {
    if (m.where == "rows[1]" && m.key == "ticks_per_sec") {
      found = true;
      EXPECT_TRUE(m.gated);
      EXPECT_TRUE(m.regression);
      EXPECT_DOUBLE_EQ(m.ratio, 0.8);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchDiff, DropWithinThresholdPasses) {
  const auto base = parse(kBaseline);
  const auto cand = parse(candidate_with(950.0, 480.0));  // -5% / -4%
  EXPECT_FALSE(diff_bench(base, cand).any_regression);
}

TEST(BenchDiff, UngatedMetricsNeverFail) {
  const auto base = parse(kBaseline);
  // wall_s doubles — not a gated key, informational only.
  const auto cand = parse(
      "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":1000.0,\"rows\":["
      "{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":1000.0,"
      "\"wall_s\":9.0},{\"servers\":8,\"obs\":\"on\","
      "\"ticks_per_sec\":500.0,\"wall_s\":9.0}]}");
  EXPECT_FALSE(diff_bench(base, cand).any_regression);
}

TEST(BenchDiff, CustomThresholdWidensTheGate) {
  const auto base = parse(kBaseline);
  const auto cand = parse(candidate_with(1000.0, 400.0));
  BenchDiffOptions opts;
  opts.threshold = 0.25;
  EXPECT_FALSE(diff_bench(base, cand, opts).any_regression);
}

TEST(BenchDiff, MismatchedRowLabelsSkippedWithWarning) {
  const auto base = parse(kBaseline);
  // Row 1 swapped obs label: must not be compared as the same config.
  const auto cand = parse(
      "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":1000.0,\"rows\":["
      "{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":1000.0,"
      "\"wall_s\":1.0},{\"servers\":8,\"obs\":\"off\","
      "\"ticks_per_sec\":1.0,\"wall_s\":2.0}]}");
  const BenchDiff d = diff_bench(base, cand);
  EXPECT_FALSE(d.any_regression);
  ASSERT_EQ(d.warnings.size(), 1u);
  EXPECT_NE(d.warnings[0].find("rows[1]"), std::string::npos);
}

TEST(BenchDiff, RowCountMismatchFallsBackToLabelMatching) {
  const auto base = parse(kBaseline);
  // Candidate gained a third configuration; positional pairing would
  // compare apples to oranges. Rows are matched by their string labels
  // instead, and the s8 regression must still be caught.
  const auto cand = parse(
      "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":1000.0,\"rows\":["
      "{\"servers\":16,\"obs\":\"new\",\"ticks_per_sec\":9.0,\"wall_s\":9.0},"
      "{\"servers\":8,\"obs\":\"on\",\"ticks_per_sec\":400.0,\"wall_s\":2.0},"
      "{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":1000.0,"
      "\"wall_s\":1.0}]}");
  const BenchDiff d = diff_bench(base, cand);
  EXPECT_TRUE(d.any_regression);
  bool found = false;
  for (const auto& m : d.metrics) {
    if (m.key == "ticks_per_sec" && m.baseline == 500.0) {
      found = true;
      EXPECT_TRUE(m.regression);
      EXPECT_DOUBLE_EQ(m.ratio, 0.8);
    }
  }
  EXPECT_TRUE(found);

  auto has_warning = [&](const std::string& needle) {
    for (const auto& w : d.warnings) {
      if (w.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_warning("matching rows by labels"));
  EXPECT_TRUE(has_warning("matched 2 row(s) by labels"));
  // The candidate's new configuration is reported, not silently dropped.
  EXPECT_TRUE(has_warning("obs=new"));
  EXPECT_TRUE(has_warning("has no baseline row"));
}

TEST(BenchDiff, LabelFallbackReportsVanishedBaselineRows) {
  const auto base = parse(kBaseline);
  // Candidate lost the s8 row entirely.
  const auto cand = parse(
      "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":1000.0,\"rows\":["
      "{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":1000.0,"
      "\"wall_s\":1.0}]}");
  const BenchDiff d = diff_bench(base, cand);
  EXPECT_FALSE(d.any_regression);  // nothing comparable regressed
  bool missing_reported = false;
  for (const auto& w : d.warnings) {
    if (w.find("rows[1]") != std::string::npos &&
        w.find("has no candidate row") != std::string::npos) {
      missing_reported = true;
    }
  }
  EXPECT_TRUE(missing_reported);
}

TEST(BenchDiff, ResolveBaselinePicksMatchingExperimentInDir) {
  TempDir dir("resolve");
  dir.file("BENCH_other.json", "{\"experiment\":\"other\",\"rows\":[]}");
  const std::string tick = dir.file("BENCH_tick.json", kBaseline);
  EXPECT_EQ(resolve_baseline(dir.path().string(), "tick"), tick);
  EXPECT_EQ(resolve_baseline(dir.path().string(), "absent"), "");
  // A plain file resolves to itself regardless of experiment.
  EXPECT_EQ(resolve_baseline(tick, "whatever"), tick);
}

TEST(BenchDiffCli, ExitCodesCoverPassRegressionAndUsage) {
  TempDir dir("cli");
  const std::string base = dir.file("BENCH_base.json", kBaseline);
  const std::string good =
      dir.file("BENCH_good.json", candidate_with(990.0, 495.0));
  const std::string bad =
      dir.file("BENCH_bad.json", candidate_with(1000.0, 400.0));

  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({good, base}, out, err), 0);
  EXPECT_NE(out.str().find("PASS"), std::string::npos);

  out.str("");
  EXPECT_EQ(run_benchdiff_cli({bad, base}, out, err), 1);
  EXPECT_NE(out.str().find("FAIL"), std::string::npos);
  EXPECT_NE(out.str().find("REGRESSION"), std::string::npos);

  // Wider threshold turns the injected regression back into a pass.
  out.str("");
  EXPECT_EQ(run_benchdiff_cli({bad, base, "--threshold", "0.25"}, out, err),
            0);

  // Usage / parse errors exit 2.
  EXPECT_EQ(run_benchdiff_cli({}, out, err), 2);
  EXPECT_EQ(run_benchdiff_cli({"/no/such/file.json", base}, out, err), 2);
  EXPECT_EQ(run_benchdiff_cli({bad, base, "--threshold"}, out, err), 2);
  EXPECT_EQ(run_benchdiff_cli({bad, base, "--bogus"}, out, err), 2);
}

TEST(BenchDiffCli, DirectoryBaselineResolvedByExperiment) {
  // Candidates live outside the baseline dir so they can't resolve to
  // themselves.
  TempDir base_dir("clidir_base");
  TempDir cand_dir("clidir_cand");
  base_dir.file("BENCH_other.json", "{\"experiment\":\"other\",\"rows\":[]}");
  base_dir.file("BENCH_tick.json", kBaseline);
  const std::string bad =
      cand_dir.file("cand.json", candidate_with(1000.0, 400.0));
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({bad, base_dir.path().string()}, out, err), 1);
  // Missing baseline for the experiment is a usage error, not a pass.
  const std::string orphan = cand_dir.file(
      "orphan.json", "{\"experiment\":\"nobaseline\",\"rows\":[]}");
  EXPECT_EQ(run_benchdiff_cli({orphan, base_dir.path().string()}, out, err),
            2);
}

TEST(BenchDiffCli, MissingBaselineHasDistinctMessageAndExit2) {
  // A baseline path that does not exist must fail with its own message —
  // "no baseline to gate against" — not a generic parse error, so CI
  // failures are immediately attributable to setup rather than perf.
  TempDir dir("missing_base");
  const std::string cand =
      dir.file("BENCH_cand.json", candidate_with(1000.0, 500.0));
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli(
                {cand, (dir.path() / "no_such_dir").string()}, out, err),
            2);
  EXPECT_NE(err.str().find("not found or unreadable"), std::string::npos);
  EXPECT_NE(err.str().find("no baseline to gate against"),
            std::string::npos);

  // An unreadable (malformed) baseline file names the baseline too.
  const std::string garbage = dir.file("BENCH_garbage.json", "not json {");
  err.str("");
  EXPECT_EQ(run_benchdiff_cli({cand, garbage}, out, err), 2);
  EXPECT_NE(err.str().find("baseline"), std::string::npos);
}

TEST(BenchDiffCli, GateFlagSelectsWhichKeysAreGated) {
  TempDir dir("gate");
  const std::string base = dir.file("BENCH_base.json", kBaseline);
  const std::string bad =
      dir.file("BENCH_bad.json", candidate_with(1000.0, 400.0));
  std::ostringstream out, err;
  // Gating only wall_s ignores the ticks_per_sec drop.
  EXPECT_EQ(run_benchdiff_cli({bad, base, "--gate", "wall_s"}, out, err), 0);
}

// --- a gated metric that vanishes from the candidate fails the gate ---

TEST(BenchDiffCli, RenamedGatedTopKeyFailsAndIsNamed) {
  TempDir dir("vanished_top");
  const std::string base = dir.file(
      "BENCH_base.json",
      "{\"experiment\":\"tick\",\"ticks_per_sec_a\":100.0,\"rows\":[]}");
  const std::string cand = dir.file(
      "BENCH_cand.json",
      "{\"experiment\":\"tick\",\"ticks_per_sec_b\":100.0,\"rows\":[]}");
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({cand, base}, out, err), 1);
  EXPECT_NE(out.str().find("ticks_per_sec_a"), std::string::npos);
  EXPECT_NE(out.str().find("FAIL"), std::string::npos);
  EXPECT_EQ(out.str().find("PASS"), std::string::npos);
}

TEST(BenchDiffCli, GatedKeyMissingFromPairedRowFails) {
  TempDir dir("vanished_row_key");
  const std::string base = dir.file("BENCH_base.json", kBaseline);
  // Row 1 pairs by position and labels but no longer reports
  // ticks_per_sec.
  const std::string cand = dir.file(
      "BENCH_cand.json",
      "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":1000.0,\"rows\":["
      "{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":1000.0,"
      "\"wall_s\":1.0},{\"servers\":8,\"obs\":\"on\",\"wall_s\":2.0}]}");
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({cand, base}, out, err), 1);
  EXPECT_NE(out.str().find("rows[1] ticks_per_sec"), std::string::npos);
}

TEST(BenchDiffCli, GatedRowWithoutPartnerByLabelFallbackFails) {
  TempDir dir("vanished_fallback");
  const std::string base = dir.file("BENCH_base.json", kBaseline);
  // Candidate lost the s8 row: the row counts differ, label matching
  // pairs only rows[0], and rows[1]'s gate would go unchecked.
  const std::string cand = dir.file(
      "BENCH_cand.json",
      "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":1000.0,\"rows\":["
      "{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":1000.0,"
      "\"wall_s\":1.0}]}");
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({cand, base}, out, err), 1);
  EXPECT_NE(out.str().find("rows[1] (ticks_per_sec)"), std::string::npos);
}

TEST(BenchDiffCli, GatedRowWithoutPartnerByLabelMismatchFails) {
  TempDir dir("vanished_mismatch");
  const std::string base = dir.file("BENCH_base.json", kBaseline);
  // Same row count, but row 1's obs label changed: it is skipped, so its
  // gated ticks_per_sec has no candidate to compare with.
  const std::string cand = dir.file(
      "BENCH_cand.json",
      "{\"experiment\":\"tick\",\"ticks_per_sec_s1\":1000.0,\"rows\":["
      "{\"servers\":1,\"obs\":\"off\",\"ticks_per_sec\":1000.0,"
      "\"wall_s\":1.0},{\"servers\":8,\"obs\":\"off\","
      "\"ticks_per_sec\":500.0,\"wall_s\":2.0}]}");
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({cand, base}, out, err), 1);
  EXPECT_NE(out.str().find("rows[1] (ticks_per_sec)"), std::string::npos);
}

TEST(BenchDiffCli, UngatedRowWithoutPartnerStillPasses) {
  TempDir dir("ungated_row");
  const std::string base = dir.file(
      "BENCH_base.json",
      "{\"experiment\":\"x\",\"ticks_per_sec\":10.0,\"rows\":["
      "{\"label\":\"a\",\"wall_s\":1.0},{\"label\":\"b\",\"wall_s\":1.0}]}");
  const std::string cand = dir.file(
      "BENCH_cand.json",
      "{\"experiment\":\"x\",\"ticks_per_sec\":10.0,\"rows\":["
      "{\"label\":\"a\",\"wall_s\":1.0}]}");
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({cand, base}, out, err), 0);
}

TEST(BenchDiffCli, ThresholdParsesStrictly) {
  TempDir dir("threshold");
  const std::string base = dir.file("BENCH_base.json", kBaseline);
  const std::string bad =
      dir.file("BENCH_bad.json", candidate_with(1000.0, 400.0));
  for (const char* v : {"abc", "0.1x", "", "nan", "inf", "1", "1.5", "-0.1",
                        "1e999"}) {
    std::ostringstream out, err;
    EXPECT_EQ(run_benchdiff_cli({bad, base, "--threshold", v}, out, err), 2)
        << v;
    EXPECT_NE(err.str().find("--threshold"), std::string::npos) << v;
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({bad, base, "--threshold", "0.25"}, out, err),
            0);
  EXPECT_EQ(run_benchdiff_cli({bad, base, "--threshold", "0"}, out, err), 1);
}

// --- the machine fingerprint ---

TEST(BenchDiffCli, NestedObjectsAreNotDiffed) {
  // The "machine" fingerprint is a nested object; its numbers (even one
  // named like a gated key, and missing from the candidate) never enter
  // the numeric diff.
  const std::string base_text =
      "{\"experiment\":\"tick\",\"ticks_per_sec\":100.0,\"machine\":"
      "{\"hardware_concurrency\":4,\"ticks_per_sec_fake\":1.0},\"rows\":[]}";
  const std::string cand_text =
      "{\"experiment\":\"tick\",\"ticks_per_sec\":100.0,\"machine\":"
      "{\"hardware_concurrency\":64},\"rows\":[]}";
  const BenchDiff d = diff_bench(parse(base_text), parse(cand_text));
  ASSERT_EQ(d.metrics.size(), 1u);
  EXPECT_EQ(d.metrics[0].key, "ticks_per_sec");
  EXPECT_FALSE(d.any_regression);

  TempDir dir("nested");
  const std::string base = dir.file("BENCH_base.json", base_text);
  const std::string cand = dir.file("BENCH_cand.json", cand_text);
  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({cand, base}, out, err), 0);
}

TEST(BenchDiffCli, MachineFingerprintMismatchWarnsWithoutChangingExit) {
  TempDir dir("machine");
  const std::string machine_a =
      "\"machine\":{\"cpu_model\":\"Xeon A\",\"hardware_concurrency\":4}";
  const std::string machine_b =
      "\"machine\":{\"cpu_model\":\"Epyc B\",\"hardware_concurrency\":64}";
  auto doc = [](const std::string& machine, double tps) {
    std::ostringstream os;
    os << "{\"experiment\":\"tick\"," << machine
       << (machine.empty() ? "" : ",") << "\"ticks_per_sec\":" << tps
       << ",\"rows\":[]}";
    return os.str();
  };
  const std::string base_a = dir.file("base_a.json", doc(machine_a, 100.0));
  const std::string base_none = dir.file("base_none.json", doc("", 100.0));
  const std::string cand_a = dir.file("cand_a.json", doc(machine_a, 100.0));
  const std::string cand_b = dir.file("cand_b.json", doc(machine_b, 100.0));
  const std::string cand_b_bad =
      dir.file("cand_b_bad.json", doc(machine_b, 50.0));

  std::ostringstream out, err;
  EXPECT_EQ(run_benchdiff_cli({cand_a, base_a}, out, err), 0);
  EXPECT_EQ(out.str().find("machine fingerprint"), std::string::npos);

  out.str("");
  EXPECT_EQ(run_benchdiff_cli({cand_b, base_a}, out, err), 0);
  EXPECT_NE(out.str().find("machine fingerprint differs"), std::string::npos);
  EXPECT_NE(out.str().find("cpu_model=Xeon A; hardware_concurrency=4"),
            std::string::npos);
  EXPECT_NE(out.str().find("cpu_model=Epyc B; hardware_concurrency=64"),
            std::string::npos);

  out.str("");
  EXPECT_EQ(run_benchdiff_cli({cand_b, base_none}, out, err), 0);
  EXPECT_NE(out.str().find("machine fingerprint is absent"),
            std::string::npos);
  EXPECT_NE(out.str().find("baseline machine:  (none)"), std::string::npos);

  // A regression still exits 1 across machines.
  out.str("");
  EXPECT_EQ(run_benchdiff_cli({cand_b_bad, base_a}, out, err), 1);
}

}  // namespace
}  // namespace cocg::tools

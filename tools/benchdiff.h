// benchdiff — compare two BENCH_<experiment>.json results files.
//
// Every bench binary writes a flat results document (bench_util.h
// BenchJson): top-level scalar metrics plus a "rows" array of
// per-configuration records. benchdiff loads a candidate document and a
// baseline (a file, or a directory searched for the file whose
// "experiment" field matches), lines the rows up by index, sanity-checks
// that the configuration labels (all shared string fields) agree, and
// reports candidate/baseline ratios for every shared numeric field.
//
// Gated metrics — by default every key starting with "ticks_per_sec" —
// are throughput-style higher-is-better numbers: a gated ratio below
// 1 - threshold is a regression and flips the exit code to 1, and so does
// a gated baseline metric with no candidate counterpart. Everything else
// is informational. CI runs this against bench/baselines/ on the
// uploaded BENCH artifacts (see .github/workflows), and
// tests/tools/test_benchdiff.cpp drives run_benchdiff_cli directly.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace cocg::tools {

struct BenchDiffOptions {
  /// Regression when a gated ratio < 1 - threshold (default 10%).
  double threshold = 0.10;
  /// Key prefixes of gated (higher-is-better) metrics.
  std::vector<std::string> gate_prefixes = {"ticks_per_sec"};
};

/// One compared numeric field.
struct MetricDiff {
  std::string where;  ///< "top" or "rows[i]"
  std::string key;
  double baseline = 0.0;
  double candidate = 0.0;
  double ratio = 1.0;  ///< candidate / baseline (1.0 when baseline == 0)
  bool gated = false;
  bool regression = false;
};

/// Full comparison of two parsed BENCH documents.
struct BenchDiff {
  std::string experiment;
  std::vector<MetricDiff> metrics;
  /// Structural complaints (row-count mismatch, label mismatch). A
  /// non-empty list means some rows were skipped; it fails the diff only
  /// through `vanished`.
  std::vector<std::string> warnings;
  /// Gated baseline metrics the candidate cannot be checked against: a
  /// gated key missing from (or not numeric in) its candidate object, or
  /// a baseline row holding gated keys that found no candidate row. A
  /// gate that silently stops measuring is a failure, like a regression.
  std::vector<std::string> vanished;
  bool any_regression = false;

  bool failed() const { return any_regression || !vanished.empty(); }
};

/// Compare candidate against baseline. Both must be objects in the
/// bench_util.h shape; rows are matched by index (by labels when the row
/// counts differ) and skipped, with a warning, when their shared string
/// fields disagree. A skipped baseline row with gated keys is `vanished`.
BenchDiff diff_bench(const obs::JsonValue& baseline,
                     const obs::JsonValue& candidate,
                     const BenchDiffOptions& opts = {});

/// Human-readable ratio table (one line per metric, gated rows marked,
/// regressions flagged).
void write_diff_table(const BenchDiff& diff, std::ostream& os);

/// Resolve `baseline_path` to a concrete file: returned unchanged for a
/// regular file; for a directory, the *.json file inside whose
/// "experiment" field equals `experiment` (empty string when none found).
std::string resolve_baseline(const std::string& baseline_path,
                             const std::string& experiment);

/// The cocg_benchdiff CLI: args excludes argv[0]. Exit codes: 0 = no
/// gated regression, 1 = regression found or a gated metric vanished,
/// 2 = usage/parse error.
int run_benchdiff_cli(const std::vector<std::string>& args, std::ostream& out,
                      std::ostream& err);

}  // namespace cocg::tools

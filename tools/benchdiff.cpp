#include "benchdiff.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "cli_parse.h"
#include "common/table.h"

namespace cocg::tools {

namespace {

bool is_gated(const std::string& key, const BenchDiffOptions& opts) {
  for (const auto& prefix : opts.gate_prefixes) {
    if (key.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Append diffs for every numeric field present in both objects, in the
/// baseline's (map-sorted) key order. A gated baseline field the
/// candidate lacks is recorded as vanished.
void diff_numeric_fields(const obs::JsonValue& base, const obs::JsonValue& cand,
                         const std::string& where,
                         const BenchDiffOptions& opts, BenchDiff& out) {
  for (const auto& [key, bval] : base.object) {
    if (bval.kind != obs::JsonValue::Kind::kNumber) continue;
    const obs::JsonValue* cval = cand.find(key);
    if (cval == nullptr || cval->kind != obs::JsonValue::Kind::kNumber) {
      if (is_gated(key, opts)) {
        out.vanished.push_back(where + " " + key +
                               ": gated metric missing from the candidate");
      }
      continue;
    }
    MetricDiff m;
    m.where = where;
    m.key = key;
    m.baseline = bval.number;
    m.candidate = cval->number;
    m.ratio = bval.number != 0.0 ? cval->number / bval.number : 1.0;
    m.gated = is_gated(key, opts);
    m.regression =
        m.gated && m.baseline > 0.0 && m.ratio < 1.0 - opts.threshold;
    if (m.regression) out.any_regression = true;
    out.metrics.push_back(std::move(m));
  }
}

/// A baseline row that found no candidate partner: if it holds gated
/// keys, its gate would silently stop being checked, so it vanishes.
void note_unpaired_row(const obs::JsonValue& brow, const std::string& where,
                       const BenchDiffOptions& opts, BenchDiff& out) {
  std::string gated;
  for (const auto& [key, bval] : brow.object) {
    if (bval.kind != obs::JsonValue::Kind::kNumber || !is_gated(key, opts)) {
      continue;
    }
    gated += gated.empty() ? key : ", " + key;
  }
  if (!gated.empty()) {
    out.vanished.push_back(where + " (" + gated +
                           "): gated row has no candidate row");
  }
}

/// Rows describe the same configuration iff every string field present in
/// both agrees (e.g. {"noise":"on","obs":"off"}).
bool labels_match(const obs::JsonValue& base, const obs::JsonValue& cand,
                  std::string& why) {
  for (const auto& [key, bval] : base.object) {
    if (bval.kind != obs::JsonValue::Kind::kString) continue;
    const obs::JsonValue* cval = cand.find(key);
    if (cval == nullptr || cval->kind != obs::JsonValue::Kind::kString) {
      continue;
    }
    if (cval->string != bval.string) {
      why = key + ": \"" + bval.string + "\" vs \"" + cval->string + "\"";
      return false;
    }
  }
  return true;
}

/// A row's identity: every string field, in (map-sorted) key order. Used
/// to pair rows across files when positional matching is impossible.
std::string row_label_key(const obs::JsonValue& row) {
  std::string key;
  for (const auto& [k, v] : row.object) {
    if (v.kind != obs::JsonValue::Kind::kString) continue;
    key += k;
    key += '=';
    key += v.string;
    key += ';';
  }
  return key;
}

bool load_json_file(const std::string& path, obs::JsonValue& out,
                    std::string& err) {
  std::ifstream is(path);
  if (!is) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << is.rdbuf();
  if (!obs::json_parse(text.str(), out) || !out.is_object()) {
    err = "malformed BENCH json: " + path;
    return false;
  }
  return true;
}

/// One-line rendering of a BENCH document's "machine" fingerprint
/// (bench_util.h): its fields as sorted `key=value` pairs, or "(none)"
/// when the document has none.
std::string machine_fingerprint(const obs::JsonValue& doc) {
  const obs::JsonValue* m = doc.find("machine");
  if (m == nullptr || !m->is_object()) return "(none)";
  std::string text;
  for (const auto& [key, v] : m->object) {
    if (!text.empty()) text += "; ";
    text += key + "=";
    if (v.kind == obs::JsonValue::Kind::kString) {
      text += v.string;
    } else if (v.kind == obs::JsonValue::Kind::kNumber) {
      text += obs::json_number(v.number);
    } else {
      text += "?";
    }
  }
  return text;
}

int usage(std::ostream& err) {
  err << "usage: cocg_benchdiff <candidate.json> [baseline.json|dir]\n"
         "  baseline defaults to bench/baselines (directory: picks the\n"
         "  file whose \"experiment\" matches the candidate's)\n"
         "  --threshold X   gated regression bound (default 0.10)\n"
         "  --gate \"a,b\"    gated key prefixes (default ticks_per_sec)\n"
         "exit: 0 ok, 1 gated regression or gated metric missing from the\n"
         "  candidate, 2 usage/parse error\n";
  return 2;
}

}  // namespace

BenchDiff diff_bench(const obs::JsonValue& baseline,
                     const obs::JsonValue& candidate,
                     const BenchDiffOptions& opts) {
  BenchDiff out;
  out.experiment = candidate.get_string("experiment");
  const std::string base_exp = baseline.get_string("experiment");
  if (!base_exp.empty() && base_exp != out.experiment) {
    out.warnings.push_back("experiment mismatch: baseline \"" + base_exp +
                           "\" vs candidate \"" + out.experiment + "\"");
  }
  diff_numeric_fields(baseline, candidate, "top", opts, out);

  const obs::JsonValue* brows = baseline.find("rows");
  const obs::JsonValue* crows = candidate.find("rows");
  if (brows == nullptr || crows == nullptr || !brows->is_array() ||
      !crows->is_array()) {
    return out;
  }
  if (brows->array.size() != crows->array.size()) {
    // Positional pairing is meaningless when the row sets diverged (a
    // bench gained or lost a configuration); fall back to pairing rows
    // whose string labels agree and report what found no partner.
    out.warnings.push_back(
        "row count mismatch: baseline " + std::to_string(brows->array.size()) +
        " vs candidate " + std::to_string(crows->array.size()) +
        " (matching rows by labels)");
    std::map<std::string, const obs::JsonValue*> by_label;
    for (const auto& crow : crows->array) {
      if (crow.is_object()) by_label.emplace(row_label_key(crow), &crow);
    }
    std::size_t matched = 0;
    for (std::size_t i = 0; i < brows->array.size(); ++i) {
      const auto& brow = brows->array[i];
      if (!brow.is_object()) continue;
      const std::string key = row_label_key(brow);
      const auto it = by_label.find(key);
      if (it == by_label.end()) {
        out.warnings.push_back("rows[" + std::to_string(i) + "] {" + key +
                               "} has no candidate row, skipped");
        note_unpaired_row(brow, "rows[" + std::to_string(i) + "]", opts, out);
        continue;
      }
      ++matched;
      diff_numeric_fields(brow, *it->second, "rows[" + std::to_string(i) + "]",
                          opts, out);
      by_label.erase(it);
    }
    for (const auto& [key, crow] : by_label) {
      out.warnings.push_back("candidate row {" + key +
                             "} has no baseline row, skipped");
    }
    out.warnings.push_back("matched " + std::to_string(matched) +
                           " row(s) by labels");
    return out;
  }
  const std::size_t n = std::min(brows->array.size(), crows->array.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& brow = brows->array[i];
    const auto& crow = crows->array[i];
    if (!brow.is_object() || !crow.is_object()) continue;
    std::string why;
    if (!labels_match(brow, crow, why)) {
      out.warnings.push_back("rows[" + std::to_string(i) +
                             "] labels differ (" + why + "), skipped");
      note_unpaired_row(brow, "rows[" + std::to_string(i) + "]", opts, out);
      continue;
    }
    diff_numeric_fields(brow, crow, "rows[" + std::to_string(i) + "]", opts,
                        out);
  }
  return out;
}

void write_diff_table(const BenchDiff& diff, std::ostream& os) {
  os << "experiment: "
     << (diff.experiment.empty() ? "(unnamed)" : diff.experiment) << "\n";
  for (const auto& w : diff.warnings) os << "warning: " << w << "\n";
  for (const auto& v : diff.vanished) os << "VANISHED: " << v << "\n";
  TablePrinter table({"where", "metric", "baseline", "candidate", "ratio",
                      "status"});
  for (const auto& m : diff.metrics) {
    const std::string status =
        m.regression ? "REGRESSION" : (m.gated ? "ok (gated)" : "info");
    table.add_row({m.where, m.key, TablePrinter::fmt(m.baseline, 3),
                   TablePrinter::fmt(m.candidate, 3),
                   TablePrinter::fmt(m.ratio, 3), status});
  }
  table.print(os);
}

std::string resolve_baseline(const std::string& baseline_path,
                             const std::string& experiment) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(baseline_path, ec)) return baseline_path;
  for (const auto& entry : fs::directory_iterator(baseline_path, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") {
      continue;
    }
    obs::JsonValue doc;
    std::string err;
    if (!load_json_file(entry.path().string(), doc, err)) continue;
    if (doc.get_string("experiment") == experiment) {
      return entry.path().string();
    }
  }
  return "";
}

int run_benchdiff_cli(const std::vector<std::string>& args, std::ostream& out,
                      std::ostream& err) {
  BenchDiffOptions opts;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    if (a == "--threshold") {
      const std::string* v = next();
      if (v == nullptr) return usage(err);
      try {
        opts.threshold = parse_unit_fraction("--threshold", *v);
      } catch (const std::runtime_error& e) {
        err << "error: " << e.what() << "\n";
        return 2;
      }
    } else if (a == "--gate") {
      const std::string* v = next();
      if (v == nullptr) return usage(err);
      opts.gate_prefixes.clear();
      std::stringstream ss(*v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) opts.gate_prefixes.push_back(item);
      }
    } else if (a == "--help" || a == "-h") {
      return usage(err);
    } else if (!a.empty() && a[0] == '-') {
      err << "unknown flag: " << a << "\n";
      return usage(err);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.empty() || positional.size() > 2) return usage(err);
  const std::string cand_path = positional[0];
  const std::string base_arg =
      positional.size() > 1 ? positional[1] : "bench/baselines";

  obs::JsonValue cand;
  std::string load_err;
  if (!load_json_file(cand_path, cand, load_err)) {
    err << "error: " << load_err << "\n";
    return 2;
  }
  // A missing baseline is a distinct failure from a regression: the gate
  // has nothing to compare against, so fail loudly with its own message
  // (CI treats exit 2 as "fix the setup", not "perf regressed").
  {
    std::error_code ec;
    if (!std::filesystem::exists(base_arg, ec) || ec) {
      err << "error: baseline " << base_arg
          << " not found or unreadable — no baseline to gate against\n";
      return 2;
    }
  }
  const std::string base_path =
      resolve_baseline(base_arg, cand.get_string("experiment"));
  if (base_path.empty()) {
    err << "error: no baseline for experiment \""
        << cand.get_string("experiment") << "\" in " << base_arg << "\n";
    return 2;
  }
  obs::JsonValue base;
  if (!load_json_file(base_path, base, load_err)) {
    err << "error: baseline unreadable: " << load_err << "\n";
    return 2;
  }

  out << "candidate: " << cand_path << "\nbaseline:  " << base_path << "\n";
  // Informational only: absolute numbers from two machines still diff,
  // but the reader should know that is what they compare.
  const std::string base_machine = machine_fingerprint(base);
  const std::string cand_machine = machine_fingerprint(cand);
  if (base_machine == "(none)" || base_machine != cand_machine) {
    out << "warning: baseline machine fingerprint "
        << (base_machine == "(none)" ? "is absent" : "differs") << "\n"
        << "  baseline machine:  " << base_machine << "\n"
        << "  candidate machine: " << cand_machine << "\n";
  }
  const BenchDiff diff = diff_bench(base, cand, opts);
  write_diff_table(diff, out);
  if (diff.failed()) {
    if (diff.any_regression) {
      out << "FAIL: gated metric regressed more than "
          << static_cast<int>(opts.threshold * 100.0) << "%\n";
    }
    if (!diff.vanished.empty()) {
      out << "FAIL: " << diff.vanished.size()
          << " gated metric(s) or row(s) missing from the candidate\n";
    }
    return 1;
  }
  out << "PASS: no gated regression beyond "
      << static_cast<int>(opts.threshold * 100.0) << "%\n";
  return 0;
}

}  // namespace cocg::tools

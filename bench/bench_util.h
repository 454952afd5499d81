// Shared helpers for the experiment-regeneration binaries.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation section: it runs the experiment on the simulated platform and
// prints the same rows/series the paper reports, plus a CSV next to the
// binary for plotting.
#pragma once

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/table.h"
#include "core/offline.h"
#include "game/library.h"
#include "obs/json.h"

namespace cocg::bench {

/// Print a standard experiment banner.
inline void banner(const std::string& experiment, const std::string& what) {
  std::cout << "==================================================\n"
            << experiment << " — " << what << "\n"
            << "==================================================\n";
}

/// The five paper games with static storage — TrainedGame::spec points
/// into this, so benches must train against it, never a temporary.
inline const std::vector<game::GameSpec>& paper_suite_static() {
  static const std::vector<game::GameSpec> s = game::paper_suite();
  return s;
}

/// Offline training configuration shared by the benches (heavier than the
/// unit tests: more runs → tighter profiles).
inline core::OfflineConfig bench_offline_config(std::uint64_t seed = 2024) {
  core::OfflineConfig cfg;
  cfg.profiling_runs = 14;
  cfg.corpus_runs = 80;
  cfg.players = 12;
  cfg.seed = seed;
  return cfg;
}

// Build facts bench/CMakeLists.txt passes in.
#ifndef COCG_BUILD_TYPE
#define COCG_BUILD_TYPE "unknown"
#endif
#ifndef COCG_CXX_FLAGS
#define COCG_CXX_FLAGS "unknown"
#endif

/// `v` as a JSON string literal. Built by appending: GCC 12's -Wrestrict
/// misfires on `"\"" + s + "\""` in Release builds.
inline std::string json_quoted(const std::string& v) {
  std::string quoted = "\"";
  quoted += obs::json_escape(v);
  quoted += '"';
  return quoted;
}

/// The machine a result was measured on, as a JSON object: CPU model,
/// hardware threads, compiler and version, build type and C++ flags.
/// cocg_benchdiff warns when a baseline's fingerprint differs from the
/// candidate's, because absolute numbers then compare two machines.
inline std::string machine_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto value = line.find_first_not_of(" \t", line.find(':') + 1);
    if (value != std::string::npos) cpu = line.substr(value);
    break;
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "GCC " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"cpu_model\":" + json_quoted(cpu) + ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":" + json_quoted(compiler) +
         ",\"build_type\":" + json_quoted(COCG_BUILD_TYPE) +
         ",\"cxx_flags\":" + json_quoted(COCG_CXX_FLAGS) + "}";
}

/// Machine-readable experiment results: top-level scalar metrics, the
/// machine fingerprint, and an array of per-configuration rows, written
/// as BENCH_<experiment>.json beside the binary. The perf trajectory
/// tracks these files across PRs, so keys should stay stable (wall-clock
/// and throughput numbers especially).
class BenchJson {
 public:
  explicit BenchJson(std::string experiment)
      : experiment_(std::move(experiment)) {}

  void set(const std::string& key, double v) {
    top_.emplace_back(key, obs::json_number(v));
  }
  void set(const std::string& key, const std::string& v) {
    top_.emplace_back(key, json_quoted(v));
  }

  class Row {
   public:
    Row& set(const std::string& key, double v) {
      fields_.emplace_back(key, obs::json_number(v));
      return *this;
    }
    Row& set(const std::string& key, const std::string& v) {
      fields_.emplace_back(key, json_quoted(v));
      return *this;
    }

   private:
    friend class BenchJson;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& row() { return rows_.emplace_back(); }

  /// Write BENCH_<experiment>.json; returns the path written.
  std::string write() const {
    const std::string path = "BENCH_" + experiment_ + ".json";
    std::ofstream os(path);
    os << "{\"experiment\":\"" << obs::json_escape(experiment_) << "\"";
    os << ",\"machine\":" << machine_json();
    for (const auto& [k, v] : top_) {
      os << ",\"" << obs::json_escape(k) << "\":" << v;
    }
    os << ",\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i != 0) os << ',';
      os << '{';
      for (std::size_t j = 0; j < rows_[i].fields_.size(); ++j) {
        if (j != 0) os << ',';
        os << '"' << obs::json_escape(rows_[i].fields_[j].first)
           << "\":" << rows_[i].fields_[j].second;
      }
      os << '}';
    }
    os << "]}\n";
    std::cout << "[json] " << path << "\n";
    return path;
  }

 private:
  std::string experiment_;
  std::vector<std::pair<std::string, std::string>> top_;
  std::vector<Row> rows_;
};

/// Write a CSV beside the binary; returns the path written.
inline std::string write_csv(const std::string& name,
                             const std::vector<std::vector<std::string>>& rows) {
  const std::string path = name + ".csv";
  CsvWriter w(path);
  for (const auto& r : rows) w.write_row(r);
  std::cout << "[csv] " << path << "\n";
  return path;
}

}  // namespace cocg::bench

// Schedule artifacts — the versioned text format of recorded scheduler
// decisions (`cocg-sched-v1`).
//
// A schedule captures every *named decision point* the fleet hit during a
// run, grouped into one stream per logical decision maker: stream 0 is
// the fleet coordinator (router choice, executor sync), stream i+1 is
// shard i (admission, migration trigger, regulator victim/hold). Each
// stream is only ever driven by one thread at a time — the coordinator is
// single-threaded and shard epoch jobs are thread-confined — so the
// recorded bytes are identical for any thread count.
//
// Every record carries the per-stream decision index `seq` (how many
// decisions that stream had made when this one was taken). Replay anchors
// on seq: when a stream's next decision index matches the next record, the
// decision is forced to the recorded choice; otherwise the decision runs
// free. A full recording therefore forces every decision (byte-identical
// reports), while a schedule stripped down to a handful of records — a
// fuzzed variant or a minimized reproducer — forces exactly those and lets
// the simulation fill in the rest deterministically.
//
// The file embeds the point-name taxonomy so a schedule recorded against a
// different build (renamed or renumbered points) fails loudly at parse
// time instead of silently forcing the wrong decisions. All parse errors
// throw std::runtime_error with a 1-based line number (common/textio.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace cocg::schedcheck {

/// The decision-point taxonomy. Order is the wire id — append only.
enum class Point : std::uint8_t {
  kRouterChoice = 0,   ///< coordinator: which shard hosts an arrival
  kAdmission,          ///< shard: commit (1) or defer (0) a found placement
  kMigrationTrigger,   ///< shard: fire (1) or skip (0) a model replacement
  kRegulatorVictim,    ///< shard: which eligible loading session to steal from
  kRegulatorHold,      ///< shard: hold (1) or release (0) the chosen victim
  kExecutorSync,       ///< coordinator: drain + refresh loads this epoch
  kExecutorSteal,      ///< wall-class: counted only, never recorded or forced
};
inline constexpr std::size_t kNumPoints = 7;

const char* point_name(Point p);
std::optional<Point> parse_point(const std::string& name);

/// One recorded decision. `seq` is the stream's decision counter at the
/// time of the decision — the replay anchor; `t` is simulated time, kept
/// for humans reading minimized reproducers.
struct Record {
  Point point = Point::kRouterChoice;
  TimeMs t = 0;
  std::uint64_t seq = 0;
  std::uint32_t nchoices = 1;  ///< decision arity at the call site
  std::uint32_t choice = 0;    ///< the taken (or forced) alternative
};

bool operator==(const Record& a, const Record& b);
inline bool operator!=(const Record& a, const Record& b) { return !(a == b); }

struct Schedule {
  /// Free-form provenance (scenario echo); replayed tools rebuild the run
  /// configuration from these, making failing schedules self-contained.
  std::vector<std::pair<std::string, std::string>> meta;
  /// streams[0] = coordinator, streams[i + 1] = shard i.
  std::vector<std::vector<Record>> streams;

  int num_shards() const { return static_cast<int>(streams.size()) - 1; }
  std::size_t total_records() const;
  /// First value for `key`, or "" when absent.
  std::string meta_value(const std::string& key) const;
  /// Replace the first `key` entry (append when absent).
  void set_meta(const std::string& key, const std::string& value);
};

bool operator==(const Schedule& a, const Schedule& b);
inline bool operator!=(const Schedule& a, const Schedule& b) {
  return !(a == b);
}

void write_schedule(const Schedule& s, std::ostream& os);
std::string schedule_text(const Schedule& s);
/// Parse a `cocg-sched-v1` stream; throws std::runtime_error on malformed
/// input or a point taxonomy that disagrees with this build.
Schedule read_schedule(std::istream& is);
Schedule load_schedule(const std::string& path);
void save_schedule(const Schedule& s, const std::string& path);

}  // namespace cocg::schedcheck

// Record/replay engine for schedule points.
//
// A Session owns one decision stream per logical decision maker (stream 0
// = fleet coordinator, stream i+1 = shard i). Threads bind a stream via
// the RAII ScopedStream, which installs a thread-local StreamCtx pointer;
// the instrumentation macroless API (`decide` / `decide_lazy`) consults
// that pointer and is a single null check when no session is attached —
// the zero-overhead-when-disabled contract.
//
// Replay is seq-anchored: each stream counts its decisions; a decision is
// forced only when the front of the stream's record list matches the
// current decision index. Records the replay skips past (seq already
// behind — the variant diverged) and records left unconsumed at finish()
// are counted, and optionally fatal under strict replay. With `rerecord`
// set, a replay also re-captures the decisions it actually took, which is
// how the record→replay→re-record fixed-point test closes the loop.
//
// Thread-safety: each stream is driven by at most one thread at a time
// (the fleet guarantees this — shard jobs are thread-confined and the
// coordinator is single-threaded), so StreamCtx needs no locks. The only
// cross-thread member is the wall-class point counter, which is atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "schedcheck/schedule.h"

namespace cocg::schedcheck {

enum class Mode : std::uint8_t { kOff = 0, kRecord, kReplay };

/// Thrown by strict replay when the run diverges from the schedule (a
/// decision the schedule expected never happened, happened with a
/// different point, or records were left unconsumed).
class ScheduleDivergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Aggregated over all streams by Session::finish().
struct ReplayStats {
  std::uint64_t decisions = 0;    ///< decision points hit
  std::uint64_t forced = 0;       ///< forced to a recorded choice
  std::uint64_t freerun = 0;      ///< replay decisions with no matching record
  std::uint64_t divergences = 0;  ///< skipped records / point mismatches
  std::uint64_t clamped = 0;      ///< forced choice was out of range
  std::uint64_t unconsumed = 0;   ///< records left at finish()
  std::uint64_t wall_points = 0;  ///< wall-class events (executor steals)
};

class Session;

namespace detail {

/// Per-stream decision state. Owned by the Session, bound to a thread via
/// ScopedStream while that thread drives the stream.
struct StreamCtx {
  Session* owner = nullptr;
  int stream = 0;
  Mode mode = Mode::kOff;
  bool strict = false;
  bool rerecord = false;

  std::uint64_t next_seq = 0;
  std::vector<Record> rec;       ///< record / re-record sink
  const std::vector<Record>* src = nullptr;  ///< replay source
  std::size_t cursor = 0;

  // Clock for stamping records: a raw function pointer so binding a
  // stream never allocates (std::function would).
  TimeMs (*clock_fn)(const void*) = nullptr;
  const void* clock_arg = nullptr;

  std::uint64_t decisions = 0;
  std::uint64_t forced = 0;
  std::uint64_t freerun = 0;
  std::uint64_t divergences = 0;
  std::uint64_t clamped = 0;

  TimeMs now() const { return clock_fn ? clock_fn(clock_arg) : 0; }
};

StreamCtx*& tls_stream();

int decide_slow(StreamCtx& ctx, Point p, int nchoices, int natural,
                bool* forced_out);

}  // namespace detail

class Session {
 public:
  static constexpr int kCoordinatorStream = 0;

  /// One coordinator stream plus one stream per shard.
  explicit Session(int num_shards) {
    COCG_EXPECTS(num_shards >= 1);
    streams_.resize(static_cast<std::size_t>(num_shards) + 1);
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      streams_[i].owner = this;
      streams_[i].stream = static_cast<int>(i);
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int num_streams() const { return static_cast<int>(streams_.size()); }

  void start_record() {
    reset_streams();
    for (auto& s : streams_) s.mode = Mode::kRecord;
  }

  /// `strict` turns divergences and unconsumed records into
  /// ScheduleDivergenceError; `rerecord` re-captures the decisions taken
  /// during replay (Session::recorded() then holds the re-recording).
  void start_replay(const Schedule& schedule, bool strict = false,
                    bool rerecord = false) {
    if (static_cast<int>(schedule.streams.size()) != num_streams()) {
      throw std::runtime_error(
          "schedule has " + std::to_string(schedule.streams.size()) +
          " streams but the session expects " +
          std::to_string(num_streams()) +
          " (coordinator + one per shard) — shard count mismatch");
    }
    replay_src_ = schedule.streams;
    reset_streams();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      streams_[i].mode = Mode::kReplay;
      streams_[i].strict = strict;
      streams_[i].rerecord = rerecord;
      streams_[i].src = &replay_src_[i];
    }
  }

  /// The schedule captured so far (record mode, or replay+rerecord).
  Schedule recorded() const {
    Schedule s;
    s.streams.reserve(streams_.size());
    for (const auto& st : streams_) s.streams.push_back(st.rec);
    return s;
  }

  /// Aggregate stats and — under strict replay — verify full consumption.
  ReplayStats finish() {
    ReplayStats out = stats();
    for (const auto& st : streams_) {
      if (st.src != nullptr) {
        out.unconsumed += st.src->size() - st.cursor;
      }
    }
    if (out.unconsumed > 0) {
      for (const auto& st : streams_) {
        if (st.strict && st.src != nullptr && st.cursor < st.src->size()) {
          const Record& r = (*st.src)[st.cursor];
          throw ScheduleDivergenceError(
              "strict replay: stream " + std::to_string(st.stream) + " has " +
              std::to_string(st.src->size() - st.cursor) +
              " unconsumed records (next: " + point_name(r.point) + " seq " +
              std::to_string(r.seq) + ")");
        }
      }
    }
    return out;
  }

  /// Snapshot without the unconsumed check.
  ReplayStats stats() const {
    ReplayStats out;
    for (const auto& st : streams_) {
      out.decisions += st.decisions;
      out.forced += st.forced;
      out.freerun += st.freerun;
      out.divergences += st.divergences;
      out.clamped += st.clamped;
    }
    out.wall_points = wall_points_.load(std::memory_order_relaxed);
    return out;
  }

  /// Wall-class points (executor steals): counted post-hoc, never forced —
  /// thread confinement makes the steal victim irrelevant to results.
  void note_wall_points(std::uint64_t n) {
    wall_points_.fetch_add(n, std::memory_order_relaxed);
  }

  detail::StreamCtx& stream(int idx) {
    COCG_EXPECTS(idx >= 0 && idx < num_streams());
    return streams_[static_cast<std::size_t>(idx)];
  }

 private:
  void reset_streams() {
    for (auto& s : streams_) {
      s.mode = Mode::kOff;
      s.strict = false;
      s.rerecord = false;
      s.next_seq = 0;
      s.rec.clear();
      s.src = nullptr;
      s.cursor = 0;
      s.decisions = 0;
      s.forced = 0;
      s.freerun = 0;
      s.divergences = 0;
      s.clamped = 0;
    }
    wall_points_.store(0, std::memory_order_relaxed);
  }

  std::vector<detail::StreamCtx> streams_;
  std::vector<std::vector<Record>> replay_src_;
  std::atomic<std::uint64_t> wall_points_{0};
};

/// Binds `session`'s stream `stream` to the current thread for the scope.
/// Null session → no-op (the disabled fast path). Nests: the previous
/// binding is restored on destruction, so inline job execution on the
/// coordinator thread (threads=1) works unchanged.
class ScopedStream {
 public:
  ScopedStream(Session* session, int stream,
               TimeMs (*clock_fn)(const void*) = nullptr,
               const void* clock_arg = nullptr)
      : prev_(detail::tls_stream()) {
    if (session != nullptr) {
      detail::StreamCtx& ctx = session->stream(stream);
      ctx.clock_fn = clock_fn;
      ctx.clock_arg = clock_arg;
      detail::tls_stream() = &ctx;
    }
  }
  ~ScopedStream() { detail::tls_stream() = prev_; }
  ScopedStream(const ScopedStream&) = delete;
  ScopedStream& operator=(const ScopedStream&) = delete;

 private:
  detail::StreamCtx* prev_;
};

/// True when the current thread is inside a bound stream — i.e. a
/// record/replay session is driving this code path.
inline bool active() { return detail::tls_stream() != nullptr; }

/// Report a decision with `nchoices` alternatives whose natural outcome is
/// `natural`. Off the instrumented path this is one TLS load and a branch.
/// Returns the (possibly forced) choice; `forced_out`, when non-null, is
/// set to whether replay overrode the natural choice — callers that
/// normally compute side effects while choosing use this to apply the
/// side effects of a forced choice explicitly.
inline int decide(Point p, int nchoices, int natural,
                  bool* forced_out = nullptr) {
  detail::StreamCtx* ctx = detail::tls_stream();
  if (ctx == nullptr) {
    if (forced_out != nullptr) *forced_out = false;
    return natural;
  }
  return detail::decide_slow(*ctx, p, nchoices, natural, forced_out);
}

/// Like decide(), but the natural choice is computed lazily — skipped
/// entirely when replay forces the decision. Use when computing the
/// natural choice has side effects (RNG draws, router accounting) that a
/// forced decision must not incur.
template <typename F>
inline int decide_lazy(Point p, int nchoices, F&& natural,
                       bool* forced_out = nullptr) {
  detail::StreamCtx* ctx = detail::tls_stream();
  if (ctx == nullptr) {
    if (forced_out != nullptr) *forced_out = false;
    return natural();
  }
  // Peek: only evaluate the natural choice if this decision is not forced.
  const std::uint64_t seq = ctx->next_seq;
  bool will_force = false;
  if (ctx->mode == Mode::kReplay && ctx->src != nullptr) {
    std::size_t c = ctx->cursor;
    const auto& src = *ctx->src;
    while (c < src.size() && src[c].seq < seq) ++c;
    will_force = c < src.size() && src[c].seq == seq &&
                 src[c].point == p;
  }
  const int nat = will_force ? 0 : natural();
  return detail::decide_slow(*ctx, p, nchoices, nat, forced_out);
}

}  // namespace cocg::schedcheck

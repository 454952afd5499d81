#include "schedcheck/session.h"

#include <gtest/gtest.h>

#include "schedcheck/schedule.h"

namespace cocg::schedcheck {
namespace {

TimeMs fixed_clock(const void* arg) {
  return *static_cast<const TimeMs*>(arg);
}

TEST(SchedSession, InactiveDecidePassesThrough) {
  ASSERT_FALSE(active());
  bool forced = true;
  EXPECT_EQ(decide(Point::kAdmission, 2, 1, &forced), 1);
  EXPECT_FALSE(forced);
  int evals = 0;
  EXPECT_EQ(decide_lazy(Point::kRouterChoice, 4,
                        [&] {
                          ++evals;
                          return 3;
                        }),
            3);
  EXPECT_EQ(evals, 1);
}

TEST(SchedSession, RecordCapturesDecisions) {
  Session session(1);
  session.start_record();
  TimeMs now = 1000;
  {
    ScopedStream ss(&session, Session::kCoordinatorStream, &fixed_clock,
                    &now);
    ASSERT_TRUE(active());
    EXPECT_EQ(decide(Point::kRouterChoice, 4, 2), 2);
    now = 2000;
    EXPECT_EQ(decide(Point::kRouterChoice, 4, 0), 0);
  }
  EXPECT_FALSE(active());
  const Schedule rec = session.recorded();
  ASSERT_EQ(rec.streams.size(), 2u);
  ASSERT_EQ(rec.streams[0].size(), 2u);
  EXPECT_EQ(rec.streams[0][0],
            (Record{Point::kRouterChoice, 1000, 0, 4, 2}));
  EXPECT_EQ(rec.streams[0][1],
            (Record{Point::kRouterChoice, 2000, 1, 4, 0}));
  EXPECT_TRUE(rec.streams[1].empty());
  EXPECT_EQ(session.finish().decisions, 2u);
}

TEST(SchedSession, ReplayForcesRecordedChoices) {
  Schedule s;
  s.streams.resize(2);
  s.streams[0] = {{Point::kRouterChoice, 0, 0, 4, 3},
                  {Point::kRouterChoice, 0, 1, 4, 1}};
  Session session(1);
  session.start_replay(s);
  {
    ScopedStream ss(&session, Session::kCoordinatorStream);
    bool forced = false;
    EXPECT_EQ(decide(Point::kRouterChoice, 4, 0, &forced), 3);
    EXPECT_TRUE(forced);
    EXPECT_EQ(decide(Point::kRouterChoice, 4, 0, &forced), 1);
    EXPECT_TRUE(forced);
    // Past the end of the stream: free-run.
    EXPECT_EQ(decide(Point::kRouterChoice, 4, 2, &forced), 2);
    EXPECT_FALSE(forced);
  }
  const ReplayStats st = session.finish();
  EXPECT_EQ(st.decisions, 3u);
  EXPECT_EQ(st.forced, 2u);
  EXPECT_EQ(st.freerun, 1u);
  EXPECT_EQ(st.divergences, 0u);
  EXPECT_EQ(st.unconsumed, 0u);
}

TEST(SchedSession, ReplayClampsOutOfRangeChoice) {
  // A mutated schedule may force a choice the narrower live arity cannot
  // express; replay clamps (mod) instead of crashing the run.
  Schedule s;
  s.streams.resize(2);
  s.streams[0] = {{Point::kRouterChoice, 0, 0, 8, 7}};
  Session session(1);
  session.start_replay(s);
  {
    ScopedStream ss(&session, Session::kCoordinatorStream);
    EXPECT_EQ(decide(Point::kRouterChoice, 3, 0), 7 % 3);
  }
  EXPECT_EQ(session.finish().clamped, 1u);
}

TEST(SchedSession, ReplaySkipsStaleRecords) {
  // Record seq 1 never comes up again once the stream is past it; replay
  // counts the skip as a divergence and keeps going.
  Schedule s;
  s.streams.resize(2);
  s.streams[1] = {{Point::kAdmission, 0, 1, 2, 0},
                  {Point::kAdmission, 0, 3, 2, 0}};
  Session session(1);
  session.start_replay(s);
  {
    ScopedStream ss(&session, 1);
    EXPECT_EQ(decide(Point::kAdmission, 2, 1), 1);  // seq 0: free-run
    EXPECT_EQ(decide(Point::kAdmission, 2, 1), 0);  // seq 1: forced
    EXPECT_EQ(decide(Point::kAdmission, 2, 1), 1);  // seq 2: free-run
    EXPECT_EQ(decide(Point::kAdmission, 2, 1), 0);  // seq 3: forced
  }
  const ReplayStats st = session.finish();
  EXPECT_EQ(st.forced, 2u);
  EXPECT_EQ(st.freerun, 2u);
  EXPECT_EQ(st.unconsumed, 0u);
}

TEST(SchedSession, StrictReplayThrowsOnPointMismatch) {
  Schedule s;
  s.streams.resize(2);
  s.streams[1] = {{Point::kRegulatorHold, 0, 0, 2, 1}};
  Session session(1);
  session.start_replay(s, /*strict=*/true);
  ScopedStream ss(&session, 1);
  EXPECT_THROW(decide(Point::kAdmission, 2, 1), ScheduleDivergenceError);
}

TEST(SchedSession, StrictReplayThrowsOnUnconsumedAtFinish) {
  Schedule s;
  s.streams.resize(2);
  s.streams[0] = {{Point::kRouterChoice, 0, 0, 2, 1}};
  Session session(1);
  session.start_replay(s, /*strict=*/true);
  EXPECT_THROW(session.finish(), ScheduleDivergenceError);
  // Non-strict replay reports the same situation as a count.
  session.start_replay(s, /*strict=*/false);
  EXPECT_EQ(session.finish().unconsumed, 1u);
}

TEST(SchedSession, RerecordCapturesTakenDecisions) {
  Schedule s;
  s.streams.resize(2);
  s.streams[0] = {{Point::kRouterChoice, 0, 0, 4, 3}};
  Session session(1);
  session.start_replay(s, /*strict=*/false, /*rerecord=*/true);
  {
    ScopedStream ss(&session, Session::kCoordinatorStream);
    decide(Point::kRouterChoice, 4, 0);  // forced to 3
    decide(Point::kRouterChoice, 4, 2);  // free-runs to 2
  }
  const Schedule rr = session.recorded();
  ASSERT_EQ(rr.streams[0].size(), 2u);
  EXPECT_EQ(rr.streams[0][0].choice, 3u);
  EXPECT_EQ(rr.streams[0][1].choice, 2u);
}

TEST(SchedSession, DecideLazySkipsNaturalWhenForced) {
  Schedule s;
  s.streams.resize(2);
  s.streams[0] = {{Point::kRouterChoice, 0, 0, 4, 3}};
  Session session(1);
  session.start_replay(s);
  {
    ScopedStream ss(&session, Session::kCoordinatorStream);
    int evals = 0;
    auto natural = [&] {
      ++evals;
      return 1;
    };
    EXPECT_EQ(decide_lazy(Point::kRouterChoice, 4, natural), 3);
    EXPECT_EQ(evals, 0);  // forced: the natural path must not run
    EXPECT_EQ(decide_lazy(Point::kRouterChoice, 4, natural), 1);
    EXPECT_EQ(evals, 1);  // free-run: natural path runs exactly once
  }
}

TEST(SchedSession, ScopedStreamNestsAndRestores) {
  Session session(1);
  session.start_record();
  ScopedStream outer(&session, Session::kCoordinatorStream);
  decide(Point::kRouterChoice, 2, 0);
  {
    // A shard stream bound on the coordinator thread.
    ScopedStream inner(&session, 1);
    decide(Point::kAdmission, 2, 1);
  }
  decide(Point::kRouterChoice, 2, 1);
  const Schedule rec = session.recorded();
  EXPECT_EQ(rec.streams[0].size(), 2u);
  EXPECT_EQ(rec.streams[1].size(), 1u);
  EXPECT_EQ(rec.streams[0][1].seq, 1u);  // coordinator seq unaffected
}

TEST(SchedSession, NullSessionScopeIsANoOp) {
  ScopedStream ss(nullptr, 0);
  EXPECT_FALSE(active());
  EXPECT_EQ(decide(Point::kAdmission, 2, 1), 1);
}

TEST(SchedSession, WallPointsAggregate) {
  Session session(2);
  session.start_record();
  session.note_wall_points(3);
  session.note_wall_points(4);
  EXPECT_EQ(session.finish().wall_points, 7u);
}

TEST(SchedSession, ReplayRejectsShardCountMismatch) {
  Schedule s;
  s.streams.resize(4);
  Session session(1);  // expects 2 streams
  EXPECT_THROW(session.start_replay(s), std::runtime_error);
}

}  // namespace
}  // namespace cocg::schedcheck

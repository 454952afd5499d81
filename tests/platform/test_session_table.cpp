#include "platform/session_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace cocg::platform {
namespace {

TEST(SessionTable, EmplaceFindErase) {
  SessionTable<int> t;
  EXPECT_TRUE(t.empty());
  t.emplace(SessionId{5}) = 50;
  t.emplace(SessionId{3}) = 30;
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(SessionId{5}), nullptr);
  EXPECT_EQ(*t.find(SessionId{5}), 50);
  EXPECT_EQ(t.find(SessionId{4}), nullptr);
  EXPECT_TRUE(t.contains(SessionId{3}));
  EXPECT_TRUE(t.erase(SessionId{5}));
  EXPECT_FALSE(t.erase(SessionId{5}));
  EXPECT_EQ(t.find(SessionId{5}), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(SessionTable, SlotsAreRecycled) {
  SessionTable<std::string> t;
  for (std::uint64_t i = 1; i <= 8; ++i) t.emplace(SessionId{i}) = std::string("x");
  const std::size_t slots = t.slot_count();
  // Steady churn: every admission after a departure reuses a freed slot.
  for (std::uint64_t i = 9; i <= 200; ++i) {
    t.erase(SessionId{i - 8});
    t.emplace(SessionId{i}) = std::string("y");
  }
  EXPECT_EQ(t.slot_count(), slots);
  EXPECT_EQ(t.size(), 8u);
}

TEST(SessionTable, SortedIdsRecoversMapOrder) {
  SessionTable<int> t;
  for (std::uint64_t v : {9, 2, 14, 5, 1}) t.emplace(SessionId{v});
  t.erase(SessionId{5});
  t.emplace(SessionId{4});  // recycles 5's slot out of id order
  const auto ids = t.sorted_ids();
  ASSERT_EQ(ids.size(), 5u);
  const std::vector<std::uint64_t> want{1, 2, 4, 9, 14};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ids[i].value, want[i]);
  }
}

TEST(SessionTable, ForEachVisitsOnlyLive) {
  SessionTable<int> t;
  for (std::uint64_t i = 1; i <= 5; ++i) t.emplace(SessionId{i}) = 1;
  t.erase(SessionId{2});
  t.erase(SessionId{4});
  int visited = 0;
  t.for_each([&](SessionId sid, int&) {
    EXPECT_TRUE(sid.value % 2 == 1);
    ++visited;
  });
  EXPECT_EQ(visited, 3);
}

TEST(SessionTable, ConsistencyAuditCleanAcrossLifecycle) {
  // consistency_error() is the schedcheck invariant suite's structural
  // audit; it must stay empty through every legal sequence of operations,
  // including slot recycling and interleaved erases.
  SessionTable<int> t;
  EXPECT_EQ(t.consistency_error(), "");
  for (std::uint64_t i = 1; i <= 8; ++i) t.emplace(SessionId{i}) = 1;
  EXPECT_EQ(t.consistency_error(), "");
  t.erase(SessionId{3});
  t.erase(SessionId{7});
  t.erase(SessionId{1});
  EXPECT_EQ(t.consistency_error(), "");
  t.emplace(SessionId{20});  // recycles a freed slot
  t.emplace(SessionId{21});
  EXPECT_EQ(t.consistency_error(), "");
  for (std::uint64_t i : {2, 4, 5, 6, 8, 20, 21}) t.erase(SessionId{i});
  EXPECT_EQ(t.consistency_error(), "");
  t.emplace(SessionId{100});
  EXPECT_EQ(t.consistency_error(), "");
}

TEST(SessionTable, EraseReleasesValueEagerly) {
  SessionTable<std::shared_ptr<int>> t;
  auto p = std::make_shared<int>(7);
  std::weak_ptr<int> w = p;
  t.emplace(SessionId{1}) = std::move(p);
  ASSERT_FALSE(w.expired());
  t.erase(SessionId{1});  // slot stays allocated, value must not
  EXPECT_TRUE(w.expired());
}

}  // namespace
}  // namespace cocg::platform

// GbdtClassifier::fit shares each tree node's per-feature sorted orders
// across boosting rounds (SortedOrderMemo, ml/tree.h). These tests hold it
// to a memo-free reference: the plain boosting loop, fitting every tree
// with the standalone RegressionTree::fit on copied rows and updating the
// scores by walking each tree. The compiled models must serialize to the
// same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "ml/compiled.h"
#include "ml/gbdt.h"
#include "ml/model_io.h"
#include "ml/tree.h"

namespace cocg::ml {
namespace {

void softmax(std::vector<double>& s) {
  const double mx = *std::max_element(s.begin(), s.end());
  double total = 0.0;
  for (auto& v : s) {
    v = std::exp(v - mx);
    total += v;
  }
  for (auto& v : s) v /= total;
}

void append_tree(CompiledForest::Data& d, const RegressionTree& tree) {
  const auto base = static_cast<std::int32_t>(d.feature.size());
  for (const TreeNode& nd : tree.nodes()) {
    d.threshold.push_back(nd.threshold);
    if (nd.feature >= 0) {
      d.feature.push_back(nd.feature);
      d.left.push_back(base + nd.left);
      d.right.push_back(base + nd.right);
      d.num_features = std::max(d.num_features, nd.feature + 1);
    } else {
      d.feature.push_back(-1);
      d.left.push_back(static_cast<std::int32_t>(d.leaf_label.size()));
      d.right.push_back(-1);
      d.leaf_label.push_back(0);
      d.leaf_data.push_back(nd.value);
    }
  }
  d.tree_first.push_back(static_cast<std::int32_t>(d.feature.size()));
}

/// Memo-free boosting: the same rounds, priors, residuals and shrinkage
/// as GbdtClassifier::fit, one standalone RegressionTree::fit per tree.
CompiledForest reference_fit(const Dataset& data, const GbdtConfig& cfg,
                             Rng& rng) {
  const int num_classes = data.num_classes();
  const auto k = static_cast<std::size_t>(num_classes);
  const std::size_t n = data.size();

  std::vector<double> prior(k, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    prior[static_cast<std::size_t>(data.y(i))] += 1.0;
  }
  std::vector<double> base(k);
  const double total = static_cast<double>(n) + static_cast<double>(k);
  for (std::size_t c = 0; c < k; ++c) base[c] = std::log(prior[c] / total);

  CompiledForest::Data d;
  d.kind = ModelKind::kGbdt;
  d.num_classes = num_classes;
  d.leaf_width = 1;
  d.num_features = 1;
  d.learning_rate = cfg.learning_rate;
  d.base_score = base;
  d.tree_first.push_back(0);

  std::vector<std::vector<double>> score(n, base);
  for (int round = 0; round < cfg.n_rounds; ++round) {
    std::vector<std::size_t> rows(n);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    if (cfg.subsample < 1.0) {
      rng.shuffle(rows.begin(), rows.end());
      rows.resize(std::max<std::size_t>(
          1, static_cast<std::size_t>(cfg.subsample *
                                      static_cast<double>(n))));
      std::sort(rows.begin(), rows.end());
    }
    std::vector<FeatureRow> xs;
    std::vector<std::vector<double>> residuals(
        k, std::vector<double>(rows.size()));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::size_t i = rows[r];
      xs.push_back(data.x(i));
      std::vector<double> p = score[i];
      softmax(p);
      for (std::size_t c = 0; c < k; ++c) {
        const double target =
            static_cast<std::size_t>(data.y(i)) == c ? 1.0 : 0.0;
        residuals[c][r] = target - p[c];
      }
    }
    std::vector<RegressionTree> trees;
    for (std::size_t c = 0; c < k; ++c) {
      RegressionTree tree(cfg.tree);
      tree.fit(xs, residuals[c]);
      append_tree(d, tree);
      trees.push_back(std::move(tree));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        score[i][c] += cfg.learning_rate * trees[c].predict(data.x(i));
      }
    }
  }
  return CompiledForest(std::move(d));
}

std::string model_bytes(const CompiledForest& model) {
  std::ostringstream os;
  write_model(model, os);
  return os.str();
}

/// Stage-predictor-like data: small integer columns with heavy ties (stage
/// ids, a padding id, a mode), one coarse hashed column, and labels that
/// depend on them with noise.
Dataset tied_integer_data(int classes, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d({"h0", "h1", "h2", "player", "mode"});
  for (std::size_t i = 0; i < n; ++i) {
    const auto h0 = static_cast<double>(rng.uniform_int(0, 5));
    const auto h1 = static_cast<double>(rng.uniform_int(0, 5));
    const auto h2 = static_cast<double>(rng.uniform_int(0, 5));
    const auto player = static_cast<double>(rng.uniform_int(0, 11)) / 12.0;
    const auto mode = static_cast<double>(rng.uniform_int(0, 2));
    int y = static_cast<int>(h0 + 2.0 * mode + (player > 0.5 ? 1.0 : 0.0)) %
            classes;
    if (rng.uniform(0.0, 1.0) < 0.15) {
      y = static_cast<int>(rng.uniform_int(0, classes - 1));
    }
    d.add({h0, h1, h2, player, mode}, y);
  }
  // Pin the class count even if noise never drew the top label.
  d.add({0.0, 0.0, 0.0, 0.0, 0.0}, classes - 1);
  return d;
}

void expect_matches_reference(int classes, double subsample) {
  const Dataset d = tied_integer_data(classes, 240, 900 + classes);
  ASSERT_EQ(d.num_classes(), classes);
  GbdtConfig cfg;
  cfg.n_rounds = 24;
  cfg.tree.max_depth = 6;
  cfg.subsample = subsample;

  GbdtClassifier memoized(cfg);
  Rng rng_a(31);
  memoized.fit(d, rng_a);
  Rng rng_b(31);
  const CompiledForest reference = reference_fit(d, cfg, rng_b);

  EXPECT_EQ(model_bytes(CompiledForest::compile(memoized)),
            model_bytes(reference));
  // Both consumed the same draws.
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST(GbdtMemo, RepeatedRowSetHitsWithSameView) {
  const Dataset d = tied_integer_data(3, 60, 7);
  const std::size_t f = d.num_features();
  SortedOrderMemo memo(d.features());
  const std::vector<std::uint32_t> a{0, 2, 3, 5, 8, 13, 21, 34, 55};
  const std::vector<std::uint32_t> b{0, 2, 3, 5, 8, 13, 21, 34, 56};
  const std::size_t n = a.size();
  const std::uint32_t* view = memo.view(a);
  const std::vector<std::uint32_t> first(view, view + view[f * n + f]);
  const std::size_t arena_after_a = memo.arena_size();
  EXPECT_EQ(arena_after_a, n + first.size());
  memo.view(b);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 0u);
  view = memo.view(a);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(std::vector<std::uint32_t>(view, view + first.size()), first);
  EXPECT_GT(memo.arena_size(), arena_after_a);

  // Each run is the rows sorted by its feature, and the candidates are
  // exactly the positions where the sorted value strictly increases.
  for (std::size_t k = 0; k < f; ++k) {
    std::vector<std::uint32_t> run(first.begin() + k * n,
                                   first.begin() + (k + 1) * n);
    EXPECT_TRUE(std::is_sorted(run.begin(), run.end(),
                               [&](std::uint32_t p, std::uint32_t q) {
                                 return d.x(p)[k] < d.x(q)[k];
                               }));
    std::vector<std::uint32_t> increases;
    for (std::uint32_t i = 1; i < n; ++i) {
      if (d.x(run[i - 1])[k] < d.x(run[i])[k]) increases.push_back(i);
    }
    EXPECT_EQ(std::vector<std::uint32_t>(first.begin() + first[f * n + k],
                                         first.begin() + first[f * n + k + 1]),
              increases);
    std::sort(run.begin(), run.end());
    EXPECT_EQ(run, a);
  }
}

TEST(GbdtMemo, ViewLargerThanABlockGetsItsOwn) {
  // A 7,001-row node's worst-case view (2 * 5 * 7,001 + 1 slots) does not
  // fit one 65,536-slot block. Views stored before and after it must stay
  // where they are.
  const Dataset d = tied_integer_data(3, 7000, 11);
  ASSERT_EQ(d.num_features(), 5u);
  SortedOrderMemo memo(d.features());
  const std::vector<std::uint32_t> small{1, 4, 9, 16, 25};
  std::vector<std::uint32_t> all(d.size());
  std::iota(all.begin(), all.end(), std::uint32_t{0});
  const std::uint32_t* small_view = memo.view(small);
  const std::uint32_t* big_view = memo.view(all);
  memo.view(std::vector<std::uint32_t>{2, 3, 5, 7});
  EXPECT_EQ(memo.view(small), small_view);
  EXPECT_EQ(memo.view(all), big_view);
  EXPECT_EQ(memo.misses(), 3u);
  EXPECT_EQ(memo.hits(), 2u);
  for (std::size_t k = 0; k < 5; ++k) {
    const std::uint32_t* run = big_view + k * all.size();
    EXPECT_TRUE(std::is_sorted(run, run + all.size(),
                               [&](std::uint32_t p, std::uint32_t q) {
                                 return d.x(p)[k] < d.x(q)[k];
                               }));
  }
}

TEST(GbdtMemo, BoostingFitMatchesStandaloneOnRowSubset) {
  const Dataset d = tied_integer_data(4, 200, 8);
  std::vector<double> y(d.size());
  Rng rng(9);
  for (double& v : y) v = rng.normal(0.0, 1.0);
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < d.size(); i += 3) rows.push_back(i);

  std::vector<FeatureRow> xs;
  std::vector<double> ys;
  for (const std::uint32_t i : rows) {
    xs.push_back(d.x(i));
    ys.push_back(y[i]);
  }
  TreeConfig cfg{/*max_depth=*/6, /*min_samples_split=*/4,
                 /*min_samples_leaf=*/2, /*max_features=*/0};
  RegressionTree standalone(cfg);
  standalone.fit(xs, ys);

  SortedOrderMemo memo(d.features());
  std::vector<std::int32_t> leaf_of(d.size(), -1);
  RegressionTree boosted(cfg);
  boosted.fit(memo, y, rows, leaf_of);

  ASSERT_EQ(boosted.node_count(), standalone.node_count());
  for (std::size_t i = 0; i < boosted.node_count(); ++i) {
    const TreeNode& a = boosted.nodes()[i];
    const TreeNode& b = standalone.nodes()[i];
    EXPECT_EQ(a.feature, b.feature);
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.n_samples, b.n_samples);
  }
  for (std::size_t i = 0; i < d.size(); ++i) {
    const bool fitted = i % 3 == 0;
    ASSERT_EQ(leaf_of[i] >= 0, fitted) << i;
    if (fitted) {
      EXPECT_EQ(boosted.nodes()[static_cast<std::size_t>(leaf_of[i])].value,
                boosted.predict(d.x(i)));
    }
  }
  EXPECT_THROW(boosted.fit(memo, y, std::vector<std::uint32_t>{3, 3},
                           leaf_of),
               ContractError);
}

TEST(GbdtMemo, ZeroWidthRowsMatchReference) {
  // No feature to split on: every tree is one leaf, and a node's view is
  // just its (empty) candidate bounds.
  Dataset d;
  for (int i = 0; i < 20; ++i) d.add({}, i % 3);
  GbdtConfig cfg;
  cfg.n_rounds = 3;
  GbdtClassifier memoized(cfg);
  Rng rng_a(5);
  memoized.fit(d, rng_a);
  Rng rng_b(5);
  EXPECT_EQ(model_bytes(CompiledForest::compile(memoized)),
            model_bytes(reference_fit(d, cfg, rng_b)));
}

TEST(GbdtMemo, TwoClassesAllRowsMatchReference) {
  expect_matches_reference(2, 1.0);
}

TEST(GbdtMemo, TwoClassesHalfRowsMatchReference) {
  expect_matches_reference(2, 0.5);
}

TEST(GbdtMemo, EightClassesAllRowsMatchReference) {
  expect_matches_reference(8, 1.0);
}

TEST(GbdtMemo, EightClassesHalfRowsMatchReference) {
  expect_matches_reference(8, 0.5);
}

}  // namespace
}  // namespace cocg::ml

#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/check.h"

namespace cocg::ml {

namespace {

void softmax_inplace(std::vector<double>& scores) {
  const double mx = *std::max_element(scores.begin(), scores.end());
  double total = 0.0;
  for (auto& s : scores) {
    s = std::exp(s - mx);
    total += s;
  }
  for (auto& s : scores) s /= total;
}

}  // namespace

void GbdtClassifier::fit(const Dataset& data, Rng& rng) {
  COCG_EXPECTS(!data.empty());
  COCG_EXPECTS(cfg_.n_rounds >= 1);
  COCG_EXPECTS(cfg_.learning_rate > 0.0 && cfg_.learning_rate <= 1.0);
  COCG_EXPECTS(cfg_.subsample > 0.0 && cfg_.subsample <= 1.0);

  num_classes_ = data.num_classes();
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t n = data.size();
  trees_.clear();

  // Base score = log class prior (with Laplace smoothing).
  std::vector<double> prior(k, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    prior[static_cast<std::size_t>(data.y(i))] += 1.0;
  }
  base_score_.assign(k, 0.0);
  const double total = static_cast<double>(n) + static_cast<double>(k);
  for (std::size_t c = 0; c < k; ++c) {
    base_score_[c] = std::log(prior[c] / total);
  }

  // Current raw scores per row per class.
  std::vector<std::vector<double>> score(n, base_score_);

  // Every tree of this fit splits the same matrix, so node sort orders
  // carry over between classes and rounds (ml/tree.h).
  SortedOrderMemo memo(data.features());
  // Indexed by dataset row id; rows outside a round's subsample are stale.
  std::vector<std::vector<double>> residuals(k, std::vector<double>(n));
  std::vector<std::int32_t> leaf_of(n);
  std::vector<std::uint32_t> rows;
  std::vector<double> p;

  for (int round = 0; round < cfg_.n_rounds; ++round) {
    // Row subsample for this round.
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), std::uint32_t{0});
    if (cfg_.subsample < 1.0) {
      rng.shuffle(rows.begin(), rows.end());
      rows.resize(std::max<std::size_t>(
          1, static_cast<std::size_t>(cfg_.subsample *
                                      static_cast<double>(n))));
      std::sort(rows.begin(), rows.end());
    }

    // Gradient targets: one-hot − softmax probability.
    for (const std::uint32_t i : rows) {
      p = score[i];
      softmax_inplace(p);
      for (std::size_t c = 0; c < k; ++c) {
        const double target = (static_cast<std::size_t>(data.y(i)) == c)
                                  ? 1.0
                                  : 0.0;
        residuals[c][i] = target - p[c];
      }
    }

    std::vector<RegressionTree> round_trees;
    round_trees.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
      RegressionTree tree(cfg_.tree);
      std::fill(leaf_of.begin(), leaf_of.end(), -1);
      tree.fit(memo, residuals[c], rows, leaf_of);
      // Update every row's score (not just the subsample) so later
      // gradients see the full model; fitted rows take the leaf they
      // reached while the tree was built.
      const auto& nodes = tree.nodes();
      for (std::size_t i = 0; i < n; ++i) {
        const double step =
            leaf_of[i] >= 0
                ? nodes[static_cast<std::size_t>(leaf_of[i])].value
                : tree.predict(data.x(i));
        score[i][c] += cfg_.learning_rate * step;
      }
      round_trees.push_back(std::move(tree));
    }
    trees_.push_back(std::move(round_trees));
  }
}

std::vector<double> GbdtClassifier::raw_scores(const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::vector<double> s = base_score_;
  for (const auto& round : trees_) {
    for (std::size_t c = 0; c < s.size(); ++c) {
      s[c] += cfg_.learning_rate * round[c].predict(x);
    }
  }
  return s;
}

int GbdtClassifier::predict(const FeatureRow& x) const {
  const auto s = raw_scores(x);
  return static_cast<int>(std::max_element(s.begin(), s.end()) - s.begin());
}

std::vector<int> GbdtClassifier::predict_all(
    const std::vector<FeatureRow>& xs) const {
  std::vector<int> out;
  out.reserve(xs.size());
  for (const auto& x : xs) out.push_back(predict(x));
  return out;
}

std::vector<double> GbdtClassifier::predict_proba(const FeatureRow& x) const {
  auto s = raw_scores(x);
  softmax_inplace(s);
  return s;
}

int GbdtClassifier::rounds_trained() const {
  return static_cast<int>(trees_.size());
}

}  // namespace cocg::ml

#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cocg::ml {

void RandomForestClassifier::fit(const Dataset& data, Rng& rng) {
  COCG_EXPECTS(!data.empty());
  COCG_EXPECTS(cfg_.n_trees >= 1);
  COCG_EXPECTS(cfg_.bootstrap_fraction > 0.0 &&
               cfg_.bootstrap_fraction <= 1.0);
  trees_.clear();
  num_classes_ = data.num_classes();

  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.max_features == 0) {
    tree_cfg.max_features = static_cast<std::size_t>(
        std::max(1.0, std::sqrt(static_cast<double>(data.num_features()))));
  }

  const auto n_rows = static_cast<std::size_t>(
      cfg_.bootstrap_fraction * static_cast<double>(data.size()));
  for (int t = 0; t < cfg_.n_trees; ++t) {
    std::vector<std::size_t> boot;
    boot.reserve(n_rows);
    for (std::size_t i = 0; i < std::max<std::size_t>(n_rows, 1); ++i) {
      boot.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1)));
    }
    // A bootstrap sample can miss classes, so a tree may know fewer than
    // num_classes_; predict_proba here and CompiledForest (which pads
    // every leaf row to the forest's class count) keep forest width.
    Dataset sample = data.subset(boot);
    DecisionTreeClassifier tree(tree_cfg);
    tree.fit(sample, rng);
    trees_.push_back(std::move(tree));
  }
}

int RandomForestClassifier::predict(const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::vector<double> votes(static_cast<std::size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const int c = tree.predict(x);
    if (c >= 0 && c < num_classes_) votes[static_cast<std::size_t>(c)] += 1.0;
  }
  return static_cast<int>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<int> RandomForestClassifier::predict_all(
    const std::vector<FeatureRow>& xs) const {
  std::vector<int> out;
  out.reserve(xs.size());
  for (const auto& x : xs) out.push_back(predict(x));
  return out;
}

std::vector<double> RandomForestClassifier::predict_proba(
    const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::vector<double> acc(static_cast<std::size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.predict_proba(x);
    for (std::size_t c = 0; c < p.size() && c < acc.size(); ++c) {
      acc[c] += p[c];
    }
  }
  for (auto& v : acc) v /= static_cast<double>(trees_.size());
  return acc;
}

}  // namespace cocg::ml

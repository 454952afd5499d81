// CART decision trees: a Gini classifier (the paper's DTC) and a
// squared-error regression tree (the weak learner inside GBDT).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace cocg::ml {

struct TreeConfig {
  int max_depth = 12;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of features examined per split; 0 means all (plain CART),
  /// smaller values give the random-forest style feature subsampling.
  std::size_t max_features = 0;
};

/// One node in the flattened tree. Leaves have feature == -1.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;   ///< child index, samples with x[feature] <= threshold
  int right = -1;
  int label = 0;           ///< classifier leaf: majority class
  double value = 0.0;      ///< regression leaf: mean target
  std::size_t n_samples = 0;
};

/// Multiclass Gini-impurity CART classifier.
class DecisionTreeClassifier {
 public:
  explicit DecisionTreeClassifier(TreeConfig cfg = {}) : cfg_(cfg) {}

  /// `rng` is only consulted when cfg.max_features > 0.
  void fit(const Dataset& data, Rng& rng);
  void fit(const Dataset& data);  ///< deterministic, all features

  bool trained() const { return !nodes_.empty(); }
  int predict(const FeatureRow& x) const;
  std::vector<int> predict_all(const std::vector<FeatureRow>& xs) const;

  /// Class-probability estimate at the reached leaf.
  std::vector<double> predict_proba(const FeatureRow& x) const;

  std::size_t node_count() const { return nodes_.size(); }
  int depth() const;
  int num_classes() const { return num_classes_; }

  // Read-only views for compilation into a CompiledForest (ml/compiled.h).
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  const std::vector<std::vector<double>>& leaf_probabilities() const {
    return leaf_proba_;
  }

 private:
  struct BuildCtx;
  int build(BuildCtx& ctx, std::vector<std::size_t>& idx, int depth);

  TreeConfig cfg_;
  std::vector<TreeNode> nodes_;
  std::vector<std::vector<double>> leaf_proba_;  // parallel to nodes_
  int num_classes_ = 0;
};

/// Per-feature sorted row orders of tree nodes, shared by every regression
/// tree fit on one feature matrix (the trees of one GbdtClassifier::fit).
///
/// A node's split search sorts its rows by each feature in turn, each sort
/// starting from the previous one's output. Node row lists are ascending
/// (the root's is, and partitioning keeps order), so that chain of sorts is
/// a function of the node's row set and the matrix alone; only the targets
/// differ between the trees of one fit. The memo keys each computed chain
/// on the row set, verified id by id, so a hit returns exactly what a fresh
/// sort would. Storage is an arena of 32-bit row ids and positions in
/// large fixed blocks, freed with the memo.
class SortedOrderMemo {
 public:
  /// `x` must outlive the memo and must not change while it is in use.
  explicit SortedOrderMemo(const std::vector<FeatureRow>& x);

  /// The split-search view of the node whose (ascending) row ids are
  /// `rows`, for F features and n rows: F runs of n ids (the rows sorted
  /// by each feature), then F + 1 offsets from the view's start bounding
  /// each feature's split candidates — the ascending positions in its run
  /// where the sorted value strictly increases — which follow. The view
  /// stays valid while the memo lives.
  const std::uint32_t* view(std::span<const std::uint32_t> rows);

  const std::vector<FeatureRow>& matrix() const { return *x_; }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return entries_.size(); }
  /// 32-bit slots in use in the arena.
  std::size_t arena_size() const { return arena_size_; }

 private:
  /// 256 KiB blocks: allocators typically map and unmap blocks this large
  /// whole, so a fit's arena does not linger in the heap after it.
  static constexpr std::size_t kBlockSlots = std::size_t{1} << 16;
  struct Entry {
    std::uint64_t hash = 0;
    const std::uint32_t* rows = nullptr;  ///< the node's view follows
    std::size_t size = 0;                 ///< rows.size()
  };
  void grow();

  const std::vector<FeatureRow>* x_;
  std::size_t n_features_;
  /// The arena: row lists and views packed into fixed blocks that never
  /// move (no copy on growth; a view larger than a block gets its own).
  std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
  std::uint32_t* block_next_ = nullptr;
  std::uint32_t* block_end_ = nullptr;
  std::size_t arena_size_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;  ///< open addressing into entries_
  std::size_t hits_ = 0;
};

/// Squared-error regression tree (for gradient boosting).
class RegressionTree {
 public:
  explicit RegressionTree(TreeConfig cfg = {}) : cfg_(cfg) {}

  /// Fit one tree on every row of `x` (no memo).
  void fit(const std::vector<FeatureRow>& x, const std::vector<double>& y);

  /// Boosting form: fit on the rows `rows` (strictly ascending ids into the
  /// memo's matrix; `y` is indexed by the same ids), taking sorted orders
  /// from `memo`. Writes the index of the leaf each fitted row reached into
  /// `leaf_of[row]`. Builds exactly the tree that fit() builds on copies of
  /// those rows.
  void fit(SortedOrderMemo& memo, const std::vector<double>& y,
           std::span<const std::uint32_t> rows,
           std::span<std::int32_t> leaf_of);

  bool trained() const { return !nodes_.empty(); }
  double predict(const FeatureRow& x) const;

  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }

 private:
  struct BuildCtx;
  void fit_rows(BuildCtx& ctx);
  int build(BuildCtx& ctx, std::size_t begin, std::size_t end, int depth);

  TreeConfig cfg_;
  std::vector<TreeNode> nodes_;
};

}  // namespace cocg::ml

#include "ml/tree.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace cocg::ml {

namespace {

/// Choose which feature columns to examine at a node.
std::vector<std::size_t> candidate_features(std::size_t n_features,
                                            std::size_t max_features,
                                            Rng* rng) {
  std::vector<std::size_t> feats(n_features);
  std::iota(feats.begin(), feats.end(), std::size_t{0});
  if (max_features == 0 || max_features >= n_features || rng == nullptr) {
    return feats;
  }
  rng->shuffle(feats.begin(), feats.end());
  feats.resize(max_features);
  std::sort(feats.begin(), feats.end());  // deterministic scan order
  return feats;
}

struct SplitChoice {
  bool found = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::max();  // lower is better
};

}  // namespace

// ---------------------------------------------------------------------------
// DecisionTreeClassifier
// ---------------------------------------------------------------------------

struct DecisionTreeClassifier::BuildCtx {
  const Dataset* data = nullptr;
  Rng* rng = nullptr;
  int num_classes = 0;
};

namespace {

double gini_from_counts(const std::vector<std::size_t>& counts,
                        std::size_t total) {
  if (total == 0) return 0.0;
  double acc = 1.0;
  for (std::size_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    acc -= p * p;
  }
  return acc;
}

/// Best Gini split over the given rows/features. Sorted-scan per feature.
SplitChoice best_gini_split(const Dataset& data,
                            const std::vector<std::size_t>& idx,
                            const std::vector<std::size_t>& feats,
                            int num_classes, std::size_t min_leaf) {
  SplitChoice best;
  const std::size_t n = idx.size();
  std::vector<std::size_t> order(idx);

  for (std::size_t f : feats) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return data.x(a)[f] < data.x(b)[f];
    });
    std::vector<std::size_t> left_counts(
        static_cast<std::size_t>(num_classes), 0);
    std::vector<std::size_t> right_counts(
        static_cast<std::size_t>(num_classes), 0);
    for (std::size_t i : order) {
      ++right_counts[static_cast<std::size_t>(data.y(i))];
    }
    // Move rows one by one from right to left; a split between position i-1
    // and i is valid when the feature value strictly increases there.
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t moved = order[i - 1];
      const auto cls = static_cast<std::size_t>(data.y(moved));
      ++left_counts[cls];
      --right_counts[cls];
      const double lo = data.x(order[i - 1])[f];
      const double hi = data.x(order[i])[f];
      if (lo >= hi) continue;  // tied values cannot be separated
      if (i < min_leaf || n - i < min_leaf) continue;
      const double gini =
          (static_cast<double>(i) * gini_from_counts(left_counts, i) +
           static_cast<double>(n - i) * gini_from_counts(right_counts, n - i)) /
          static_cast<double>(n);
      if (gini < best.score) {
        best.found = true;
        best.feature = f;
        best.threshold = lo + (hi - lo) / 2.0;
        best.score = gini;
      }
    }
  }
  return best;
}

}  // namespace

void DecisionTreeClassifier::fit(const Dataset& data) {
  Rng unused(0);
  TreeConfig saved = cfg_;
  cfg_.max_features = 0;
  fit(data, unused);
  cfg_ = saved;
}

void DecisionTreeClassifier::fit(const Dataset& data, Rng& rng) {
  COCG_EXPECTS_MSG(!data.empty(), "cannot fit an empty dataset");
  nodes_.clear();
  leaf_proba_.clear();
  num_classes_ = data.num_classes();

  BuildCtx ctx;
  ctx.data = &data;
  ctx.rng = &rng;
  ctx.num_classes = num_classes_;

  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  build(ctx, idx, 0);
}

int DecisionTreeClassifier::build(BuildCtx& ctx, std::vector<std::size_t>& idx,
                                  int depth) {
  const Dataset& data = *ctx.data;
  const std::size_t n = idx.size();
  COCG_CHECK(n > 0);

  // Class histogram of this node.
  std::vector<std::size_t> counts(static_cast<std::size_t>(ctx.num_classes),
                                  0);
  for (std::size_t i : idx) ++counts[static_cast<std::size_t>(data.y(i))];
  const auto majority = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  const bool pure =
      counts[static_cast<std::size_t>(majority)] == n;

  const int me = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  leaf_proba_.emplace_back();
  nodes_[static_cast<std::size_t>(me)].label = majority;
  nodes_[static_cast<std::size_t>(me)].n_samples = n;

  auto make_leaf = [&] {
    auto& proba = leaf_proba_[static_cast<std::size_t>(me)];
    proba.resize(static_cast<std::size_t>(ctx.num_classes));
    for (std::size_t c = 0; c < counts.size(); ++c) {
      proba[c] = static_cast<double>(counts[c]) / static_cast<double>(n);
    }
    return me;
  };

  if (pure || depth >= cfg_.max_depth || n < cfg_.min_samples_split) {
    return make_leaf();
  }

  const auto feats = candidate_features(data.num_features(),
                                        cfg_.max_features, ctx.rng);
  const SplitChoice split = best_gini_split(data, idx, feats, ctx.num_classes,
                                            cfg_.min_samples_leaf);
  if (!split.found) return make_leaf();

  std::vector<std::size_t> left_idx, right_idx;
  left_idx.reserve(n);
  right_idx.reserve(n);
  for (std::size_t i : idx) {
    (data.x(i)[split.feature] <= split.threshold ? left_idx : right_idx)
        .push_back(i);
  }
  COCG_CHECK(!left_idx.empty() && !right_idx.empty());
  idx.clear();
  idx.shrink_to_fit();

  nodes_[static_cast<std::size_t>(me)].feature =
      static_cast<int>(split.feature);
  nodes_[static_cast<std::size_t>(me)].threshold = split.threshold;
  const int l = build(ctx, left_idx, depth + 1);
  const int r = build(ctx, right_idx, depth + 1);
  nodes_[static_cast<std::size_t>(me)].left = l;
  nodes_[static_cast<std::size_t>(me)].right = r;
  return me;
}

int DecisionTreeClassifier::predict(const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::size_t node = 0;
  while (nodes_[node].feature >= 0) {
    const auto& nd = nodes_[node];
    COCG_EXPECTS(static_cast<std::size_t>(nd.feature) < x.size());
    node = static_cast<std::size_t>(
        x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                : nd.right);
  }
  return nodes_[node].label;
}

std::vector<int> DecisionTreeClassifier::predict_all(
    const std::vector<FeatureRow>& xs) const {
  std::vector<int> out;
  out.reserve(xs.size());
  for (const auto& x : xs) out.push_back(predict(x));
  return out;
}

std::vector<double> DecisionTreeClassifier::predict_proba(
    const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::size_t node = 0;
  while (nodes_[node].feature >= 0) {
    const auto& nd = nodes_[node];
    node = static_cast<std::size_t>(
        x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                : nd.right);
  }
  return leaf_proba_[node];
}

int DecisionTreeClassifier::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the flattened structure.
  std::vector<std::pair<std::size_t, int>> stack{{0, 1}};
  int mx = 0;
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    mx = std::max(mx, d);
    if (nodes_[node].feature >= 0) {
      stack.push_back({static_cast<std::size_t>(nodes_[node].left), d + 1});
      stack.push_back({static_cast<std::size_t>(nodes_[node].right), d + 1});
    }
  }
  return mx;
}

// ---------------------------------------------------------------------------
// RegressionTree
// ---------------------------------------------------------------------------

namespace {

/// Slots a node view of n rows and F features can take: F runs of n
/// orders, F + 1 bounds, at most n - 1 candidates per feature.
std::size_t view_bound(std::size_t n, std::size_t n_features) {
  return 2 * n_features * n + 1;
}

/// Write a node's split-search view to `out`, which has room for
/// view_bound slots (SortedOrderMemo::view documents the layout); returns
/// the slots used. Orders: one run of rows.size() ids per feature, each
/// sorted by its feature starting from the previous run (the first from
/// `rows`); std::sort is not stable, so the chain, not just the row set,
/// fixes the order within ties. Candidates: per feature, the positions i
/// at which the sorted value strictly increases — the only places a split
/// can go.
std::size_t write_view(const std::vector<FeatureRow>& x,
                       std::span<const std::uint32_t> rows,
                       std::size_t n_features, std::uint32_t* out) {
  const std::size_t n = rows.size();
  std::uint32_t* order = out;
  for (std::size_t f = 0; f < n_features; ++f, order += n) {
    if (f == 0) {
      std::copy(rows.begin(), rows.end(), order);
    } else {
      std::copy(order - n, order, order);
    }
    std::sort(order, order + n, [&](std::uint32_t a, std::uint32_t b) {
      return x[a][f] < x[b][f];
    });
  }
  std::uint32_t* bounds = out + n_features * n;
  std::size_t end = n_features * n + n_features + 1;
  for (std::size_t f = 0; f < n_features; ++f) {
    bounds[f] = static_cast<std::uint32_t>(end);
    const std::uint32_t* run = out + f * n;
    for (std::size_t i = 1; i < n; ++i) {
      if (x[run[i - 1]][f] < x[run[i]][f]) {
        out[end++] = static_cast<std::uint32_t>(i);
      }
    }
  }
  bounds[n_features] = static_cast<std::uint32_t>(end);
  return end;
}

constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

std::uint64_t row_set_hash(std::span<const std::uint32_t> rows) {
  std::uint64_t h = 1469598103934665603ULL ^ rows.size();
  for (const std::uint32_t r : rows) {
    h ^= r;
    h *= 1099511628211ULL;
  }
  // splitmix64 finalizer: the slot index takes the low bits, which FNV
  // alone mixes poorly.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// SortedOrderMemo
// ---------------------------------------------------------------------------

SortedOrderMemo::SortedOrderMemo(const std::vector<FeatureRow>& x)
    : x_(&x),
      n_features_(x.empty() ? 0 : x[0].size()),
      slots_(64, kEmptySlot) {
  COCG_EXPECTS_MSG(x.size() < kEmptySlot, "row ids must fit 32 bits");
}

const std::uint32_t* SortedOrderMemo::view(
    std::span<const std::uint32_t> rows) {
  const std::size_t n = rows.size();
  const std::uint64_t h = row_set_hash(rows);
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = h & mask;
  for (; slots_[s] != kEmptySlot; s = (s + 1) & mask) {
    const Entry& e = entries_[slots_[s]];
    if (e.hash == h && e.size == n &&
        std::equal(rows.begin(), rows.end(), e.rows)) {
      ++hits_;
      return e.rows + n;
    }
  }
  // Miss: store the row list and its view in the current block, or in a
  // fresh one when the worst case does not fit. Blocks never move, so
  // entries keep plain pointers and no growth ever copies the arena.
  const std::size_t bound = n + view_bound(n, n_features_);
  if (static_cast<std::size_t>(block_end_ - block_next_) < bound) {
    const std::size_t size = std::max(kBlockSlots, bound);
    blocks_.emplace_back(new std::uint32_t[size]);
    block_next_ = blocks_.back().get();
    block_end_ = block_next_ + size;
  }
  const Entry e{h, block_next_, n};
  std::copy(rows.begin(), rows.end(), block_next_);
  const std::size_t used =
      n + write_view(*x_, rows, n_features_, block_next_ + n);
  block_next_ += used;
  arena_size_ += used;
  slots_[s] = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(e);
  if (2 * entries_.size() > slots_.size()) grow();
  return e.rows + n;
}

void SortedOrderMemo::grow() {
  std::vector<std::uint32_t> slots(2 * slots_.size(), kEmptySlot);
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t s = entries_[i].hash & mask;
    while (slots[s] != kEmptySlot) s = (s + 1) & mask;
    slots[s] = static_cast<std::uint32_t>(i);
  }
  slots_ = std::move(slots);
}

// ---------------------------------------------------------------------------
// RegressionTree
// ---------------------------------------------------------------------------

struct RegressionTree::BuildCtx {
  const std::vector<FeatureRow>* x = nullptr;
  const std::vector<double>* y = nullptr;
  SortedOrderMemo* memo = nullptr;  ///< null: sort into `scratch`
  /// Row ids; every node owns a contiguous ascending range.
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> right;    ///< partition buffer
  std::vector<std::uint32_t> scratch;  ///< memo-free node view
  std::span<std::int32_t> leaf_of;     ///< empty: leaves not recorded
};

namespace {

/// Best variance-reduction split using prefix sums over the node's sorted
/// orders, evaluated at its split candidates (write_view layout).
SplitChoice best_mse_split(const std::vector<FeatureRow>& x,
                           const std::vector<double>& y,
                           std::span<const std::uint32_t> rows,
                           const std::uint32_t* view, std::size_t min_leaf) {
  SplitChoice best;
  const std::size_t n = rows.size();
  const std::size_t n_features = x[0].size();

  // A split must actually reduce the node's squared error; otherwise the
  // node stays a leaf (constant targets would "split" at error 0 == 0).
  {
    double sum = 0.0, sum2 = 0.0;
    for (const std::uint32_t i : rows) {
      sum += y[i];
      sum2 += y[i] * y[i];
    }
    const double parent_err = sum2 - sum * sum / static_cast<double>(n);
    best.score = parent_err - 1e-12;
  }

  for (std::size_t f = 0; f < n_features; ++f) {
    const std::uint32_t* order = view + f * n;
    const std::uint32_t* cand = view + view[n_features * n + f];
    const std::uint32_t* cand_end = view + view[n_features * n + f + 1];
    // A feature without an admissible split (constant in the node, or
    // only ties near the ends) is never scored: skip its sums.
    const std::uint32_t* first = std::lower_bound(cand, cand_end, min_leaf);
    if (first == cand_end || n - *first < min_leaf) continue;
    double right_sum = 0.0, right_sum2 = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double yi = y[order[r]];
      right_sum += yi;
      right_sum2 += yi * yi;
    }
    // Move rows one by one from right to left; the split between
    // positions i-1 and i is scored only where the value increases.
    double left_sum = 0.0, left_sum2 = 0.0;
    std::size_t i = 1;
    for (const std::uint32_t* c = first; c != cand_end; ++c) {
      const std::size_t at = *c;
      if (n - at < min_leaf) break;  // so is every later candidate
      for (; i <= at; ++i) {
        const double yi = y[order[i - 1]];
        left_sum += yi;
        left_sum2 += yi * yi;
        right_sum -= yi;
        right_sum2 -= yi * yi;
      }
      const auto nl = static_cast<double>(at);
      const auto nr = static_cast<double>(n - at);
      // Total within-node squared error = Σy² − (Σy)²/n on each side.
      const double err =
          (left_sum2 - left_sum * left_sum / nl) +
          (right_sum2 - right_sum * right_sum / nr);
      if (err < best.score) {
        const double lo = x[order[at - 1]][f];
        const double hi = x[order[at]][f];
        best.found = true;
        best.feature = f;
        best.threshold = lo + (hi - lo) / 2.0;
        best.score = err;
      }
    }
  }
  return best;
}

}  // namespace

void RegressionTree::fit(const std::vector<FeatureRow>& x,
                         const std::vector<double>& y) {
  COCG_EXPECTS(!x.empty());
  COCG_EXPECTS(x.size() == y.size());
  COCG_EXPECTS_MSG(x.size() < kEmptySlot, "row ids must fit 32 bits");
  BuildCtx ctx;
  ctx.x = &x;
  ctx.y = &y;
  ctx.rows.resize(x.size());
  std::iota(ctx.rows.begin(), ctx.rows.end(), std::uint32_t{0});
  fit_rows(ctx);
}

void RegressionTree::fit(SortedOrderMemo& memo, const std::vector<double>& y,
                         std::span<const std::uint32_t> rows,
                         std::span<std::int32_t> leaf_of) {
  const auto& x = memo.matrix();
  COCG_EXPECTS(!rows.empty());
  COCG_EXPECTS(x.size() == y.size() && x.size() == leaf_of.size());
  COCG_EXPECTS_MSG(std::adjacent_find(rows.begin(), rows.end(),
                                      std::greater_equal<>()) == rows.end() &&
                       rows.back() < x.size(),
                   "rows must be strictly ascending ids into the matrix");
  BuildCtx ctx;
  ctx.x = &x;
  ctx.y = &y;
  ctx.memo = &memo;
  ctx.rows.assign(rows.begin(), rows.end());
  ctx.leaf_of = leaf_of;
  fit_rows(ctx);
}

void RegressionTree::fit_rows(BuildCtx& ctx) {
  nodes_.clear();
  ctx.right.resize(ctx.rows.size());
  build(ctx, 0, ctx.rows.size(), 0);
}

int RegressionTree::build(BuildCtx& ctx, std::size_t begin, std::size_t end,
                          int depth) {
  const auto& x = *ctx.x;
  const auto& y = *ctx.y;
  const std::span<const std::uint32_t> rows(ctx.rows.data() + begin,
                                            end - begin);
  const std::size_t n = rows.size();
  COCG_CHECK(n > 0);

  double mean = 0.0;
  for (const std::uint32_t i : rows) mean += y[i];
  mean /= static_cast<double>(n);

  const int me = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(me)].value = mean;
  nodes_[static_cast<std::size_t>(me)].n_samples = n;

  auto make_leaf = [&] {
    if (!ctx.leaf_of.empty()) {
      for (const std::uint32_t i : rows) ctx.leaf_of[i] = me;
    }
    return me;
  };
  if (depth >= cfg_.max_depth || n < cfg_.min_samples_split) {
    return make_leaf();
  }

  const std::size_t n_features = x[0].size();
  const std::uint32_t* view = nullptr;
  if (ctx.memo != nullptr) {
    view = ctx.memo->view(rows);
  } else {
    ctx.scratch.resize(view_bound(n, n_features));
    write_view(x, rows, n_features, ctx.scratch.data());
    view = ctx.scratch.data();
  }
  const SplitChoice split =
      best_mse_split(x, y, rows, view, cfg_.min_samples_leaf);
  if (!split.found) return make_leaf();

  // Stable partition in place: left rows compact to the front of the
  // range, right rows detour through ctx.right, so both children's ranges
  // stay ascending.
  std::size_t n_left = 0, n_right = 0;
  for (std::size_t r = begin; r < end; ++r) {
    const std::uint32_t i = ctx.rows[r];
    if (x[i][split.feature] <= split.threshold) {
      ctx.rows[begin + n_left++] = i;
    } else {
      ctx.right[n_right++] = i;
    }
  }
  COCG_CHECK(n_left > 0 && n_right > 0);
  std::copy_n(ctx.right.begin(), n_right,
              ctx.rows.begin() + static_cast<std::ptrdiff_t>(begin + n_left));

  nodes_[static_cast<std::size_t>(me)].feature =
      static_cast<int>(split.feature);
  nodes_[static_cast<std::size_t>(me)].threshold = split.threshold;
  const int l = build(ctx, begin, begin + n_left, depth + 1);
  const int r = build(ctx, begin + n_left, end, depth + 1);
  nodes_[static_cast<std::size_t>(me)].left = l;
  nodes_[static_cast<std::size_t>(me)].right = r;
  return me;
}

double RegressionTree::predict(const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::size_t node = 0;
  while (nodes_[node].feature >= 0) {
    const auto& nd = nodes_[node];
    COCG_EXPECTS(static_cast<std::size_t>(nd.feature) < x.size());
    node = static_cast<std::size_t>(
        x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                : nd.right);
  }
  return nodes_[node].value;
}

}  // namespace cocg::ml

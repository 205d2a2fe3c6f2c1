#include "highrpm/ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "highrpm/math/float_eq.hpp"
#include "highrpm/runtime/parallel_for.hpp"

namespace highrpm::ml {

DecisionTreeRegressor::DecisionTreeRegressor(TreeConfig cfg) : cfg_(cfg) {}

void DecisionTreeRegressor::fit(const math::Matrix& x,
                                std::span<const double> y) {
  check_training_input(x, y);
  std::vector<std::size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  fit_subset(x, y, rows);
}

// The split search needs each node's rows in (value, target) order for
// every feature. Sorting them once at the root and stably partitioning each
// feature's run by the chosen split keeps both children's runs in that order,
// so no node sorts again. A node's run holds the same (value, target) pairs
// the per-node sort produced, in the same order (pairs that compare equal are
// equal, up to the sign of a zero, which changes no sum and no threshold), so
// the scan finds the same splits bit for bit. Node statistics still sum over
// `rows` in std::partition order, which keeps the leaf values bit-identical.
struct DecisionTreeRegressor::Presorted {
  Presorted(const math::Matrix& x, std::span<const double> y,
            std::span<const std::size_t> subset)
      : n(subset.size()),
        rows(subset.begin(), subset.end()),
        order(x.cols() * n),
        spill(n),
        feats(x.cols()),
        goes_left(x.rows()) {
    struct Key {
      double value;
      double target;
      std::size_t row;
    };
    std::vector<Key> keys(n);
    for (std::size_t f = 0; f < x.cols(); ++f) {
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = {x(rows[i], f), y[rows[i]], rows[i]};
      }
      std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
        return a.value < b.value ||
               (!(b.value < a.value) && a.target < b.target);
      });
      const std::span<std::size_t> run = feature_run(f);
      for (std::size_t i = 0; i < n; ++i) run[i] = keys[i].row;
    }
    std::iota(feats.begin(), feats.end(), 0);
  }

  std::span<std::size_t> feature_run(std::size_t f) {
    return std::span(order).subspan(f * n, n);
  }

  std::size_t n;
  /// The fit's rows; a node owns [begin, end), in std::partition order.
  std::vector<std::size_t> rows;
  /// Feature f's rows at [f * n, (f + 1) * n); a node's [begin, end) of
  /// each run holds the node's rows sorted by (x(r, f), y[r]).
  std::vector<std::size_t> order;
  /// The right side of a stable partition, while the left side compacts.
  std::vector<std::size_t> spill;
  /// A node's candidate features: all of them, or a max_features draw.
  std::vector<std::size_t> feats;
  /// Per row of x: 1 when the node's split sends it left.
  std::vector<unsigned char> goes_left;
};

void DecisionTreeRegressor::fit_subset(const math::Matrix& x,
                                       std::span<const double> y,
                                       std::span<const std::size_t> rows) {
  if (rows.empty()) {
    throw std::invalid_argument("DecisionTree: empty row subset");
  }
  nodes_.clear();
  depth_ = 0;
  n_features_ = x.cols();
  Presorted ps(x, y, rows);
  math::Rng rng(cfg_.seed);
  build(x, y, ps, 0, ps.n, 0, rng);
}

std::size_t DecisionTreeRegressor::build(const math::Matrix& x,
                                         std::span<const double> y,
                                         Presorted& ps, std::size_t begin,
                                         std::size_t end, std::size_t level,
                                         math::Rng& rng) {
  depth_ = std::max(depth_, level);
  const std::size_t n = end - begin;
  // Node statistics.
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double v = y[ps.rows[i]];
    sum += v;
    sum_sq += v * v;
  }
  const double node_mean = sum / static_cast<double>(n);
  const double node_sse = sum_sq - sum * sum / static_cast<double>(n);

  const std::size_t node_idx = nodes_.size();
  nodes_.push_back(Node{});
  nodes_[node_idx].value = node_mean;

  const bool can_split = level < cfg_.max_depth &&
                         n >= cfg_.min_samples_split && node_sse > 1e-12;
  if (!can_split) return node_idx;

  // Candidate features (optionally subsampled, for forests): the draws of
  // rng.sample_without_replacement, into the fit's buffer.
  std::span<const std::size_t> feats = ps.feats;
  if (cfg_.max_features && *cfg_.max_features < n_features_) {
    rng.permutation_into(ps.feats);
    feats = feats.first(*cfg_.max_features);
  }

  double best_gain = 1e-12;
  std::size_t best_feat = SIZE_MAX;
  double best_thresh = 0.0;

  for (const std::size_t f : feats) {
    const auto run = ps.feature_run(f).subspan(begin, n);
    if (math::exact_eq(x(run.front(), f), x(run.back(), f))) {
      continue;  // constant feature
    }
    double left_sum = 0.0, left_sq = 0.0;
    double next = x(run[0], f);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double target = y[run[i]];
      left_sum += target;
      left_sq += target * target;
      const double value = next;
      next = x(run[i + 1], f);
      if (math::exact_eq(value, next)) {
        continue;  // tie: no cut here
      }
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < cfg_.min_samples_leaf || nr < cfg_.min_samples_leaf) continue;
      const double right_sum = sum - left_sum;
      const double right_sq = sum_sq - left_sq;
      const double sse_l =
          left_sq - left_sum * left_sum / static_cast<double>(nl);
      const double sse_r =
          right_sq - right_sum * right_sum / static_cast<double>(nr);
      const double gain = node_sse - sse_l - sse_r;
      if (gain > best_gain) {
        best_gain = gain;
        best_feat = f;
        best_thresh = 0.5 * (value + next);
      }
    }
  }
  if (best_feat == SIZE_MAX) return node_idx;

  // Partition rows in place around the threshold.
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = ps.rows[i];
    ps.goes_left[r] = x(r, best_feat) <= best_thresh;
  }
  const auto mid_it =
      std::partition(ps.rows.begin() + static_cast<std::ptrdiff_t>(begin),
                     ps.rows.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::size_t r) { return ps.goes_left[r] != 0; });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - ps.rows.begin());
  if (mid == begin || mid == end) return node_idx;  // degenerate partition

  // Stable-partition every feature's run the same way, so both children's
  // runs stay sorted. Branch-free: each row is written to both sides and
  // only its own side's cursor moves (left never passes the read cursor).
  for (std::size_t f = 0; f < n_features_; ++f) {
    const auto run = ps.feature_run(f).subspan(begin, n);
    std::size_t left = 0, right = 0;
    for (const std::size_t r : run) {
      const std::size_t to_left = ps.goes_left[r];
      run[left] = r;
      ps.spill[right] = r;
      left += to_left;
      right += 1 - to_left;
    }
    std::copy_n(ps.spill.begin(), right,
                run.begin() + static_cast<std::ptrdiff_t>(left));
  }

  nodes_[node_idx].feature = best_feat;
  nodes_[node_idx].threshold = best_thresh;
  const std::size_t left = build(x, y, ps, begin, mid, level + 1, rng);
  const std::size_t right = build(x, y, ps, mid, end, level + 1, rng);
  nodes_[node_idx].left = left;
  nodes_[node_idx].right = right;
  return node_idx;
}

double DecisionTreeRegressor::predict_one(std::span<const double> row) const {
  check_predict_input(fitted(), n_features_, row);
  std::size_t idx = 0;
  while (nodes_[idx].feature != SIZE_MAX) {
    idx = row[nodes_[idx].feature] <= nodes_[idx].threshold ? nodes_[idx].left
                                                            : nodes_[idx].right;
  }
  return nodes_[idx].value;
}

std::vector<double> DecisionTreeRegressor::predict(
    const math::Matrix& x) const {
  check_batch_input(fitted(), n_features_, x);
  std::vector<double> out(x.rows());
  runtime::parallel_for(x.rows(), [&](std::size_t r) {
    const auto row = x.row(r);
    std::size_t idx = 0;
    while (nodes_[idx].feature != SIZE_MAX) {
      idx = row[nodes_[idx].feature] <= nodes_[idx].threshold
                ? nodes_[idx].left
                : nodes_[idx].right;
    }
    out[r] = nodes_[idx].value;
  });
  return out;
}

std::unique_ptr<Regressor> DecisionTreeRegressor::clone() const {
  return std::make_unique<DecisionTreeRegressor>(cfg_);
}

}  // namespace highrpm::ml

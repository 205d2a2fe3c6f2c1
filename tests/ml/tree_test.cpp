#include "highrpm/ml/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "highrpm/math/float_eq.hpp"
#include "highrpm/math/metrics.hpp"
#include "highrpm/math/rng.hpp"

namespace highrpm::ml {
namespace {

TEST(DecisionTree, FitsStepFunctionExactly) {
  // y = 1 if x < 0.5 else 5 — one split suffices.
  math::Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<double>(i) / 100.0;
    y[i] = x(i, 0) < 0.5 ? 1.0 : 5.0;
  }
  DecisionTreeRegressor dt;
  dt.fit(x, y);
  const std::vector<double> lo{0.2}, hi{0.8};
  EXPECT_DOUBLE_EQ(dt.predict_one(lo), 1.0);
  EXPECT_DOUBLE_EQ(dt.predict_one(hi), 5.0);
}

TEST(DecisionTree, ConstantTargetIsSingleLeaf) {
  math::Matrix x(10, 2, 1.0);
  std::vector<double> y(10, 7.0);
  DecisionTreeRegressor dt;
  dt.fit(x, y);
  EXPECT_EQ(dt.node_count(), 1u);
  const std::vector<double> q{0.0, 0.0};
  EXPECT_DOUBLE_EQ(dt.predict_one(q), 7.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  math::Rng rng(1);
  math::Matrix x(200, 1);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.uniform(0, 1);
    y[i] = std::sin(10 * x(i, 0));
  }
  TreeConfig cfg;
  cfg.max_depth = 3;
  DecisionTreeRegressor dt(cfg);
  dt.fit(x, y);
  EXPECT_LE(dt.depth(), 3u);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  math::Rng rng(2);
  math::Matrix x(64, 1);
  std::vector<double> y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = rng.uniform(0, 1);
    y[i] = rng.uniform(0, 1);
  }
  TreeConfig cfg;
  cfg.min_samples_leaf = 8;
  cfg.min_samples_split = 16;
  DecisionTreeRegressor dt(cfg);
  dt.fit(x, y);
  // With >= 8 samples per leaf on 64 samples, at most 8 leaves => <= 15 nodes.
  EXPECT_LE(dt.node_count(), 15u);
}

TEST(DecisionTree, ApproximatesSmoothNonlinearity) {
  math::Rng rng(3);
  const std::size_t n = 800;
  math::Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y[i] = x(i, 0) * x(i, 0) + std::tanh(2 * x(i, 1));
  }
  DecisionTreeRegressor dt;
  dt.fit(x, y);
  const auto pred = dt.predict(x);
  EXPECT_GT(math::r2(y, pred), 0.9);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTreeRegressor dt;
  const std::vector<double> q{1.0};
  EXPECT_THROW(dt.predict_one(q), std::logic_error);
}

TEST(DecisionTree, FitSubsetUsesOnlyGivenRows) {
  math::Matrix x(10, 1);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 5 ? 0.0 : 100.0;
  }
  // Subset only contains low-half rows -> tree must predict ~0 everywhere.
  const std::vector<std::size_t> rows{0, 1, 2, 3, 4};
  DecisionTreeRegressor dt;
  dt.fit_subset(x, y, rows);
  const std::vector<double> q{9.0};
  EXPECT_DOUBLE_EQ(dt.predict_one(q), 0.0);
}

TEST(DecisionTree, DeterministicForFixedSeed) {
  math::Rng rng(4);
  math::Matrix x(100, 3);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.uniform(0, 1);
    y[i] = x(i, 0) + 2 * x(i, 1);
  }
  DecisionTreeRegressor a, b;
  a.fit(x, y);
  b.fit(x, y);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_one(x.row(i)), b.predict_one(x.row(i)));
  }
}

// The split search as it was before the presort: every node builds a
// (value, target) pair per row and sorts it again for every candidate
// feature. DecisionTreeRegressor sorts once at the root instead and keeps
// each node's runs sorted by stable partitioning; its nodes must equal these
// bit for bit.
class PerNodeSortTree {
 public:
  using Node = DecisionTreeRegressor::Node;

  explicit PerNodeSortTree(TreeConfig cfg) : cfg_(cfg) {}

  const std::vector<Node>& fit_subset(const math::Matrix& x,
                                      std::span<const double> y,
                                      std::span<const std::size_t> rows) {
    nodes_.clear();
    n_features_ = x.cols();
    std::vector<std::size_t> work(rows.begin(), rows.end());
    math::Rng rng(cfg_.seed);
    build(x, y, work, 0, work.size(), 0, rng);
    return nodes_;
  }

 private:
  std::size_t build(const math::Matrix& x, std::span<const double> y,
                    std::vector<std::size_t>& rows, std::size_t begin,
                    std::size_t end, std::size_t level, math::Rng& rng) {
    const std::size_t n = end - begin;
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double v = y[rows[i]];
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

    std::vector<std::size_t> feats;
    if (cfg_.max_features && *cfg_.max_features < n_features_) {
      feats = rng.sample_without_replacement(n_features_, *cfg_.max_features);
    } else {
      feats.resize(n_features_);
      std::iota(feats.begin(), feats.end(), 0);
    }
    double best_gain = 1e-12;
    std::size_t best_feat = SIZE_MAX;
    double best_thresh = 0.0;
    std::vector<std::pair<double, double>> pairs(n);
    for (const std::size_t f : feats) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = rows[begin + i];
        pairs[i] = {x(r, f), y[r]};
      }
      std::sort(pairs.begin(), pairs.end());
      if (math::exact_eq(pairs.front().first, pairs.back().first)) continue;
      double left_sum = 0.0, left_sq = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left_sum += pairs[i].second;
        left_sq += pairs[i].second * pairs[i].second;
        if (math::exact_eq(pairs[i].first, pairs[i + 1].first)) continue;
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
          best_thresh = 0.5 * (pairs[i].first + pairs[i + 1].first);
        }
      }
    }
    if (best_feat == SIZE_MAX) return node_idx;
    const auto mid_it = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t r) { return x(r, best_feat) <= best_thresh; });
    const std::size_t mid = static_cast<std::size_t>(mid_it - rows.begin());
    if (mid == begin || mid == end) return node_idx;
    nodes_[node_idx].feature = best_feat;
    nodes_[node_idx].threshold = best_thresh;
    const std::size_t left = build(x, y, rows, begin, mid, level + 1, rng);
    const std::size_t right = build(x, y, rows, mid, end, level + 1, rng);
    nodes_[node_idx].left = left;
    nodes_[node_idx].right = right;
    return node_idx;
  }

  TreeConfig cfg_;
  std::vector<Node> nodes_;
  std::size_t n_features_ = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_nodes(const std::vector<DecisionTreeRegressor::Node>& want,
                       std::span<const DecisionTreeRegressor::Node> got,
                       const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].feature, got[i].feature) << context << " node " << i;
    EXPECT_TRUE(same_bits(want[i].threshold, got[i].threshold))
        << context << " node " << i << " threshold " << want[i].threshold
        << " vs " << got[i].threshold;
    EXPECT_TRUE(same_bits(want[i].value, got[i].value))
        << context << " node " << i << " value " << want[i].value << " vs "
        << got[i].value;
    EXPECT_EQ(want[i].left, got[i].left) << context << " node " << i;
    EXPECT_EQ(want[i].right, got[i].right) << context << " node " << i;
  }
}

/// Features quantised to eighths (many value ties), one constant feature,
/// one of signed zeros and ones, and a 0/1 feature next to its complement:
/// both split the rows into the same two sets, with equal gains summed in
/// different orders, so which one wins rides on the last bit of each sum.
/// Targets come in twelfths: ties, rows equal in both value and target, and
/// sums that round, so the order of tied targets in a run shows.
struct TiedData {
  math::Matrix x;
  std::vector<double> y;
};

TiedData make_tied_data(std::uint64_t seed, std::size_t n) {
  math::Rng rng(seed);
  constexpr std::size_t kFeatures = 9;
  TiedData d{math::Matrix(n, kFeatures), std::vector<double>(n)};
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      d.x(r, c) = std::floor(rng.uniform(0.0, 8.0)) / 8.0;
    }
    d.x(r, 5) = 3.0;  // constant
    d.x(r, 6) = rng.bernoulli(0.5) ? (rng.bernoulli(0.5) ? -0.0 : 0.0) : 1.0;
    d.x(r, 7) = rng.bernoulli(0.5) ? 1.0 : 0.0;
    d.x(r, 8) = 1.0 - d.x(r, 7);
    const double raw = 4.0 * d.x(r, 0) - 2.0 * d.x(r, 1) * d.x(r, 2) +
                       d.x(r, 6) + 3.0 * d.x(r, 7) + rng.normal(0.0, 0.3);
    d.y[r] = std::round(12.0 * raw) / 12.0;
  }
  return d;
}

TEST(DecisionTree, PresortedFitMatchesPerNodeSortBitForBit) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const std::size_t n = 180 + 37 * seed;
    const auto data = make_tied_data(seed, n);
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    // A bootstrap draw: n rows with replacement, so rows repeat.
    math::Rng draw(seed + 100);
    std::vector<std::size_t> bootstrap(n);
    for (auto& r : bootstrap) r = draw.uniform_index(n);

    TreeConfig deep;
    deep.min_samples_leaf = 1;
    deep.min_samples_split = 2;
    TreeConfig subsampled;
    subsampled.max_features = 3;
    subsampled.seed = seed;
    TreeConfig shallow;
    shallow.max_depth = 4;
    shallow.min_samples_leaf = 5;
    const std::vector<std::pair<std::string, TreeConfig>> configs{
        {"default", TreeConfig{}},
        {"deep", deep},
        {"max_features", subsampled},
        {"shallow", shallow}};
    for (const auto& [name, cfg] : configs) {
      for (const bool boot : {false, true}) {
        const std::span<const std::size_t> rows =
            boot ? std::span<const std::size_t>(bootstrap)
                 : std::span<const std::size_t>(all);
        PerNodeSortTree reference(cfg);
        const auto& want = reference.fit_subset(data.x, data.y, rows);
        DecisionTreeRegressor tree(cfg);
        tree.fit_subset(data.x, data.y, rows);
        const std::string context = "seed " + std::to_string(seed) + ", " +
                                    name + (boot ? ", bootstrap" : "");
        ASSERT_GT(want.size(), 1u) << context;
        expect_same_nodes(want, tree.nodes(), context);
      }
    }
  }
}

// Property: training error decreases (weakly) as max_depth grows.
class TreeDepthProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeDepthProperty, DeeperTreesFitTrainingDataBetter) {
  math::Rng rng(GetParam());
  const std::size_t n = 300;
  math::Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y[i] = std::sin(3 * x(i, 0)) * std::cos(2 * x(i, 1)) + rng.normal(0, 0.05);
  }
  double prev = 1e18;
  for (const std::size_t depth : {1u, 2u, 4u, 8u, 16u}) {
    TreeConfig cfg;
    cfg.max_depth = depth;
    cfg.min_samples_leaf = 1;
    cfg.min_samples_split = 2;
    DecisionTreeRegressor dt(cfg);
    dt.fit(x, y);
    const double err = math::rmse(y, dt.predict(x));
    EXPECT_LE(err, prev + 1e-9);
    prev = err;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeDepthProperty,
                         ::testing::Values(10, 20, 30, 40));

}  // namespace
}  // namespace highrpm::ml

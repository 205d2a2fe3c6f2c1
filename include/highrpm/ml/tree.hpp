// CART regression tree with squared-error splitting — the paper's ResModel
// learner (§4.2.1: "we tested all the linear and nonlinear methods ... DT
// worked best") and the base learner for the forest / boosting ensembles.
#pragma once

#include <cstdint>
#include <optional>

#include "highrpm/math/rng.hpp"
#include "highrpm/ml/regressor.hpp"

namespace highrpm::ml {

struct TreeConfig {
  std::size_t max_depth = 16;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// If set, consider only this many randomly-chosen features per split
  /// (used by RandomForest). nullopt = all features.
  std::optional<std::size_t> max_features = std::nullopt;
  std::uint64_t seed = 1234;
};

class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig cfg = {});

  void fit(const math::Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> row) const override;
  /// Parallel row sweep over the tree (deterministic: one row per slot).
  std::vector<double> predict(const math::Matrix& x) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "DT"; }
  bool fitted() const override { return !nodes_.empty(); }

  struct Node {
    // Leaf iff feature == SIZE_MAX; then value holds the prediction.
    std::size_t feature = SIZE_MAX;
    double threshold = 0.0;
    double value = 0.0;
    std::size_t left = 0;
    std::size_t right = 0;
  };

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t depth() const noexcept { return depth_; }
  /// The fitted nodes, root first, in depth-first (left before right) order.
  std::span<const Node> nodes() const noexcept { return nodes_; }

  /// Fit on a row subset (ensembles reuse the parent matrix without copying).
  /// Rows may repeat, as a bootstrap draws them.
  void fit_subset(const math::Matrix& x, std::span<const double> y,
                  std::span<const std::size_t> rows);

 private:
  /// One fit's split-search state (tree.cpp): every feature's rows sorted
  /// once at the root, then kept sorted per node by stable partitioning.
  struct Presorted;

  std::size_t build(const math::Matrix& x, std::span<const double> y,
                    Presorted& ps, std::size_t begin, std::size_t end,
                    std::size_t level, math::Rng& rng);

  TreeConfig cfg_;
  std::vector<Node> nodes_;
  std::size_t n_features_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace highrpm::ml

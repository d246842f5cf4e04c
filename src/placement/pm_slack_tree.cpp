#include "placement/pm_slack_tree.h"

#include <algorithm>

#include "common/error.h"

namespace burstq {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

PmSlackTree::PmSlackTree(std::vector<double> keys) { rebuild(keys); }

void PmSlackTree::rebuild(std::span<const double> keys) {
  BURSTQ_REQUIRE(!keys.empty(), "slack tree needs at least one key");
  n_ = keys.size();
  base_ = 1;
  while (base_ < n_) base_ <<= 1;
  // Padding leaves hold -inf so they never satisfy a threshold query.
  tree_.assign(2 * base_, kNegInf);
  std::copy(keys.begin(), keys.end(),
            tree_.begin() + static_cast<std::ptrdiff_t>(base_));
  for (std::size_t node = base_ - 1; node >= 1; --node)
    tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
}

void PmSlackTree::update(std::size_t i, double key) {
  BURSTQ_REQUIRE(i < n_, "slack tree index out of range");
  std::size_t node = base_ + i;
  tree_[node] = key;
  for (node >>= 1; node >= 1; node >>= 1)
    tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
}

double PmSlackTree::key(std::size_t i) const {
  BURSTQ_REQUIRE(i < n_, "slack tree index out of range");
  return tree_[base_ + i];
}

std::size_t PmSlackTree::find_first_ge(double threshold,
                                       std::size_t from) const {
  if (from >= n_) return npos;
  std::size_t node = base_ + from;
  if (tree_[node] < threshold) {
    // Walk up until a subtree strictly to the right may contain a hit,
    // then fall through to the descent below.
    for (;;) {
      while (node & 1u) {
        node >>= 1;
        if (node <= 1) return npos;  // `from` was on the rightmost spine
      }
      ++node;  // right sibling of a left child: next disjoint subtree
      if (tree_[node] >= threshold) break;
    }
    // Descend to the leftmost qualifying leaf of that subtree.
    while (node < base_) {
      node <<= 1;
      if (tree_[node] < threshold) ++node;
    }
  }
  const std::size_t idx = node - base_;
  return idx < n_ ? idx : npos;
}

}  // namespace burstq

// Max-segment tree over per-PM admissible-slack keys.
//
// The incremental first-fit engine (incremental.h) keeps one key per PM —
// a conservative upper bound on the largest Rb the PM could still admit —
// and needs "lowest-indexed PM at or after `from` whose key is at least
// t".  A max tree answers that in O(log m) by descending into the
// leftmost subtree whose maximum clears the threshold, and a key update
// after an assignment is an O(log m) root-path refresh.  The structure is
// deliberately generic (doubles + indices, no placement types) so other
// drivers with a "first index whose key >= threshold" shape can reuse it.

#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace burstq {

class PmSlackTree {
 public:
  static constexpr std::size_t npos =
      std::numeric_limits<std::size_t>::max();

  /// Builds the tree over `keys` (one per PM).  Requires at least one key.
  explicit PmSlackTree(std::vector<double> keys);

  /// Replaces every key at once (one per PM; at least one).  O(m), and
  /// allocation-free while the key count stays the same.
  void rebuild(std::span<const double> keys);

  /// Replaces the key of PM `i` and refreshes the root path.  O(log m).
  void update(std::size_t i, double key);

  /// Current key of PM `i`.
  [[nodiscard]] double key(std::size_t i) const;

  /// Lowest index j >= from with key(j) >= threshold, or npos.  O(log m).
  [[nodiscard]] std::size_t find_first_ge(double threshold,
                                          std::size_t from = 0) const;

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_{0};
  std::size_t base_{1};      ///< first leaf slot (power of two >= n_)
  std::vector<double> tree_;  ///< 1-indexed heap layout; internal = max
};

}  // namespace burstq

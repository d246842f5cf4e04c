// Migration target index of the dynamic scheduler.
//
// Both target rules are first fits: the lowest-indexed PM other than the
// source that can take the victim, judged either by observed load or by
// Eq. (17).  A linear scan per trigger costs O(m); during a correlated
// burst the scheduler fires thousands of times per slot and the scans
// dominate the simulation.  This index keeps a PmSlackTree over one key
// per PM,
//
//   observed load      key(j) = C_j(1+eps) - load_j                (+margin)
//   reservation-aware  key(j) = conservative_admit_key(C_j, k_j, ...)
//
// and -inf for a PM that is down or already holds the per-PM VM cap.
// Each key upper-bounds what the PM could still take (the victim's demand
// by observed load, its Rb by Eq. 17), so a search descends to the lowest
// PM whose key reaches the victim's need, skips the source, and confirms
// the hit with the rule's exact predicate; a false positive resumes the
// descent after that PM.  As in the incremental placement engine
// (placement/incremental.h), the answer is the linear first fit, bit for
// bit.
//
// The simulator rebuilds the index (O(m)) at a slot's first migration
// trigger, once the slot's loads are known, and refreshes the source and
// target leaves after each move (O(log m)).
//
// Observability: one `sim.target_searches` per search, plus
// `sim.target.descents` (tree queries) and `sim.target.confirms` (exact
// predicate checks), each added once per search.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "placement/placement.h"
#include "placement/pm_slack_tree.h"
#include "queuing/mapcal.h"
#include "sim/migration.h"

namespace burstq {

class TargetIndex {
 public:
  /// Index for `rule` over the PMs of `inst`.  `max_vms` caps the VMs per
  /// PM under the observed-load rule; the reservation-aware rule takes its
  /// cap from `table`, which it requires (the index keeps the pointer).
  TargetIndex(const ProblemInstance& inst, TargetSelection rule,
              std::size_t max_vms, const MapCalTable* table);

  /// Recomputes every key from `placement`, the per-PM observed `load`
  /// and the `up` mask (byte per PM, nonzero = up; empty = all up).  O(m).
  void rebuild(const Placement& placement, std::span<const Resource> load,
               std::span<const std::uint8_t> up);

  /// Recomputes the key of `pm` after a move changed its load or VMs.
  void refresh(const Placement& placement, std::span<const Resource> load,
               std::span<const std::uint8_t> up, PmId pm);

  /// The first PM (by index) other than `source` that takes `victim`,
  /// whose current demand is `victim_demand`, under the rule; nullopt when
  /// none does.  `placement` and `load` must be what the keys were last
  /// computed from.
  [[nodiscard]] std::optional<PmId> select(const Placement& placement,
                                           std::span<const Resource> load,
                                           PmId source, VmId victim,
                                           Resource victim_demand) const;

 private:
  [[nodiscard]] double key_of(const Placement& placement,
                              std::span<const Resource> load,
                              std::span<const std::uint8_t> up,
                              std::size_t j) const;

  const ProblemInstance* inst_;
  TargetSelection rule_;
  std::size_t max_vms_;
  const MapCalTable* table_;
  std::vector<double> keys_;  ///< rebuild buffer
  PmSlackTree tree_;
};

}  // namespace burstq

// Live-migration policy of the dynamic scheduler.
//
// The paper's scheduler migrates "when local resizing is not capable to
// allocate enough resources", triggered by a PM's *recent* CVR exceeding
// rho ("imposing such a threshold rho rather than conducting migration
// upon PM's capacity overflow is also a way to tolerate minor
// fluctuation").  The target PM is chosen by *currently observed* load —
// deliberately so: that is exactly what a burstiness-unaware scheduler
// does, and it is the mechanism behind the paper's "idle deception" and
// "cycle migration" phenomena for the RB/RB-EX packings.  The target
// search itself is TargetIndex (sim/target_index.h).

#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "common/types.h"
#include "markov/onoff.h"
#include "placement/spec.h"

namespace burstq {

/// Which VM to evict from a PM whose CVR breached the threshold.
enum class VictimSelection {
  kLargestOnDemand,  ///< default: the spiking VM with the most demand
  kSmallestRb,       ///< the cheapest VM to move (least state to copy)
  kLargestRe,        ///< the burst culprit regardless of current state
};

/// How the scheduler picks a destination PM.
enum class TargetSelection {
  kObservedLoad,      ///< by current load — the burstiness-unaware choice
                      ///< that produces the paper's idle deception
  kReservationAware,  ///< by Eq. (17) with a mapping table — a
                      ///< burstiness-aware scheduler (burstq extension)
};

struct MigrationPolicy {
  double rho{0.01};            ///< CVR trigger threshold
  std::size_t cvr_window{10};  ///< sliding-window length (slots); >= 1
  /// Slots during which the VM loads both PMs.  Must be >= 1: a live
  /// migration always occupies the source for at least one copy slot
  /// (validate() rejects 0 rather than silently modelling free moves).
  std::size_t cost_slots{1};
  std::size_t max_vms_per_pm{16};
  VictimSelection victim{VictimSelection::kLargestOnDemand};
  TargetSelection target{TargetSelection::kObservedLoad};

  void validate() const;
};

/// Chooses which VM to evict from an overloaded PM.
///
/// Preference order: the ON VM with the largest current demand (evicting
/// the spiking VM frees the most and it is the one local resizing could
/// not absorb); if no VM is ON (noise-driven overload), the largest-demand
/// VM overall.  Equal demands tie-break on the *lowest VmId*, independent
/// of the order of `vms_on_pm` — PM lists get reordered by swap-removes,
/// and fault replay / fuzz --replay must stay bit-reproducible across
/// that churn.  Returns nullopt when the PM hosts nothing.
std::optional<VmId> select_victim(std::span<const std::size_t> vms_on_pm,
                                  std::span<const Resource> demand,
                                  std::span<const VmState> state);

/// Policy-dispatched victim selection.  kLargestOnDemand delegates to
/// select_victim above; kSmallestRb / kLargestRe rank by the static spec
/// with the same lowest-VmId tie-break on equal keys.
std::optional<VmId> select_victim_policy(
    VictimSelection policy, const ProblemInstance& inst,
    std::span<const std::size_t> vms_on_pm, std::span<const Resource> demand,
    std::span<const VmState> state);

}  // namespace burstq

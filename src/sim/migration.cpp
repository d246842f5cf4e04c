#include "sim/migration.h"

#include "common/error.h"
#include "obs/obs.h"

namespace burstq {

void MigrationPolicy::validate() const {
  BURSTQ_REQUIRE(rho >= 0.0 && rho < 1.0, "rho must lie in [0, 1)");
  BURSTQ_REQUIRE(cvr_window > 0,
                 "cvr_window must be >= 1 slot (a zero-length window would "
                 "make the migration trigger see no history at all)");
  BURSTQ_REQUIRE(cost_slots > 0,
                 "cost_slots must be >= 1 (a live migration occupies the "
                 "source PM for at least one copy slot; 0 would silently "
                 "model free migrations)");
  BURSTQ_REQUIRE(max_vms_per_pm >= 1, "d must be at least 1");
}

std::optional<VmId> select_victim(std::span<const std::size_t> vms_on_pm,
                                  std::span<const Resource> demand,
                                  std::span<const VmState> state) {
  // Strictly-greater on demand plus lowest-VmId on ties: the winner is a
  // pure function of (demand, state) regardless of vms_on_pm order, which
  // swap-remove churn permutes freely.
  std::optional<VmId> best_on;
  Resource best_on_demand = -1.0;
  std::optional<VmId> best_any;
  Resource best_any_demand = -1.0;

  for (std::size_t i : vms_on_pm) {
    const Resource d = demand[i];
    if (state[i] == VmState::kOn &&
        (d > best_on_demand ||
         (d == best_on_demand && i < best_on->value))) {
      best_on_demand = d;
      best_on = VmId{i};
    }
    if (d > best_any_demand ||
        (d == best_any_demand && i < best_any->value)) {
      best_any_demand = d;
      best_any = VmId{i};
    }
  }
  return best_on ? best_on : best_any;
}

std::optional<VmId> select_victim_policy(
    VictimSelection policy, const ProblemInstance& inst,
    std::span<const std::size_t> vms_on_pm, std::span<const Resource> demand,
    std::span<const VmState> state) {
  BURSTQ_COUNT("sim.victim_selections", 1);
  if (policy == VictimSelection::kLargestOnDemand)
    return select_victim(vms_on_pm, demand, state);

  std::optional<VmId> best;
  double best_key = 0.0;
  for (std::size_t i : vms_on_pm) {
    // kSmallestRb minimizes rb (less memory to copy); kLargestRe evicts
    // the biggest potential spike.  Lowest VmId wins equal keys.
    const double key = policy == VictimSelection::kSmallestRb
                           ? -inst.vms[i].rb
                           : inst.vms[i].re;
    if (!best || key > best_key || (key == best_key && i < best->value)) {
      best_key = key;
      best = VmId{i};
    }
  }
  return best;
}

}  // namespace burstq

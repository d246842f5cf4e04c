#include "sim/target_index.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/obs.h"
#include "placement/incremental.h"

namespace burstq {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Observed-load key of a PM: an upper bound on the largest demand it
/// could still take, C(1+eps) - load widened by kSlackFilterMargin so
/// float rounding never hides a PM the exact check would accept.
double observed_load_key(Resource load, Resource capacity) {
  const double limit = capacity * (1.0 + kCapacityEpsilon);
  return limit - load +
         kSlackFilterMargin * (std::abs(limit) + std::abs(load) + 1.0);
}

}  // namespace

TargetIndex::TargetIndex(const ProblemInstance& inst, TargetSelection rule,
                         std::size_t max_vms, const MapCalTable* table)
    : inst_(&inst),
      rule_(rule),
      max_vms_(max_vms),
      table_(table),
      keys_(inst.n_pms(), kNegInf),
      tree_(keys_) {
  BURSTQ_REQUIRE(rule != TargetSelection::kReservationAware || table != nullptr,
                 "the reservation-aware target rule needs a MapCal table");
}

double TargetIndex::key_of(const Placement& placement,
                           std::span<const Resource> load,
                           std::span<const std::uint8_t> up,
                           std::size_t j) const {
  if (!up.empty() && !up[j]) return kNegInf;
  const PmId pm{j};
  const Resource cap = inst_->pms[j].capacity;
  if (rule_ == TargetSelection::kReservationAware)
    return conservative_admit_key(cap, placement.count_on(pm),
                                  total_rb_on(*inst_, placement, pm),
                                  max_re_on(*inst_, placement, pm), *table_);
  if (placement.count_on(pm) + 1 > max_vms_) return kNegInf;
  return observed_load_key(load[j], cap);
}

void TargetIndex::rebuild(const Placement& placement,
                          std::span<const Resource> load,
                          std::span<const std::uint8_t> up) {
  const std::size_t m = keys_.size();
  BURSTQ_REQUIRE(placement.n_pms() == m && load.size() == m,
                 "placement and load must cover the index's PMs");
  BURSTQ_REQUIRE(up.empty() || up.size() == m,
                 "pm_up mask must be empty or match the PM count");
  for (std::size_t j = 0; j < m; ++j)
    keys_[j] = key_of(placement, load, up, j);
  tree_.rebuild(keys_);
}

void TargetIndex::refresh(const Placement& placement,
                          std::span<const Resource> load,
                          std::span<const std::uint8_t> up, PmId pm) {
  tree_.update(pm.value, key_of(placement, load, up, pm.value));
}

std::optional<PmId> TargetIndex::select(const Placement& placement,
                                        std::span<const Resource> load,
                                        PmId source, VmId victim,
                                        Resource victim_demand) const {
  const bool reservation = rule_ == TargetSelection::kReservationAware;
  const double need = reservation ? inst_->vms[victim.value].rb : victim_demand;
  std::size_t descents = 0;
  std::size_t confirms = 0;
  std::optional<PmId> found;
  for (std::size_t from = 0;;) {
    ++descents;
    const std::size_t j = tree_.find_first_ge(need, from);
    if (j == PmSlackTree::npos) break;
    from = j + 1;  // on a skip or a reject the descent resumes past j
    if (j == source.value) continue;
    const PmId pm{j};
    ++confirms;
    const bool fits =
        reservation
            ? fits_with_reservation(*inst_, placement, victim, pm, *table_)
            : load[j] + victim_demand <=
                  inst_->pms[j].capacity * (1.0 + kCapacityEpsilon);
    if (fits) {
      found = pm;
      break;
    }
  }
  BURSTQ_COUNT("sim.target_searches", 1);
  BURSTQ_COUNT("sim.target.descents", descents);
  BURSTQ_COUNT("sim.target.confirms", confirms);
  return found;
}

}  // namespace burstq

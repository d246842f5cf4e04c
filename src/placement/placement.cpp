#include "placement/placement.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace burstq {

void Placement::init(std::size_t n_vms, std::size_t n_pms) {
  BURSTQ_REQUIRE(n_vms > 0, "placement needs at least one VM slot");
  BURSTQ_REQUIRE(n_pms > 0, "placement needs at least one PM slot");
  pm_of_.resize(n_vms);
  pos_in_pm_.resize(n_vms, 0);
  vms_on_.resize(n_pms);
  if (inst_ != nullptr) {
    rb_sum_.assign(n_pms, 0.0);
    re_max_.assign(n_pms, 0.0);
  }
}

Placement::Placement(std::size_t n_vms, std::size_t n_pms) {
  init(n_vms, n_pms);
}

Placement::Placement(const ProblemInstance& inst) : inst_(&inst) {
  init(inst.n_vms(), inst.n_pms());
}

void Placement::assign(VmId vm, PmId pm) {
  BURSTQ_REQUIRE(vm.value < pm_of_.size(), "VM index out of range");
  BURSTQ_REQUIRE(pm.value < vms_on_.size(), "PM index out of range");
  BURSTQ_REQUIRE(!pm_of_[vm.value].valid(), "VM is already assigned");
  pm_of_[vm.value] = pm;
  auto& list = vms_on_[pm.value];
  if (list.empty()) ++pms_used_;
  pos_in_pm_[vm.value] = list.size();
  list.push_back(vm.value);
  ++vms_assigned_;
  if (inst_ != nullptr) {
    const VmSpec& spec = inst_->vms[vm.value];
    rb_sum_[pm.value] += spec.rb;
    re_max_[pm.value] = std::max(re_max_[pm.value], spec.re);
  }
}

void Placement::unassign(VmId vm) {
  BURSTQ_REQUIRE(vm.value < pm_of_.size(), "VM index out of range");
  const PmId pm = pm_of_[vm.value];
  BURSTQ_REQUIRE(pm.valid(), "VM is not assigned");
  auto& list = vms_on_[pm.value];
  const std::size_t pos = pos_in_pm_[vm.value];
  BURSTQ_ASSERT(pos < list.size() && list[pos] == vm.value,
                "assignment lists out of sync");
  // Swap-remove: move the last member into the hole.
  const std::size_t moved = list.back();
  list[pos] = moved;
  pos_in_pm_[moved] = pos;
  list.pop_back();
  if (list.empty()) --pms_used_;
  pm_of_[vm.value] = PmId{};
  --vms_assigned_;
  if (inst_ != nullptr) {
    const VmSpec& spec = inst_->vms[vm.value];
    if (list.empty()) {
      // Reset exactly so an emptied PM accumulates no float residue.
      rb_sum_[pm.value] = 0.0;
      re_max_[pm.value] = 0.0;
    } else {
      rb_sum_[pm.value] -= spec.rb;
      if (spec.re >= re_max_[pm.value]) {
        Resource m = 0.0;
        for (std::size_t i : list) m = std::max(m, inst_->vms[i].re);
        re_max_[pm.value] = m;
      }
    }
  }
}

PmId Placement::pm_of(VmId vm) const {
  BURSTQ_REQUIRE(vm.value < pm_of_.size(), "VM index out of range");
  return pm_of_[vm.value];
}

const std::vector<std::size_t>& Placement::vms_on(PmId pm) const {
  BURSTQ_REQUIRE(pm.value < vms_on_.size(), "PM index out of range");
  return vms_on_[pm.value];
}

Resource Placement::rb_sum_on(PmId pm) const {
  BURSTQ_REQUIRE(inst_ != nullptr,
                 "rb_sum_on requires an instance-bound placement");
  BURSTQ_REQUIRE(pm.value < vms_on_.size(), "PM index out of range");
  return rb_sum_[pm.value];
}

Resource Placement::re_max_on(PmId pm) const {
  BURSTQ_REQUIRE(inst_ != nullptr,
                 "re_max_on requires an instance-bound placement");
  BURSTQ_REQUIRE(pm.value < vms_on_.size(), "PM index out of range");
  return re_max_[pm.value];
}

PlacementState Placement::export_state() const {
  PlacementState st;
  st.pm_of = pm_of_;
  st.vms_on = vms_on_;
  st.bound = inst_ != nullptr;
  st.rb_sum = rb_sum_;
  st.re_max = re_max_;
  return st;
}

void Placement::restore_state(const PlacementState& st) {
  BURSTQ_REQUIRE(st.pm_of.size() == pm_of_.size(),
                 "placement state VM count mismatch");
  BURSTQ_REQUIRE(st.vms_on.size() == vms_on_.size(),
                 "placement state PM count mismatch");
  pm_of_ = st.pm_of;
  vms_on_ = st.vms_on;
  pms_used_ = 0;
  vms_assigned_ = 0;
  for (std::size_t pm = 0; pm < vms_on_.size(); ++pm) {
    if (!vms_on_[pm].empty()) ++pms_used_;
    for (std::size_t pos = 0; pos < vms_on_[pm].size(); ++pos) {
      const std::size_t vm = vms_on_[pm][pos];
      BURSTQ_REQUIRE(vm < pm_of_.size() && pm_of_[vm].value == pm,
                     "placement state lists disagree with pm_of");
      pos_in_pm_[vm] = pos;
      ++vms_assigned_;
    }
  }
  if (inst_ != nullptr) {
    BURSTQ_REQUIRE(st.bound,
                   "bound placement restored from unbound state");
    rb_sum_ = st.rb_sum;
    re_max_ = st.re_max;
  }
}

Resource total_rb_on_walk(const ProblemInstance& inst,
                          const Placement& placement, PmId pm) {
  Resource sum = 0.0;
  for (std::size_t i : placement.vms_on(pm)) sum += inst.vms[i].rb;
  return sum;
}

Resource max_re_on_walk(const ProblemInstance& inst,
                        const Placement& placement, PmId pm) {
  Resource m = 0.0;
  for (std::size_t i : placement.vms_on(pm))
    m = std::max(m, inst.vms[i].re);
  return m;
}

Resource total_rb_on(const ProblemInstance& inst, const Placement& placement,
                     PmId pm) {
  if (placement.tracks_aggregates(inst)) return placement.rb_sum_on(pm);
  return total_rb_on_walk(inst, placement, pm);
}

Resource max_re_on(const ProblemInstance& inst, const Placement& placement,
                   PmId pm) {
  if (placement.tracks_aggregates(inst)) return placement.re_max_on(pm);
  return max_re_on_walk(inst, placement, pm);
}

bool aggregates_consistent(const ProblemInstance& inst,
                           const Placement& placement, double rel_tol) {
  if (!placement.tracks_aggregates(inst)) return true;
  for (std::size_t j = 0; j < placement.n_pms(); ++j) {
    const PmId pm{j};
    if (placement.re_max_on(pm) != max_re_on_walk(inst, placement, pm))
      return false;
    const Resource cached = placement.rb_sum_on(pm);
    const Resource walked = total_rb_on_walk(inst, placement, pm);
    const Resource scale = std::max({std::abs(cached), std::abs(walked), 1.0});
    if (std::abs(cached - walked) > rel_tol * scale) return false;
  }
  return true;
}

Resource reserved_footprint(const ProblemInstance& inst,
                            const Placement& placement, PmId pm,
                            const MapCalTable& table) {
  const std::size_t k = placement.count_on(pm);
  if (k == 0) return 0.0;
  return max_re_on(inst, placement, pm) *
             static_cast<double>(table.blocks(k)) +
         total_rb_on(inst, placement, pm);
}

bool fits_with_reservation(const ProblemInstance& inst,
                           const Placement& placement, VmId vm, PmId pm,
                           const MapCalTable& table) {
  const std::size_t k_new = placement.count_on(pm) + 1;
  if (k_new > table.max_vms_per_pm()) return false;

  const VmSpec& v = inst.vms[vm.value];
  // Eq. (17): max(Re_i, max Re already placed) * mapping(|T|+1)
  //           + Rb_i + sum Rb already placed  <=  C_j
  const Resource block = std::max(v.re, max_re_on(inst, placement, pm));
  const Resource footprint = block * static_cast<double>(table.blocks(k_new)) +
                             v.rb + total_rb_on(inst, placement, pm);
  const Resource cap = inst.pms[pm.value].capacity;
  return footprint <= cap * (1.0 + kCapacityEpsilon);
}

Resource reserved_footprint_specs(std::span<const VmSpec> hosted,
                                  const MapCalTable& table) {
  if (hosted.empty()) return 0.0;
  Resource block = 0.0;
  Resource rb_sum = 0.0;
  for (const auto& v : hosted) {
    block = std::max(block, v.re);
    rb_sum += v.rb;
  }
  return block * static_cast<double>(table.blocks(hosted.size())) + rb_sum;
}

namespace {

/// Eq. (17) by a walk: the candidate first, then `hosted` in order, with
/// `spec_of` mapping each element to its VmSpec.  The one arithmetic
/// behind both public walk-based checks, so they agree bit-for-bit.
template <typename Range, typename SpecOf>
bool fits_walk(const Range& hosted, SpecOf spec_of, const VmSpec& candidate,
               Resource capacity, const MapCalTable& table) {
  const std::size_t k_new = hosted.size() + 1;
  if (k_new > table.max_vms_per_pm()) return false;
  Resource block = candidate.re;
  Resource rb_sum = candidate.rb;
  for (const auto& h : hosted) {
    const VmSpec& v = spec_of(h);
    block = std::max(block, v.re);
    rb_sum += v.rb;
  }
  const Resource footprint =
      block * static_cast<double>(table.blocks(k_new)) + rb_sum;
  return footprint <= capacity * (1.0 + kCapacityEpsilon);
}

}  // namespace

bool fits_with_reservation_specs(std::span<const VmSpec> hosted,
                                 const VmSpec& candidate, Resource capacity,
                                 const MapCalTable& table) {
  return fits_walk(
      hosted, [](const VmSpec& v) -> const VmSpec& { return v; }, candidate,
      capacity, table);
}

bool fits_with_reservation_walk(const ProblemInstance& inst,
                                const Placement& placement,
                                const VmSpec& candidate, PmId pm,
                                const MapCalTable& table) {
  return fits_walk(
      placement.vms_on(pm),
      [&inst](std::size_t i) -> const VmSpec& { return inst.vms[i]; },
      candidate, inst.pms[pm.value].capacity, table);
}

bool placement_satisfies_reservation(const ProblemInstance& inst,
                                     const Placement& placement,
                                     const MapCalTable& table) {
  for (std::size_t j = 0; j < placement.n_pms(); ++j) {
    const PmId pm{j};
    const std::size_t k = placement.count_on(pm);
    if (k == 0) continue;
    if (k > table.max_vms_per_pm()) return false;
    const Resource cap = inst.pms[j].capacity;
    if (reserved_footprint(inst, placement, pm, table) >
        cap * (1.0 + kCapacityEpsilon))
      return false;
  }
  return true;
}

bool placement_satisfies_initial_capacity(const ProblemInstance& inst,
                                          const Placement& placement) {
  for (std::size_t j = 0; j < placement.n_pms(); ++j) {
    const PmId pm{j};
    if (placement.count_on(pm) == 0) continue;
    const Resource cap = inst.pms[j].capacity;
    if (total_rb_on(inst, placement, pm) > cap * (1.0 + kCapacityEpsilon))
      return false;
  }
  return true;
}

}  // namespace burstq

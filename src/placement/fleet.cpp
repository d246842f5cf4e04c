#include "placement/fleet.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/error.h"
#include "obs/obs.h"
#include "placement/incremental.h"
#include "placement/placement.h"

namespace burstq {

namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

}  // namespace

FleetState::FleetState(std::vector<PmSpec> pms, MapCalTable table,
                       std::size_t shards, std::size_t decision_budget)
    : pms_(std::move(pms)),
      table_(std::move(table)),
      decision_budget_(decision_budget),
      on_pm_(pms_.size()),
      up_(pms_.size(), 1) {
  BURSTQ_REQUIRE(!pms_.empty(), "a fleet needs at least one PM");
  for (const auto& p : pms_) p.validate();
  index_.reset(pms_.size(), shards);
  refresh_all_keys();
}

bool FleetState::admits(const VmSpec& vm, PmId pm,
                        std::size_t without) const {
  const auto& list = on_pm_[pm.value];
  const std::size_t k_new = list.size() + (without == kNoSlot ? 1 : 0);
  if (k_new > table_.max_vms_per_pm()) return false;
  Resource block = vm.re;
  Resource rb_sum = vm.rb;
  for (std::size_t s : list) {
    if (s == without) continue;
    block = std::max(block, slots_[s].spec.re);
    rb_sum += slots_[s].spec.rb;
  }
  const Resource footprint =
      block * static_cast<double>(table_.blocks(k_new)) + rb_sum;
  return footprint <= pms_[pm.value].capacity * (1.0 + kCapacityEpsilon);
}

FleetState::Aggregates FleetState::aggregates(PmId pm) const {
  Aggregates a;
  for (std::size_t s : on_pm_[pm.value]) {
    a.rb_sum += slots_[s].spec.rb;
    a.re_max = std::max(a.re_max, slots_[s].spec.re);
  }
  return a;
}

void FleetState::refresh_key(PmId pm) {
  if (!up_[pm.value]) {
    index_.set_key(pm.value, -std::numeric_limits<double>::infinity());
    return;
  }
  const Aggregates a = aggregates(pm);
  index_.set_key(pm.value,
                 conservative_admit_key(pms_[pm.value].capacity,
                                        on_pm_[pm.value].size(), a.rb_sum,
                                        a.re_max, table_));
}

void FleetState::refresh_all_keys() {
  for (std::size_t j = 0; j < pms_.size(); ++j) refresh_key(PmId{j});
}

std::optional<PmId> FleetState::route(const VmSpec& vm, std::size_t home,
                                      PmId skip) const {
  // Down PMs never reach the exact check: their key is -inf.
  const auto exact = [&](std::size_t j) {
    return j != skip.value && admits(vm, PmId{j}, kNoSlot);
  };
  // std::cref keeps std::function from heap-allocating the closure.
  const auto outcome =
      index_.route(vm.rb, home, std::cref(exact), decision_budget_);
  if (outcome.budget_exhausted)
    BURSTQ_COUNT("placement.shard.budget_exhausted", 1);
  if (outcome.pm == ShardedAdmitIndex::npos) return std::nullopt;
  return PmId{outcome.pm};
}

std::optional<std::size_t> FleetState::admit(const VmSpec& vm) {
  const std::size_t home = route_seq_ % index_.shard_count();
  ++route_seq_;
  const auto pm = route(vm, home);
  if (!pm) return std::nullopt;
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
  }
  slots_[slot] = Slot{vm, PmId{}, true};
  ++live_count_;
  attach(slot, *pm);
  return slot;
}

void FleetState::detach(std::size_t slot) {
  Slot& s = slots_[slot];
  auto& list = on_pm_[s.pm.value];
  const auto it = std::find(list.begin(), list.end(), slot);
  BURSTQ_ASSERT(it != list.end(), "fleet PM lists out of sync");
  list.erase(it);
  refresh_key(s.pm);
  s.pm = PmId{};
}

void FleetState::attach(std::size_t slot, PmId pm) {
  BURSTQ_ASSERT(!slots_[slot].pm.valid(), "attach of a placed slot");
  slots_[slot].pm = pm;
  on_pm_[pm.value].push_back(slot);
  refresh_key(pm);
}

void FleetState::move(std::size_t slot, PmId to) {
  detach(slot);
  attach(slot, to);
}

void FleetState::release(std::size_t slot) {
  if (slots_[slot].pm.valid()) detach(slot);
  slots_[slot].live = false;
  free_slots_.push_back(slot);
  --live_count_;
}

void FleetState::set_spec(std::size_t slot, const VmSpec& spec) {
  BURSTQ_ASSERT(!slots_[slot].pm.valid(), "set_spec of a placed slot");
  slots_[slot].spec = spec;
}

FleetState::ResizeOutcome FleetState::resize(std::size_t slot,
                                             const VmSpec& spec) {
  Slot& s = slots_[slot];
  const PmId pm = s.pm;
  if (admits(spec, pm, slot)) {
    s.spec = spec;
    refresh_key(pm);
    return ResizeOutcome::kInPlace;
  }
  detach(slot);
  const auto target = route(spec, index_.shard_of(pm.value));
  if (!target) {
    attach(slot, pm);
    return ResizeOutcome::kRejected;
  }
  s.spec = spec;
  attach(slot, *target);
  return ResizeOutcome::kMoved;
}

std::vector<std::size_t> FleetState::take_down(PmId pm) {
  up_[pm.value] = 0;
  refresh_key(pm);  // -inf: routing skips the dead host entirely
  std::vector<std::size_t> victims = std::move(on_pm_[pm.value]);
  on_pm_[pm.value].clear();
  for (std::size_t s : victims) slots_[s].pm = PmId{};
  return victims;
}

void FleetState::bring_up(PmId pm) {
  up_[pm.value] = 1;
  refresh_key(pm);
}

void FleetState::set_table(MapCalTable table) {
  table_ = std::move(table);
  refresh_all_keys();
}

void FleetState::restore(std::vector<Slot> slots,
                         std::vector<std::size_t> free_slots,
                         std::vector<std::vector<std::size_t>> hosted,
                         std::vector<std::uint8_t> up,
                         std::size_t route_seq) {
  BURSTQ_REQUIRE(hosted.size() == pms_.size() && up.size() == pms_.size(),
                 "restored fleet does not match the PM count");
  slots_ = std::move(slots);
  free_slots_ = std::move(free_slots);
  on_pm_ = std::move(hosted);
  up_ = std::move(up);
  route_seq_ = route_seq;
  live_count_ = static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(), [](const Slot& s) { return s.live; }));
  refresh_all_keys();
}

bool FleetState::any_down() const {
  return std::find(up_.begin(), up_.end(), std::uint8_t{0}) != up_.end();
}

std::size_t FleetState::pms_used() const {
  return static_cast<std::size_t>(
      std::count_if(on_pm_.begin(), on_pm_.end(),
                    [](const auto& list) { return !list.empty(); }));
}

bool FleetState::pm_satisfies_reservation(PmId pm) const {
  const auto& list = on_pm_[pm.value];
  if (list.empty()) return true;
  if (list.size() > table_.max_vms_per_pm()) return false;
  const Aggregates a = aggregates(pm);
  return a.re_max * static_cast<double>(table_.blocks(list.size())) +
             a.rb_sum <=
         pms_[pm.value].capacity * (1.0 + kCapacityEpsilon);
}

bool FleetState::invariant_holds() const {
  std::size_t placed = 0;
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    const PmId pm{j};
    if (!up_[j] && !on_pm_[j].empty()) return false;  // dead PMs host nothing
    if (!pm_satisfies_reservation(pm)) return false;
    for (std::size_t s : on_pm_[j])
      if (!live(s) || slots_[s].pm != pm) return false;
    placed += on_pm_[j].size();
  }
  const auto placed_slots = std::count_if(
      slots_.begin(), slots_.end(),
      [](const Slot& s) { return s.live && s.pm.valid(); });
  return placed == static_cast<std::size_t>(placed_slots);
}

}  // namespace burstq

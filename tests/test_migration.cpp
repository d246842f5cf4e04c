// Tests for victim and target selection of the migration policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/error.h"
#include "sim/migration.h"
#include "sim/target_index.h"

namespace burstq {
namespace {

TEST(SelectVictim, PrefersLargestOnVm) {
  const std::vector<std::size_t> on_pm{0, 1, 2};
  const std::vector<Resource> demand{5.0, 20.0, 12.0};
  const std::vector<VmState> state{VmState::kOff, VmState::kOn,
                                   VmState::kOn};
  const auto v = select_victim(on_pm, demand, state);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, VmId{1});
}

TEST(SelectVictim, FallsBackToLargestDemandWhenAllOff) {
  const std::vector<std::size_t> on_pm{0, 1};
  const std::vector<Resource> demand{5.0, 9.0};
  const std::vector<VmState> state{VmState::kOff, VmState::kOff};
  const auto v = select_victim(on_pm, demand, state);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, VmId{1});
}

TEST(SelectVictim, EmptyPmReturnsNullopt) {
  const std::vector<std::size_t> empty;
  const std::vector<Resource> demand{1.0};
  const std::vector<VmState> state{VmState::kOff};
  EXPECT_FALSE(select_victim(empty, demand, state).has_value());
}

TEST(SelectVictim, OnBeatsLargerOffDemand) {
  // A small ON VM is preferred over a big OFF one (the spike is what
  // local resizing could not absorb).
  const std::vector<std::size_t> on_pm{0, 1};
  const std::vector<Resource> demand{50.0, 8.0};
  const std::vector<VmState> state{VmState::kOff, VmState::kOn};
  EXPECT_EQ(*select_victim(on_pm, demand, state), VmId{1});
}

// The observed-load rule reads loads from its own span; the instance only
// supplies capacities and the placement only the per-PM VM counts.
ProblemInstance fleet(const std::vector<Resource>& cap,
                      const std::vector<std::size_t>& count) {
  ProblemInstance inst;
  for (const Resource c : cap) inst.pms.push_back(PmSpec{c});
  std::size_t n = 0;
  for (const std::size_t k : count) n += k;
  inst.vms.assign(std::max<std::size_t>(n, 1),
                  VmSpec{OnOffParams{0.1, 0.5}, 1.0, 1.0});
  return inst;
}

Placement hosting(const ProblemInstance& inst,
                  const std::vector<std::size_t>& count) {
  Placement pl(inst);
  std::size_t vm = 0;
  for (std::size_t j = 0; j < count.size(); ++j)
    for (std::size_t k = 0; k < count[j]; ++k) pl.assign(VmId{vm++}, PmId{j});
  return pl;
}

std::optional<PmId> select_target(PmId source, Resource victim_demand,
                                  const std::vector<Resource>& load,
                                  const std::vector<Resource>& cap,
                                  const std::vector<std::size_t>& count,
                                  std::size_t max_vms) {
  const ProblemInstance inst = fleet(cap, count);
  const Placement pl = hosting(inst, count);
  TargetIndex index(inst, TargetSelection::kObservedLoad, max_vms, nullptr);
  index.rebuild(pl, load, {});
  return index.select(pl, load, source, VmId{0}, victim_demand);
}

TEST(SelectTarget, FirstFitByObservedLoad) {
  const std::vector<Resource> load{90.0, 50.0, 10.0};
  const std::vector<Resource> cap{100.0, 100.0, 100.0};
  const std::vector<std::size_t> count{3, 3, 1};
  const auto t = select_target(PmId{0}, 30.0, load, cap, count, 16);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, PmId{1});  // PM1 is the first with room (50+30 <= 100)
}

TEST(SelectTarget, SkipsSourcePm) {
  const std::vector<Resource> load{0.0, 90.0};
  const std::vector<Resource> cap{100.0, 100.0};
  const std::vector<std::size_t> count{0, 3};
  const auto t = select_target(PmId{0}, 5.0, load, cap, count, 16);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, PmId{1});  // the only non-source option that fits (90+5)
}

TEST(SelectTarget, SkipsFullVmCount) {
  const std::vector<Resource> load{90.0, 10.0};
  const std::vector<Resource> cap{100.0, 100.0};
  const std::vector<std::size_t> count{1, 16};
  EXPECT_FALSE(
      select_target(PmId{0}, 5.0, load, cap, count, 16).has_value());
}

TEST(SelectTarget, NoCapacityAnywhere) {
  const std::vector<Resource> load{95.0, 99.0};
  const std::vector<Resource> cap{100.0, 100.0};
  const std::vector<std::size_t> count{2, 2};
  EXPECT_FALSE(
      select_target(PmId{0}, 10.0, load, cap, count, 16).has_value());
}

TEST(SelectTarget, IdleDeceptionScenario) {
  // A PM that is momentarily idle (all hosted VMs OFF) looks like a great
  // target even if it is packed to the brim by Rb — the mechanism behind
  // the paper's cycle migration.  The policy must pick it (that is the
  // observed behaviour being modeled, not a bug).
  const std::vector<Resource> load{100.0, 20.0};
  const std::vector<Resource> cap{100.0, 100.0};
  const std::vector<std::size_t> count{4, 10};  // PM1 crowded but quiet
  const auto t = select_target(PmId{0}, 15.0, load, cap, count, 16);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, PmId{1});
}

TEST(MigrationPolicy, Validation) {
  MigrationPolicy ok;
  EXPECT_NO_THROW(ok.validate());
  MigrationPolicy bad = ok;
  bad.rho = 1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ok;
  bad.cvr_window = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ok;
  bad.max_vms_per_pm = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(SelectTarget, MismatchedSpansThrow) {
  const std::vector<Resource> load{1.0};
  const std::vector<Resource> cap{1.0, 2.0};
  const std::vector<std::size_t> count{1};
  EXPECT_THROW(select_target(PmId{0}, 1.0, load, cap, count, 4),
               InvalidArgument);
}

}  // namespace
}  // namespace burstq

// Tests for the scheduler's migration target index (sim/target_index.h):
// the index against the linear first-fit scans it replaced, for both
// target rules, under churn, down PMs, per-PM VM caps and bound and
// unbound placements, plus the float boundaries its margin covers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "placement/incremental.h"
#include "placement/placement.h"
#include "placement/pm_slack_tree.h"
#include "queuing/mapcal.h"
#include "sim/target_index.h"

namespace burstq {
namespace {

// --- reference: the linear scans the index replaced ----------------------

std::optional<PmId> linear_observed(const ProblemInstance& inst,
                                    const Placement& pl,
                                    std::span<const Resource> load,
                                    std::span<const std::uint8_t> up,
                                    std::size_t max_vms, PmId source,
                                    Resource demand) {
  for (std::size_t j = 0; j < load.size(); ++j) {
    const PmId pm{j};
    if (pm == source) continue;
    if (!up.empty() && !up[j]) continue;
    if (pl.count_on(pm) + 1 > max_vms) continue;
    if (load[j] + demand <= inst.pms[j].capacity * (1.0 + kCapacityEpsilon))
      return pm;
  }
  return std::nullopt;
}

std::optional<PmId> linear_reservation(const ProblemInstance& inst,
                                       const Placement& pl,
                                       std::span<const std::uint8_t> up,
                                       const MapCalTable& table, PmId source,
                                       VmId victim) {
  for (std::size_t p = 0; p < inst.n_pms(); ++p) {
    const PmId cand{p};
    if (cand == source) continue;
    if (!up.empty() && !up[p]) continue;
    if (fits_with_reservation(inst, pl, victim, cand, table)) return cand;
  }
  return std::nullopt;
}

// --- differential churn ---------------------------------------------------

constexpr OnOffParams kParams{0.1, 0.3};
constexpr std::size_t kMaxVms = 6;

struct Scenario {
  std::uint64_t seed;
  TargetSelection rule;
  bool down_pms;
  bool bound;
};

std::string describe(const Scenario& s) {
  return "seed=" + std::to_string(s.seed) +
         (s.rule == TargetSelection::kReservationAware ? " reservation"
                                                       : " observed") +
         (s.down_pms ? " down-pms" : " all-up") +
         (s.bound ? " bound" : " unbound");
}

// Mimics the scheduler: per "slot" fresh demands, loads and up mask, a
// rebuild, then a run of triggers from random sources, each move applied
// the way ClusterSimulator applies it (the source keeps the copy's load)
// followed by the two leaf refreshes.  Every search must match the
// linear scan.  Returns the number of successful moves.
std::size_t churn(const Scenario& s) {
  Rng rng(s.seed);
  ProblemInstance inst;
  const std::size_t n = 360;
  const std::size_t m = 70;
  for (std::size_t i = 0; i < n; ++i)
    inst.vms.push_back(VmSpec{kParams, rng.uniform(2.0, 14.0),
                              rng.uniform(1.0, 20.0)});
  for (std::size_t j = 0; j < m; ++j)
    inst.pms.push_back(PmSpec{rng.uniform(45.0, 110.0)});

  Placement pl = s.bound ? Placement(inst) : Placement(n, m);
  for (std::size_t i = 0; i < n; ++i)
    pl.assign(VmId{i}, PmId{rng.next_below(m)});

  std::optional<MapCalTable> table;
  if (s.rule == TargetSelection::kReservationAware)
    table.emplace(kMaxVms, kParams, 0.05);
  TargetIndex index(inst, s.rule, kMaxVms, table ? &*table : nullptr);

  std::vector<Resource> demand(n);
  std::vector<Resource> load(m);
  std::vector<std::uint8_t> up;
  std::size_t moves = 0;
  for (std::size_t slot = 0; slot < 12; ++slot) {
    for (std::size_t i = 0; i < n; ++i)
      demand[i] = rng.bernoulli(0.3) ? inst.vms[i].rp() : inst.vms[i].rb;
    for (std::size_t j = 0; j < m; ++j) {
      load[j] = 0.0;
      for (std::size_t i : pl.vms_on(PmId{j})) load[j] += demand[i];
    }
    up.clear();
    if (s.down_pms)
      for (std::size_t j = 0; j < m; ++j) up.push_back(!rng.bernoulli(0.2));
    index.rebuild(pl, load, up);

    for (std::size_t trigger = 0; trigger < 40; ++trigger) {
      const PmId source{rng.next_below(m)};
      const auto& hosted = pl.vms_on(source);
      if (hosted.empty()) continue;
      const VmId victim{hosted[rng.next_below(hosted.size())]};
      const Resource vdemand = demand[victim.value];
      const std::optional<PmId> want =
          s.rule == TargetSelection::kReservationAware
              ? linear_reservation(inst, pl, up, *table, source, victim)
              : linear_observed(inst, pl, load, up, kMaxVms, source,
                                vdemand);
      const std::optional<PmId> got =
          index.select(pl, load, source, victim, vdemand);
      EXPECT_EQ(got, want) << describe(s) << " slot=" << slot
                           << " trigger=" << trigger;
      if (got != want) return moves;
      if (!got) continue;
      pl.unassign(victim);
      pl.assign(victim, *got);
      load[got->value] += vdemand;
      index.refresh(pl, load, up, source);
      index.refresh(pl, load, up, *got);
      ++moves;
    }
  }
  return moves;
}

TEST(TargetIndex, MatchesLinearScanUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (const auto rule : {TargetSelection::kObservedLoad,
                            TargetSelection::kReservationAware})
      for (const bool down : {false, true})
        for (const bool bound : {true, false}) {
          const Scenario s{seed, rule, down, bound};
          EXPECT_GT(churn(s), 20u) << describe(s);
        }
}

// --- observed-load boundaries ---------------------------------------------

struct Boundary {
  Resource demand{0.0};
  Resource exact{0.0};  ///< fl(exact + demand) == C(1+eps)
  Resource tight{0.0};  ///< lowest load above `exact` that no longer fits
};

// A load that fills the PM exactly to C(1+eps) while the float slack
// C(1+eps) - load still rounds *below* the demand: without the key's
// margin the tree would hide this PM from a search the exact check
// accepts.
Boundary find_boundary(Resource cap) {
  const double limit = cap * (1.0 + kCapacityEpsilon);
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 1; i < 4000; ++i) {
    const double v = 0.4 * cap + 0.0731 * i;
    double l = std::nextafter(limit - v, -inf);
    for (int step = 0; step < 8; ++step, l = std::nextafter(l, inf)) {
      if (l < 0.0 || !(l + v <= limit) || !(limit - l < v)) continue;
      double s = l;
      while (s + v <= limit) s = std::nextafter(s, inf);
      return Boundary{v, l, s};
    }
  }
  return Boundary{};
}

TEST(TargetIndex, ObservedLoadBoundaryMatchesLinearScan) {
  const Resource cap = 80.0;
  const Boundary b = find_boundary(cap);
  ASSERT_GT(b.demand, 0.0) << "no boundary case found";
  const double limit = cap * (1.0 + kCapacityEpsilon);
  ASSERT_EQ(b.exact + b.demand, limit);
  ASSERT_LT(limit - b.exact, b.demand);
  ASSERT_GT(b.tight + b.demand, limit);

  // PM 0 is the (empty) source, PM 1 is a ulp short, PM 2 is filled
  // exactly to C(1+eps), PM 3 is empty.
  ProblemInstance inst;
  inst.pms.assign(4, PmSpec{cap});
  inst.vms.assign(3, VmSpec{kParams, 1.0, 1.0});
  Placement pl(inst);
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});
  pl.assign(VmId{2}, PmId{2});
  const std::vector<Resource> load{0.0, b.tight, b.exact, 0.0};
  TargetIndex index(inst, TargetSelection::kObservedLoad, 16, nullptr);
  index.rebuild(pl, load, {});
  const auto want =
      linear_observed(inst, pl, load, {}, 16, PmId{0}, b.demand);
  ASSERT_EQ(want, PmId{2});
  EXPECT_EQ(index.select(pl, load, PmId{0}, VmId{0}, b.demand), want);
}

TEST(TargetIndex, DownPmsAndFullPmsAreSkipped) {
  ProblemInstance inst;
  inst.pms.assign(4, PmSpec{100.0});
  inst.vms.assign(3, VmSpec{kParams, 1.0, 1.0});
  Placement pl(inst);
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{2});
  pl.assign(VmId{2}, PmId{2});
  const std::vector<Resource> load{50.0, 0.0, 10.0, 20.0};
  const std::vector<std::uint8_t> up{1, 0, 1, 1};  // PM 1 is down
  TargetIndex index(inst, TargetSelection::kObservedLoad, 2, nullptr);
  index.rebuild(pl, load, up);
  // PM 1 is down and PM 2 holds the cap of 2 VMs: PM 3 is first.
  EXPECT_EQ(index.select(pl, load, PmId{0}, VmId{0}, 5.0), PmId{3});
}

// --- reservation-aware rule ---------------------------------------------

// A PM whose key clears the victim's Rb but whose Eq. (17) check fails
// (the victim's Re raises the reserved block): the search must resume
// past it to the next PM rather than give up.
TEST(TargetIndex, ReservationFalsePositiveResumesDescent) {
  ProblemInstance inst;
  inst.pms.assign(3, PmSpec{40.0});
  inst.vms.push_back(VmSpec{kParams, 4.0, 30.0});  // victim, on PM 0
  inst.vms.push_back(VmSpec{kParams, 10.0, 1.0});  // small Re on PM 1
  Placement pl(inst);
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});
  const MapCalTable table(8, kParams, 0.05);
  const std::vector<Resource> load(3, 0.0);
  TargetIndex index(inst, TargetSelection::kReservationAware, 8, &table);
  index.rebuild(pl, load, {});
  ASSERT_FALSE(fits_with_reservation(inst, pl, VmId{0}, PmId{1}, table));
  ASSERT_GE(conservative_admit_key(inst, pl, PmId{1}, table), 4.0);
  const auto want = linear_reservation(inst, pl, {}, table, PmId{0}, VmId{0});
  ASSERT_EQ(want, PmId{2});
  EXPECT_EQ(index.select(pl, load, PmId{0}, VmId{0}, 0.0), want);
}

// Capacities set so the victim's Eq. (17) footprint just fits one PM
// (the lowest such capacity) and misses the PM before it by a ulp.  The
// hosted VM holds the larger Re, so the key's slack equals the victim's
// Rb up to rounding and only the key's margin keeps the PM findable.
TEST(TargetIndex, ReservationBoundaryMatchesLinearScan) {
  const MapCalTable table(8, kParams, 0.05);
  const VmSpec hosted{kParams, 7.3, 6.9};
  const VmSpec victim{kParams, 3.7, 5.1};
  const double footprint =
      std::max(hosted.re, victim.re) * static_cast<double>(table.blocks(2)) +
      victim.rb + hosted.rb;
  const double inf = std::numeric_limits<double>::infinity();
  const auto fits = [&](double c) {
    return footprint <= c * (1.0 + kCapacityEpsilon);
  };
  double cap = footprint / (1.0 + kCapacityEpsilon);
  while (!fits(cap)) cap = std::nextafter(cap, inf);
  while (fits(std::nextafter(cap, -inf))) cap = std::nextafter(cap, -inf);
  const double tight = std::nextafter(cap, -inf);

  ProblemInstance inst;
  inst.pms = {PmSpec{100.0}, PmSpec{tight}, PmSpec{cap}};
  inst.vms = {victim, hosted, hosted};
  for (const bool bound : {true, false}) {
    Placement pl = bound ? Placement(inst) : Placement(3, 3);
    pl.assign(VmId{0}, PmId{0});
    pl.assign(VmId{1}, PmId{1});
    pl.assign(VmId{2}, PmId{2});
    const std::vector<Resource> load(3, 0.0);
    TargetIndex index(inst, TargetSelection::kReservationAware, 8, &table);
    index.rebuild(pl, load, {});
    const auto want =
        linear_reservation(inst, pl, {}, table, PmId{0}, VmId{0});
    ASSERT_EQ(want, PmId{2}) << (bound ? "bound" : "unbound");
    EXPECT_EQ(index.select(pl, load, PmId{0}, VmId{0}, 0.0), want)
        << (bound ? "bound" : "unbound");
  }
}

TEST(TargetIndex, ReservationRuleNeedsTable) {
  ProblemInstance inst;
  inst.pms.assign(2, PmSpec{10.0});
  inst.vms.assign(1, VmSpec{kParams, 1.0, 1.0});
  EXPECT_THROW(
      TargetIndex(inst, TargetSelection::kReservationAware, 4, nullptr),
      InvalidArgument);
}

TEST(TargetIndex, RejectsMismatchedUpMask) {
  ProblemInstance inst;
  inst.pms.assign(2, PmSpec{10.0});
  inst.vms.assign(1, VmSpec{kParams, 1.0, 1.0});
  const Placement pl(inst);
  const std::vector<Resource> load(2, 0.0);
  const std::vector<std::uint8_t> up{1};
  TargetIndex index(inst, TargetSelection::kObservedLoad, 4, nullptr);
  EXPECT_THROW(index.rebuild(pl, load, up), InvalidArgument);
}

// --- PmSlackTree::rebuild -------------------------------------------------

TEST(PmSlackTree, RebuildMatchesFreshTree) {
  PmSlackTree tree({1.0, 2.0, 3.0});
  const std::vector<double> keys{5.0, 1.0, 8.0, 3.0, 8.0};
  tree.rebuild(keys);
  const PmSlackTree fresh(keys);
  ASSERT_EQ(tree.size(), fresh.size());
  for (const double t : {0.0, 2.0, 4.0, 6.0, 9.0})
    for (std::size_t from = 0; from <= keys.size(); ++from)
      EXPECT_EQ(tree.find_first_ge(t, from), fresh.find_first_ge(t, from));
  tree.rebuild(std::vector<double>{7.0});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.find_first_ge(7.0), 0u);
  EXPECT_EQ(tree.find_first_ge(7.5), PmSlackTree::npos);
  EXPECT_THROW(tree.rebuild(std::vector<double>{}), InvalidArgument);
}

}  // namespace
}  // namespace burstq

// Pins of the dynamic scheduler's migration decisions.
//
// Each constant is the CRC-32 of a run's migration events and final
// placement, recorded with the linear first-fit target scans that the
// slack-tree TargetIndex replaced.  Any change to which PM either target
// rule picks, in which order triggers fire, or how a move updates the
// placement moves a constant.  The grid covers both target rules, with
// and without faults (Markov crashes and migration aborts plus a solver
// outage), on bound and unbound initial placements; the flash-crowd runs
// are the perfbench `flash_crowd` workload scaled to 2 000 PMs.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "durable/state_codec.h"
#include "fault/plan.h"
#include "obs/trace_codec.h"
#include "placement/baselines.h"
#include "placement/queuing_ffd.h"
#include "queuing/mapcal.h"
#include "sim/cluster_sim.h"

namespace burstq {
namespace {

std::uint32_t run_crc(const SimReport& rep, const Placement& final) {
  durable::StateWriter w;
  w.varint(rep.events.size());
  for (const MigrationEvent& e : rep.events) {
    w.varint(static_cast<std::uint64_t>(e.slot));
    w.varint(e.vm.value);
    w.varint(e.from.value);
    w.varint(e.to.valid() ? e.to.value + 1 : 0);
  }
  for (std::size_t i = 0; i < final.n_vms(); ++i) {
    const PmId pm = final.pm_of(VmId{i});
    w.varint(pm.valid() ? pm.value + 1 : 0);
  }
  return obs::trace_detail::crc32(w.data());
}

/// Overcommitted fleet (Rb-based packing) that migrates under load.
ProblemInstance busy_instance(std::uint64_t seed) {
  Rng rng(seed);
  ProblemInstance inst;
  for (std::size_t i = 0; i < 240; ++i) {
    OnOffParams p{rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.3)};
    inst.vms.push_back(
        VmSpec{p, rng.uniform(4.0, 10.0), rng.uniform(4.0, 12.0)});
  }
  inst.pms.assign(60, PmSpec{40.0});
  return inst;
}

/// The same mapping without the instance binding, so Eq. (17) checks walk
/// the hosted VMs instead of reading cached aggregates.
Placement unbound_copy(const Placement& p) {
  Placement out(p.n_vms(), p.n_pms());
  for (std::size_t i = 0; i < p.n_vms(); ++i)
    out.assign(VmId{i}, p.pm_of(VmId{i}));
  return out;
}

struct GridCase {
  std::uint64_t seed;
  TargetSelection rule;
  bool faults;
  bool bound;
};

std::uint32_t grid_crc(const GridCase& c, SimReport& rep) {
  const ProblemInstance inst = busy_instance(c.seed);
  const PlacementResult placed = ffd_by_normal(inst);
  EXPECT_TRUE(placed.complete());
  const Placement initial =
      c.bound ? placed.placement : unbound_copy(placed.placement);

  mapcal_table_cache_clear();
  SimConfig cfg;
  cfg.slots = 120;
  cfg.policy.rho = 0.05;
  cfg.policy.cost_slots = 2;
  cfg.policy.max_vms_per_pm = 8;
  cfg.policy.target = c.rule;
  if (c.faults) {
    cfg.faults = fault::parse_fault_plan("solver@0:slots=40");
    cfg.faults->markov.p_crash = 0.01;
    cfg.faults->markov.p_recover = 0.08;
    cfg.faults->markov.p_mig_fail = 0.05;
    cfg.faults->seed = c.seed + 100;
  }
  ClusterSimulator sim(inst, initial, cfg, Rng(c.seed * 7 + 1));
  rep = sim.run();
  const std::uint32_t crc = run_crc(rep, sim.placement());
  mapcal_table_cache_clear();
  return crc;
}

std::string name(const GridCase& c) {
  return "seed=" + std::to_string(c.seed) +
         (c.rule == TargetSelection::kReservationAware ? " reservation"
                                                       : " observed") +
         (c.faults ? " faults" : " no-faults") +
         (c.bound ? " bound" : " unbound");
}

TEST(SchedulerPins, GridMatchesLinearScan) {
  struct Pinned {
    GridCase c;
    std::uint32_t crc;
  };
  constexpr auto kObs = TargetSelection::kObservedLoad;
  constexpr auto kRes = TargetSelection::kReservationAware;
  const Pinned pins[] = {
      {{1, kObs, false, true}, 0xd8fff360u},
      {{1, kObs, true, true}, 0x24414230u},
      {{1, kRes, false, true}, 0xcbe092ecu},
      {{1, kRes, true, true}, 0x23743657u},
      {{2, kObs, false, true}, 0x9f2cb1c4u},
      {{2, kObs, true, true}, 0x7f13ed2bu},
      {{2, kRes, false, true}, 0x1522163au},
      {{2, kRes, true, true}, 0x9696355cu},
      {{3, kObs, true, false}, 0x0583b349u},
      {{3, kRes, false, false}, 0xf0b201b2u},
      {{3, kRes, true, false}, 0xd808dffau},
  };
  for (const Pinned& p : pins) {
    SimReport rep;
    const std::uint32_t crc = grid_crc(p.c, rep);
    EXPECT_EQ(crc, p.crc) << name(p.c) << " crc=0x" << std::hex << crc;
    EXPECT_GT(rep.total_migrations, 0u) << name(p.c);
    EXPECT_EQ(rep.faults.lost_vms, 0u) << name(p.c);
  }
}

std::uint32_t flash_crowd_crc(TargetSelection rule, SimReport& rep) {
  constexpr OnOffParams kBase{0.01, 0.09};
  Rng rng(19);
  const ProblemInstance inst =
      random_instance(10000, 2000, kBase, InstanceRanges{}, rng);
  const QueuingFfdOutcome placed = queuing_ffd(inst);
  EXPECT_TRUE(placed.result.complete());

  SimConfig cfg;
  cfg.slots = 30;
  cfg.policy.target = rule;
  cfg.workload_phases.push_back(
      WorkloadPhase{1, kBase.p_on * 2.5, std::nullopt});
  ClusterSimulator sim(inst, placed.result.placement, cfg, Rng(23));
  rep = sim.run();
  return run_crc(rep, sim.placement());
}

TEST(SchedulerPins, FlashCrowdObservedLoad) {
  SimReport rep;
  const std::uint32_t crc =
      flash_crowd_crc(TargetSelection::kObservedLoad, rep);
  EXPECT_EQ(crc, 0x73c6e635u) << "crc=0x" << std::hex << crc;
  EXPECT_GT(rep.total_migrations, 500u);
}

TEST(SchedulerPins, FlashCrowdReservationAware) {
  SimReport rep;
  const std::uint32_t crc =
      flash_crowd_crc(TargetSelection::kReservationAware, rep);
  EXPECT_EQ(crc, 0x927b456bu) << "crc=0x" << std::hex << crc;
  EXPECT_GT(rep.total_migrations, 500u);
}

}  // namespace
}  // namespace burstq

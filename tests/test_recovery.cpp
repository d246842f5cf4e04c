// Recovery under PM churn: the RecoveryController's evacuate/queue/drain
// discipline, the degradation ladder under solver outages, and the
// ClusterSimulator's end-to-end fault handling (zero lost VMs, queue
// drain after recovery, same-seed bit-identity).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "durable/state_codec.h"
#include "fault/degrade.h"
#include "fault/plan.h"
#include "fault/recovery.h"
#include "obs/obs.h"
#include "obs/trace_codec.h"
#include "placement/baselines.h"
#include "placement/queuing_ffd.h"
#include "queuing/mapcal.h"
#include "sim/cluster_sim.h"

namespace burstq {
namespace {

const OnOffParams kBursty{0.05, 0.15};

ProblemInstance tight_instance() {
  // Two PMs of capacity 20 hosting one VM each; rb = 12 means two VMs on
  // one PM need Rb 24 > 20, so *every* ladder rung rejects collocation.
  ProblemInstance inst;
  inst.vms.assign(2, VmSpec{kBursty, 12.0, 6.0});
  inst.pms.assign(2, PmSpec{20.0});
  return inst;
}

std::vector<std::uint8_t> all_up(std::size_t n) {
  return std::vector<std::uint8_t>(n, 1);
}

// --- RecoveryController -----------------------------------------------

TEST(RecoveryController, EvacuatesOntoAnUpPmWhenOneFits) {
  ProblemInstance inst;
  inst.vms.assign(3, VmSpec{kBursty, 4.0, 3.0});
  inst.pms.assign(3, PmSpec{60.0});
  Placement pl(inst.n_vms(), inst.n_pms());
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});
  pl.assign(VmId{2}, PmId{2});

  fault::RecoveryController rc(inst, fault::RecoveryPolicy{}, 16, 0.01,
                               StationaryMethod::kGaussian);
  auto up = all_up(3);
  up[1] = 0;  // PM 1 just crashed
  const OnOffParams rounded = round_uniform_params(inst.vms);
  const std::size_t moved =
      rc.evacuate(pl, PmId{1}, up, rounded, /*slot=*/4);

  EXPECT_EQ(moved, 1u);
  EXPECT_TRUE(rc.queue().empty());
  EXPECT_TRUE(pl.assigned(VmId{1}));
  EXPECT_NE(pl.pm_of(VmId{1}), PmId{1});
  EXPECT_TRUE(rc.invariant_holds(pl, up));
}

TEST(RecoveryController, QueuesWithReasonWhenNothingFitsThenDrains) {
  const ProblemInstance inst = tight_instance();
  Placement pl(2, 2);
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});

  fault::RecoveryPolicy policy;
  policy.backoff_base_slots = 1;
  fault::RecoveryController rc(inst, policy, 16, 0.01,
                               StationaryMethod::kGaussian);
  auto up = all_up(2);
  up[1] = 0;
  const OnOffParams rounded = round_uniform_params(inst.vms);
  EXPECT_EQ(rc.evacuate(pl, PmId{1}, up, rounded, /*slot=*/0), 0u);

  ASSERT_EQ(rc.queue().size(), 1u);
  EXPECT_EQ(rc.queue()[0].vm, 1u);
  EXPECT_EQ(rc.queue()[0].reason, fault::QueueReason::kNoFeasiblePm);
  EXPECT_EQ(rc.enqueued_total(), 1u);
  EXPECT_FALSE(pl.assigned(VmId{1}));
  EXPECT_TRUE(rc.invariant_holds(pl, up));

  // Still down: due attempts fail, retries grow, the VM is never dropped.
  std::size_t slot = 1;
  for (; slot < 10; ++slot) (void)rc.drain(pl, up, rounded, slot);
  EXPECT_EQ(rc.queue().size(), 1u);
  EXPECT_GE(rc.retries_total(), 2u);
  const std::size_t retries_while_down = rc.retries_total();

  // PM 1 recovers; the next due attempt re-places the VM.
  up[1] = 1;
  std::size_t drained = 0;
  for (; slot < 200 && drained == 0; ++slot)
    drained = rc.drain(pl, up, rounded, slot);
  EXPECT_EQ(drained, 1u);
  EXPECT_TRUE(rc.queue().empty());
  EXPECT_TRUE(pl.assigned(VmId{1}));
  EXPECT_GT(rc.retries_total(), retries_while_down);
  EXPECT_TRUE(rc.invariant_holds(pl, up));
}

TEST(RecoveryController, BackoffIsBoundedByTheCap) {
  const ProblemInstance inst = tight_instance();
  Placement pl(2, 2);
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});

  fault::RecoveryPolicy policy;
  policy.backoff_base_slots = 1;
  policy.backoff_cap_slots = 8;
  fault::RecoveryController rc(inst, policy, 16, 0.01,
                               StationaryMethod::kGaussian);
  auto up = all_up(2);
  up[1] = 0;
  const OnOffParams rounded = round_uniform_params(inst.vms);
  (void)rc.evacuate(pl, PmId{1}, up, rounded, 0);

  std::size_t last_attempt = 0;
  std::size_t max_gap = 0;
  for (std::size_t slot = 1; slot < 400; ++slot) {
    const std::size_t before = rc.retries_total();
    (void)rc.drain(pl, up, rounded, slot);
    if (rc.retries_total() > before) {
      if (last_attempt != 0) max_gap = std::max(max_gap, slot - last_attempt);
      last_attempt = slot;
    }
  }
  EXPECT_GE(rc.retries_total(), 10u);  // capped backoff keeps retrying
  EXPECT_LE(max_gap, policy.backoff_cap_slots);

  // The shared delay function (the controller's crash queue uses it too).
  EXPECT_EQ(fault::backoff_delay(policy, 0), 1u);
  EXPECT_EQ(fault::backoff_delay(policy, 2), 4u);
  EXPECT_EQ(fault::backoff_delay(policy, 3), 8u);
  EXPECT_EQ(fault::backoff_delay(policy, 1000), 8u);
}

// --- degradation ladder -----------------------------------------------

TEST(ReservationLadder, DegradesUnderSolverFaultInsteadOfThrowing) {
  mapcal_table_cache_clear();  // no memoized rung-1 escape hatch
  fault::ReservationLadder ladder(16, 0.01, StationaryMethod::kGaussian);
  const VmSpec vm{kBursty, 4.0, 3.0};
  const std::vector<VmSpec> hosted(3, vm);

  ScopedSolverFault outage;
  bool decided = false;
  EXPECT_NO_THROW(decided = ladder.admits(hosted, vm, Resource{60.0},
                                          kBursty));
  EXPECT_TRUE(decided);  // plenty of room at any rung
  EXPECT_GT(ladder.degraded_decisions(), 0u);
  EXPECT_NE(ladder.last_level(), fault::ReserveLevel::kTable);
  EXPECT_NE(ladder.last_level(), fault::ReserveLevel::kGaussianTable);
}

TEST(ReservationLadder, CacheHitServesRungOneDuringOutage) {
  mapcal_table_cache_clear();
  const OnOffParams rounded = round_uniform_params(
      std::vector<VmSpec>(4, VmSpec{kBursty, 4.0, 3.0}));
  // Warm the memo cache with the exact (d, params, rho) key the ladder
  // will ask for.
  const MapCalTable warm(16, rounded, 0.01, StationaryMethod::kGaussian);
  (void)warm;

  fault::ReservationLadder ladder(16, 0.01, StationaryMethod::kGaussian);
  ScopedSolverFault outage;
  const VmSpec vm{kBursty, 4.0, 3.0};
  (void)ladder.admits(std::vector<VmSpec>(2, vm), vm, Resource{60.0},
                      rounded);
  EXPECT_EQ(ladder.last_level(), fault::ReserveLevel::kTable);
  EXPECT_EQ(ladder.degraded_decisions(), 0u);
}

TEST(ReservationLadder, PeakRungNeverAdmitsAnOverflow) {
  mapcal_table_cache_clear();
  fault::ReservationLadder ladder(16, 0.01, StationaryMethod::kGaussian);
  ScopedSolverFault outage;
  // Two rb = 12 VMs on a 20-capacity PM exceed capacity at every rung.
  const VmSpec vm{kBursty, 12.0, 6.0};
  EXPECT_FALSE(ladder.admits(std::vector<VmSpec>(1, vm), vm,
                             Resource{20.0}, kBursty));
}

// --- ClusterSimulator under churn -------------------------------------

SimConfig chaos_config(std::string_view plan_text, std::size_t slots) {
  SimConfig cfg;
  cfg.slots = slots;
  cfg.policy.rho = 0.05;
  cfg.policy.cost_slots = 4;  // long copies: crashes land mid-flight
  cfg.faults = fault::parse_fault_plan(std::string(plan_text));
  return cfg;
}

/// Overcommitted fleet (Rb-based packing) that migrates under load, so
/// crashes interleave with in-flight copies.
ProblemInstance busy_instance(Rng& rng, std::size_t n_vms,
                              std::size_t n_pms) {
  ProblemInstance inst;
  for (std::size_t i = 0; i < n_vms; ++i) {
    OnOffParams p{rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.3)};
    inst.vms.push_back(VmSpec{p, rng.uniform(4.0, 10.0),
                              rng.uniform(4.0, 12.0)});
  }
  inst.pms.assign(n_pms, PmSpec{40.0});
  return inst;
}

TEST(ClusterSimChaos, CrashStormConservesEveryVm) {
  Rng rng(2024);
  const ProblemInstance inst = busy_instance(rng, 30, 10);
  const auto placed = ffd_by_normal(inst);
  ASSERT_TRUE(placed.complete());

  // Crashes at 10 and 25 (the second while slot-10 evacuations and
  // scheduler moves are still in flight), aborts and stalls on top, and
  // staggered recoveries.
  SimConfig cfg = chaos_config(
      "crash@10:pm=0;mig-stall@12:slots=3;mig-abort@14;crash@25:pm=3;"
      "recover@40:pm=0;recover@55:pm=3",
      80);
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(77));
  const SimReport rep = sim.run();

  EXPECT_EQ(rep.faults.pm_crashes, 2u);
  EXPECT_EQ(rep.faults.pm_recoveries, 2u);
  EXPECT_EQ(rep.faults.lost_vms, 0u);
  EXPECT_EQ(sim.placement().vms_assigned() + rep.faults.queue_end,
            inst.n_vms());
  EXPECT_GT(rep.faults.evacuated + rep.faults.enqueued, 0u);
}

TEST(ClusterSimChaos, CrashOfMigrationTargetNeverLosesTheVm) {
  // A markov migration-abort stream plus a crash directly after the
  // scheduler's busiest phase: whatever PM a copy targets may die before
  // the copy lands.  The conservation and liveness invariants must hold
  // regardless of which interleaving the seed produces.
  Rng rng(5150);
  const ProblemInstance inst = busy_instance(rng, 24, 8);
  const auto placed = ffd_by_normal(inst);
  ASSERT_TRUE(placed.complete());

  SimConfig cfg = chaos_config(
      "crash@8:pm=1;crash@9:pm=2;recover@30:pm=1;recover@31:pm=2", 60);
  cfg.faults->markov.p_mig_fail = 0.3;
  cfg.faults->seed = 9;
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(31));
  const SimReport rep = sim.run();

  EXPECT_EQ(rep.faults.lost_vms, 0u);
  EXPECT_EQ(sim.placement().vms_assigned() + rep.faults.queue_end,
            inst.n_vms());
  for (std::size_t v = 0; v < inst.n_vms(); ++v) {
    if (sim.placement().assigned(VmId{v})) {
      EXPECT_LT(sim.placement().pm_of(VmId{v}).value, inst.n_pms());
    }
  }
}

TEST(ClusterSimChaos, ZeroFeasiblePmsQueuesThenDrainsAfterRecovery) {
  const ProblemInstance inst = tight_instance();
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());

  SimConfig cfg;
  cfg.slots = 60;
  cfg.policy.rho = 0.01;
  cfg.faults = fault::parse_fault_plan("crash@5:pm=1;recover@20:pm=1");
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(11));
  const SimReport rep = sim.run();

  EXPECT_EQ(rep.faults.enqueued, 1u);   // nothing fit while PM 1 was down
  EXPECT_GE(rep.faults.retries, 1u);    // backoff attempts were counted
  EXPECT_EQ(rep.faults.queue_end, 0u);  // drained once PM 1 came back
  EXPECT_EQ(rep.faults.lost_vms, 0u);
  EXPECT_EQ(sim.placement().vms_assigned(), inst.n_vms());
}

TEST(ClusterSimChaos, SolverOutageDegradesInsteadOfAborting) {
  Rng rng(404);
  const ProblemInstance inst = busy_instance(rng, 20, 8);
  const auto placed = ffd_by_peak(inst);  // builds no MapCal table
  ASSERT_TRUE(placed.complete());

  mapcal_table_cache_clear();  // evacuation must hit the outage cold
  SimConfig cfg;
  cfg.slots = 40;
  cfg.policy.rho = 0.05;
  cfg.faults =
      fault::parse_fault_plan("solver@2:slots=30;crash@5:pm=0;"
                              "recover@35:pm=0");
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(8));
  SimReport rep;
  ASSERT_NO_THROW(rep = sim.run());
  EXPECT_GT(rep.faults.solver_degraded, 0u);
  EXPECT_EQ(rep.faults.lost_vms, 0u);
}

TEST(ClusterSimChaos, SameSeedRunsAreBitIdentical) {
  Rng rng(1234);
  const ProblemInstance inst = busy_instance(rng, 25, 9);
  const auto placed = ffd_by_normal(inst);
  ASSERT_TRUE(placed.complete());

  const SimConfig cfg = chaos_config(
      "crash@6:pm=2;solver@10:slots=15;mig-abort@12;recover@30:pm=2", 70);
  const auto run = [&] {
    mapcal_table_cache_clear();  // cache warmth must not leak between runs
    ClusterSimulator sim(inst, placed.placement, cfg, Rng(55));
    const SimReport rep = sim.run();
    std::vector<std::size_t> fp;
    fp.push_back(rep.total_migrations);
    fp.push_back(rep.failed_migrations);
    fp.push_back(rep.faults.evacuated);
    fp.push_back(rep.faults.enqueued);
    fp.push_back(rep.faults.retries);
    fp.push_back(rep.faults.migration_aborts);
    fp.push_back(rep.faults.migration_stalls);
    fp.push_back(rep.faults.solver_degraded);
    for (std::size_t v = 0; v < inst.n_vms(); ++v)
      fp.push_back(sim.placement().assigned(VmId{v})
                       ? sim.placement().pm_of(VmId{v}).value
                       : static_cast<std::size_t>(-1));
    return fp;
  };
  EXPECT_EQ(run(), run());
}

// --- CloudController under churn --------------------------------------

TEST(ControllerChurn, CrashEvacuatesOrQueuesAndRecoveryDrains) {
  ControllerConfig cfg;
  CloudController cloud(std::vector<PmSpec>(6, PmSpec{60.0}), cfg,
                        Rng(99));

  Rng rng(3);
  std::vector<TenantId> ids;
  for (int i = 0; i < 30; ++i) {
    VmSpec v{OnOffParams{rng.uniform(0.01, 0.05), rng.uniform(0.05, 0.2)},
             rng.uniform(2.0, 8.0), rng.uniform(2.0, 8.0)};
    if (const auto id = cloud.admit(v)) ids.push_back(*id);
    cloud.tick();
  }
  ASSERT_FALSE(ids.empty());
  ASSERT_TRUE(cloud.reservation_invariant_holds());
  const std::size_t hosted_before = cloud.stats().vms_hosted;

  // Crash every PM but one: most tenants cannot fit and must queue.
  for (std::size_t j = 1; j < 6; ++j) cloud.inject_pm_crash(PmId{j});
  EXPECT_TRUE(cloud.reservation_invariant_holds());
  for (int t = 0; t < 5; ++t) cloud.tick();
  EXPECT_TRUE(cloud.reservation_invariant_holds());
  // No tenant is dropped: queued ones stay live (parked), so the live
  // count is conserved and the overflow shows up in the queue.
  EXPECT_EQ(cloud.stats().vms_hosted, hosted_before);
  EXPECT_GT(cloud.queued_tenants(), 0u);
  EXPECT_GT(cloud.stats().evac_queued, 0u);

  // Recovery: the queue must fully drain once capacity returns.
  for (std::size_t j = 1; j < 6; ++j) cloud.inject_pm_recover(PmId{j});
  for (int t = 0; t < 200 && cloud.queued_tenants() > 0; ++t) cloud.tick();
  EXPECT_EQ(cloud.queued_tenants(), 0u);
  EXPECT_EQ(cloud.stats().vms_hosted, hosted_before);
  EXPECT_GT(cloud.stats().retries, 0u);
  EXPECT_TRUE(cloud.reservation_invariant_holds());

  // Queued-then-drained tenants must be addressable again.
  for (TenantId id : ids) EXPECT_TRUE(cloud.pm_of(id).valid());
}

TEST(ControllerChurn, DepartWhileQueuedIsClean) {
  ControllerConfig cfg;
  CloudController cloud(std::vector<PmSpec>(2, PmSpec{20.0}), cfg, Rng(1));
  const VmSpec big{kBursty, 12.0, 6.0};
  const auto a = cloud.admit(big);
  const auto b = cloud.admit(big);
  ASSERT_TRUE(a && b);
  ASSERT_NE(cloud.pm_of(*a), cloud.pm_of(*b));

  cloud.inject_pm_crash(cloud.pm_of(*b));
  EXPECT_EQ(cloud.queued_tenants(), 1u);
  EXPECT_FALSE(cloud.pm_of(*b).valid());

  cloud.depart(*b);  // leaves the queue, not a dangling entry
  EXPECT_EQ(cloud.queued_tenants(), 0u);
  cloud.tick();
  EXPECT_TRUE(cloud.reservation_invariant_holds());
  EXPECT_THROW((void)cloud.pm_of(*b), InvalidArgument);
}

// --- target search against the per-candidate oracle --------------------

/// The crash-recovery first-fit as a per-candidate ladder scan: copy each
/// up PM's hosted specs and ask ReservationLadder::admits.  Same queue and
/// backoff discipline as RecoveryController; kept as the oracle for its
/// one-table-per-search target search.
class ReferenceRecovery {
 public:
  ReferenceRecovery(const ProblemInstance& inst, fault::RecoveryPolicy policy,
                    std::size_t d, double rho, StationaryMethod method)
      : inst_(&inst), policy_(policy), ladder_(d, rho, method) {}

  std::size_t evacuate(Placement& pl, PmId crashed,
                       std::span<const std::uint8_t> up,
                       const OnOffParams& rounded, std::size_t slot) {
    const std::vector<std::size_t> victims = pl.vms_on(crashed);
    std::size_t rehomed = 0;
    for (std::size_t vm : victims) {
      pl.unassign(VmId{vm});
      if (const auto to = target(pl, vm, up, rounded)) {
        pl.assign(VmId{vm}, *to);
        ++rehomed;
      } else {
        queue_.push_back(
            fault::QueuedVm{vm, fault::QueueReason::kNoFeasiblePm, 0,
                            slot + fault::backoff_delay(policy_, 0)});
      }
    }
    return rehomed;
  }

  std::size_t drain(Placement& pl, std::span<const std::uint8_t> up,
                    const OnOffParams& rounded, std::size_t slot) {
    constexpr std::size_t kDone = static_cast<std::size_t>(-1);
    std::size_t admitted = 0;
    for (auto& q : queue_) {
      if (q.next_attempt > slot) continue;
      ++q.retries;
      if (const auto to = target(pl, q.vm, up, rounded)) {
        pl.assign(VmId{q.vm}, *to);
        ++admitted;
        q.vm = kDone;
      } else {
        q.reason = fault::QueueReason::kRetryBackoff;
        q.next_attempt = slot + fault::backoff_delay(policy_, q.retries);
      }
    }
    std::erase_if(queue_,
                  [](const fault::QueuedVm& q) { return q.vm == kDone; });
    return admitted;
  }

  [[nodiscard]] const std::vector<fault::QueuedVm>& queue() const {
    return queue_;
  }
  [[nodiscard]] fault::ReservationLadder& ladder() { return ladder_; }

 private:
  std::optional<PmId> target(const Placement& pl, std::size_t vm,
                             std::span<const std::uint8_t> up,
                             const OnOffParams& rounded) {
    std::vector<VmSpec> hosted;
    for (std::size_t j = 0; j < pl.n_pms(); ++j) {
      if (!up[j]) continue;
      hosted.clear();
      for (std::size_t i : pl.vms_on(PmId{j})) hosted.push_back(inst_->vms[i]);
      if (ladder_.admits(hosted, inst_->vms[vm], inst_->pms[j].capacity,
                         rounded))
        return PmId{j};
    }
    return std::nullopt;
  }

  const ProblemInstance* inst_;
  fault::RecoveryPolicy policy_;
  fault::ReservationLadder ladder_;
  std::vector<fault::QueuedVm> queue_;
};

/// One line per observable after an operation: its result, the full
/// mapping in list order, the cached aggregates' bits, the queue and the
/// ladder counters.
template <typename Recovery>
std::string observe(std::size_t t, std::string_view op, std::size_t result,
                    const Placement& pl, Recovery& rc) {
  std::ostringstream o;
  o << 't' << t << ' ' << op << " -> " << result << " |";
  const PlacementState st = pl.export_state();
  for (const auto& list : st.vms_on) {
    o << " [";
    for (std::size_t vm : list) o << vm << ' ';
    o << ']';
  }
  for (std::size_t j = 0; j < st.rb_sum.size(); ++j)
    o << ' ' << std::bit_cast<std::uint64_t>(st.rb_sum[j]) << '/'
      << std::bit_cast<std::uint64_t>(st.re_max[j]);
  o << " | queue";
  for (const fault::QueuedVm& q : rc.queue())
    o << " (" << q.vm << ',' << static_cast<int>(q.reason) << ',' << q.retries
      << ',' << q.next_attempt << ')';
  o << " | level=" << fault::reserve_level_name(rc.ladder().last_level())
    << " degraded=" << rc.ladder().degraded_decisions();
  return o.str();
}

/// Per-PM cap of the churn scenarios.
constexpr std::size_t kChurnD = 6;

/// 60 VMs on 10 PMs of uneven capacity with d = kChurnD: the fleet is
/// about at the cap, so first-fit skips PMs at d, down PMs and PMs
/// without room, and crashes overflow into the queue.
ProblemInstance churn_instance(std::uint64_t seed) {
  Rng rng(seed);
  ProblemInstance inst;
  for (std::size_t i = 0; i < 60; ++i)
    inst.vms.push_back(
        VmSpec{OnOffParams{rng.uniform(0.01, 0.2), rng.uniform(0.05, 0.4)},
               rng.uniform(0.5, 6.0), rng.uniform(0.5, 8.0)});
  for (std::size_t j = 0; j < 10; ++j)
    inst.pms.push_back(PmSpec{rng.uniform(25.0, 45.0)});
  return inst;
}

/// Moves a random assigned VM to a random up PM below the cap (or back
/// where it was): unassign churn that reorders lists and leaves float-
/// association noise in a bound placement's cached rb_sum.
void churn_move(Placement& pl, std::span<const std::uint8_t> up,
                std::size_t d, Rng& rng) {
  const std::size_t vm = rng.next_below(pl.n_vms());
  const PmId from = pl.pm_of(VmId{vm});
  if (!from.valid()) return;
  const PmId to{rng.next_below(pl.n_pms())};
  pl.unassign(VmId{vm});
  if (up[to.value] && pl.count_on(to) < d)
    pl.assign(VmId{vm}, to);
  else
    pl.assign(VmId{vm}, from);
}

/// Drives `rc` through a seeded script of churn, crashes, recoveries and
/// drains; returns one observation per operation.
template <typename Recovery>
std::vector<std::string> drive(const ProblemInstance& inst, bool bound,
                               std::uint64_t seed, Recovery& rc,
                               std::size_t* noisy_pms = nullptr) {
  Placement pl = bound ? Placement(inst)
                       : Placement(inst.n_vms(), inst.n_pms());
  Rng rng(seed);
  for (std::size_t i = 0; i < inst.n_vms(); ++i) {
    const PmId pm{rng.next_below(inst.n_pms())};
    if (pl.count_on(pm) < kChurnD) pl.assign(VmId{i}, pm);
  }
  std::vector<std::uint8_t> up(inst.n_pms(), 1);
  for (int m = 0; m < 80; ++m) churn_move(pl, up, kChurnD, rng);
  const OnOffParams rounded = round_uniform_params(inst.vms);

  std::vector<std::string> obs;
  for (std::size_t t = 0; t < 40; ++t) {
    for (int m = 0; m < 3; ++m) churn_move(pl, up, kChurnD, rng);
    const double u = rng.next_double();
    const std::size_t j = rng.next_below(inst.n_pms());
    if (u < 0.35 && up[j] &&
        std::count(up.begin(), up.end(), std::uint8_t{1}) > 2) {
      up[j] = 0;
      const std::size_t r = rc.evacuate(pl, PmId{j}, up, rounded, t);
      obs.push_back(observe(t, "crash", r, pl, rc));
    } else if (u < 0.6 && !up[j]) {
      up[j] = 1;
    }
    const std::size_t r = rc.drain(pl, up, rounded, t);
    obs.push_back(observe(t, "drain", r, pl, rc));
    if (noisy_pms != nullptr && bound)
      for (std::size_t k = 0; k < inst.n_pms(); ++k)
        if (pl.rb_sum_on(PmId{k}) != total_rb_on_walk(inst, pl, PmId{k}))
          ++*noisy_pms;
  }
  return obs;
}

void expect_same_runs(const std::vector<std::string>& got,
                      const std::vector<std::string>& want,
                      std::string_view label, std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << label << " seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << label << " seed " << seed << " op " << i;
}

std::size_t total_queued(const std::vector<std::string>& obs) {
  std::size_t n = 0;
  for (const std::string& line : obs)
    if (line.find("| queue (") != std::string::npos) ++n;
  return n;
}

TEST(RecoveryTargetSearch, MatchesPerCandidateLadderScan) {
  constexpr double kRho = 0.02;
  std::size_t noisy = 0;
  std::size_t queued_ops = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ProblemInstance inst = churn_instance(seed);
    for (const bool bound : {true, false}) {
      for (const auto method :
           {StationaryMethod::kGaussian, StationaryMethod::kPower}) {
        fault::RecoveryController rc(inst, fault::RecoveryPolicy{}, kChurnD,
                                     kRho, method);
        ReferenceRecovery ref(inst, fault::RecoveryPolicy{}, kChurnD, kRho,
                              method);
        const auto got = drive(inst, bound, seed * 31, rc, &noisy);
        const auto want = drive(inst, bound, seed * 31, ref);
        expect_same_runs(got, want, bound ? "bound" : "unbound", seed);
        queued_ops += total_queued(got);
        EXPECT_EQ(rc.ladder().last_level(), fault::ReserveLevel::kTable);
        EXPECT_EQ(rc.ladder().degraded_decisions(), 0u);
      }
    }
  }
  // The script must reach the cases it exists for.
  EXPECT_GT(noisy, 0u) << "no cached rb_sum ever differed from the walk";
  EXPECT_GT(queued_ops, 0u) << "no crash ever overflowed into the queue";
}

/// Decision events of the degraded ladder in an event log.
std::string degrade_events(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::string out;
  while (std::getline(in, line))
    if (line.find("fault.solver.degrade") != std::string::npos)
      out += line + '\n';
  std::remove(path.c_str());
  return out;
}

template <typename Recovery>
std::vector<std::string> drive_in_outage(const ProblemInstance& inst,
                                         std::uint64_t seed,
                                         StationaryMethod method, double rho,
                                         Recovery& rc, std::string& events) {
  mapcal_table_cache_clear();
  if (method != StationaryMethod::kGaussian) {
    // Rung 2 has a memoized Gaussian table to serve; rung 1 stays cold.
    const MapCalTable warm(kChurnD, round_uniform_params(inst.vms), rho,
                           StationaryMethod::kGaussian);
    (void)warm;
  }
  const std::string path = ::testing::TempDir() + "/recovery_outage_" +
                           std::to_string(seed) + ".jsonl";
  obs::events().open(path, obs::EventFormat::kJsonl,
                     obs::EventLevel::kDecisions);
  obs::Counter& faults = obs::metrics().counter("fault.solver.faults");
  const std::uint64_t faults_before = faults.value();
  std::vector<std::string> obs;
  {
    ScopedSolverFault outage;
    obs = drive(inst, /*bound=*/seed % 2 == 0, seed * 17, rc);
  }
  obs::events().close();
  events = degrade_events(path);
  // Each decision retries the cold rung-1 build exactly once.
  obs.push_back("fault.solver.faults +" +
                std::to_string(faults.value() - faults_before));
  return obs;
}

TEST(RecoveryTargetSearch, MatchesPerCandidateLadderScanDuringOutage) {
  constexpr double kRho = 0.02;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ProblemInstance inst = churn_instance(seed + 100);
    for (const auto method :
         {StationaryMethod::kGaussian, StationaryMethod::kPower}) {
      fault::RecoveryController rc(inst, fault::RecoveryPolicy{}, kChurnD,
                                   kRho, method);
      ReferenceRecovery ref(inst, fault::RecoveryPolicy{}, kChurnD, kRho,
                            method);
      std::string got_events;
      std::string want_events;
      const auto got =
          drive_in_outage(inst, seed, method, kRho, rc, got_events);
      const auto want =
          drive_in_outage(inst, seed, method, kRho, ref, want_events);
      expect_same_runs(got, want, "outage", seed);
      EXPECT_EQ(got_events, want_events);
      EXPECT_GT(rc.ladder().degraded_decisions(), 0u);
      EXPECT_EQ(rc.ladder().last_level(),
                method == StationaryMethod::kGaussian
                    ? fault::ReserveLevel::kQuantile
                    : fault::ReserveLevel::kGaussianTable);
      if (obs::kEnabled) {
        EXPECT_FALSE(got_events.empty());
      }
    }
  }
  mapcal_table_cache_clear();
}

TEST(RecoveryTargetSearch, LastLevelMovesOnlyWhenAPmIsUnderTheCap) {
  // Both up PMs are at d = 1: no decision is made, so the ladder keeps the
  // level of the last decision it did make (a degraded one here).
  ProblemInstance inst;
  inst.vms.assign(3, VmSpec{kBursty, 4.0, 3.0});
  inst.pms.assign(3, PmSpec{60.0});
  const OnOffParams rounded = round_uniform_params(inst.vms);
  for (const bool bound : {true, false}) {
    mapcal_table_cache_clear();
    Placement pl = bound ? Placement(inst)
                         : Placement(inst.n_vms(), inst.n_pms());
    pl.assign(VmId{0}, PmId{0});
    pl.assign(VmId{1}, PmId{1});
    pl.assign(VmId{2}, PmId{2});
    fault::RecoveryController rc(inst, fault::RecoveryPolicy{}, 1, 0.01,
                                 StationaryMethod::kGaussian);
    rc.ladder().restore_counters(fault::ReserveLevel::kPeak, 5);
    auto up = all_up(3);
    up[2] = 0;
    EXPECT_EQ(rc.evacuate(pl, PmId{2}, up, rounded, 0), 0u);
    EXPECT_EQ(rc.queue().size(), 1u);
    EXPECT_EQ(rc.ladder().last_level(), fault::ReserveLevel::kPeak);
    EXPECT_EQ(rc.ladder().degraded_decisions(), 5u);
    // A PM under the cap comes back: rung 1 decides, and says so.
    pl.unassign(VmId{1});
    EXPECT_EQ(rc.drain(pl, up, rounded, 5), 1u);
    EXPECT_EQ(rc.ladder().last_level(), fault::ReserveLevel::kTable);
    EXPECT_EQ(rc.ladder().degraded_decisions(), 5u);
  }
}

/// Capacity c with c * (1 + kCapacityEpsilon) == footprint in doubles.
std::optional<Resource> capacity_filled_exactly_by(Resource footprint) {
  const Resource guess = footprint / (1.0 + kCapacityEpsilon);
  Resource below = guess;
  Resource above = guess;
  for (int ulps = 0; ulps < 8; ++ulps) {
    if (below * (1.0 + kCapacityEpsilon) == footprint) return below;
    if (above * (1.0 + kCapacityEpsilon) == footprint) return above;
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, 2.0 * guess);
  }
  return std::nullopt;
}

/// PM 1 hosts VMs 1..3 after VM 4 passed through it (swap-removed), VM 0
/// sits on PM 0 and VM 4 ends on PM 2.
Placement boundary_placement(const ProblemInstance& inst, bool bound) {
  Placement pl = bound ? Placement(inst)
                       : Placement(inst.n_vms(), inst.n_pms());
  pl.assign(VmId{0}, PmId{0});
  pl.assign(VmId{1}, PmId{1});
  pl.assign(VmId{4}, PmId{1});
  pl.assign(VmId{2}, PmId{1});
  pl.assign(VmId{3}, PmId{1});
  pl.unassign(VmId{4});
  pl.assign(VmId{4}, PmId{2});
  return pl;
}

/// Eq. (17) footprint of VM 0 joining PM 1: exactly (`walked`, the walk's
/// association order) and from the cached aggregates (the O(1) reject's).
struct BoundaryFootprint {
  Resource walked;
  Resource cached;
};

BoundaryFootprint boundary_footprint(const ProblemInstance& inst,
                                     const Placement& pl,
                                     const MapCalTable& table) {
  const VmSpec& v = inst.vms[0];
  const PmId pm{1};
  Resource block = v.re;
  Resource rb = v.rb;
  for (std::size_t i : pl.vms_on(pm)) {
    block = std::max(block, inst.vms[i].re);
    rb += inst.vms[i].rb;
  }
  const double b = static_cast<double>(table.blocks(pl.count_on(pm) + 1));
  return {block * b + rb, block * b + v.rb + pl.rb_sum_on(pm)};
}

TEST(RecoveryTargetSearch, AdmitsAPmFilledExactlyToTheEpsilonCap) {
  constexpr std::size_t kD = 6;
  constexpr double kRho = 0.01;
  ProblemInstance inst;
  // Small Re keeps the reserved blocks from absorbing the Rb sum's last
  // bits, so the association noise reaches the footprint.
  inst.vms = {VmSpec{kBursty, 0.9, 0.05},   // victim, on PM 0
              VmSpec{kBursty, 0.1, 0.02},   // PM 1 hosts 1..3
              VmSpec{kBursty, 0.7, 0.03},
              VmSpec{kBursty, 1.3, 0.04},
              VmSpec{kBursty, 0.3, 0.01}};  // churned through PM 1
  inst.pms = {PmSpec{100.0}, PmSpec{100.0}, PmSpec{100.0}};
  const OnOffParams rounded = round_uniform_params(inst.vms);
  const MapCalTable table(kD, rounded, kRho, StationaryMethod::kGaussian);

  // Pick the churned VM's Rb so that association noise makes the cached
  // estimate overshoot the exact footprint: a reject without its margin
  // would then turn away the exactly-full PM.
  bool overshoots = false;
  for (int step = 1; step < 200 && !overshoots; ++step) {
    inst.vms[4].rb = 0.01 * step;
    const Placement pl = boundary_placement(inst, true);
    const BoundaryFootprint f = boundary_footprint(inst, pl, table);
    overshoots = f.cached > f.walked;
  }
  ASSERT_TRUE(overshoots);

  for (const bool bound : {true, false}) {
    for (const bool one_ulp_short : {false, true}) {
      const Placement bound_pl = boundary_placement(inst, true);
      const Resource footprint =
          boundary_footprint(inst, bound_pl, table).walked;
      const auto exact = capacity_filled_exactly_by(footprint);
      ASSERT_TRUE(exact.has_value());
      inst.pms[1].capacity =
          one_ulp_short ? std::nextafter(*exact, 0.0) : *exact;
      if (one_ulp_short) {
        ASSERT_LT(inst.pms[1].capacity * (1.0 + kCapacityEpsilon), footprint);
      }

      Placement pl = boundary_placement(inst, bound);
      Placement ref_pl = pl;
      auto up = all_up(3);
      up[0] = 0;
      fault::RecoveryController rc(inst, fault::RecoveryPolicy{}, kD, kRho,
                                   StationaryMethod::kGaussian);
      ReferenceRecovery ref(inst, fault::RecoveryPolicy{}, kD, kRho,
                            StationaryMethod::kGaussian);
      EXPECT_EQ(rc.evacuate(pl, PmId{0}, up, rounded, 0), 1u);
      EXPECT_EQ(ref.evacuate(ref_pl, PmId{0}, up, rounded, 0), 1u);
      const PmId want = one_ulp_short ? PmId{2} : PmId{1};
      EXPECT_EQ(ref_pl.pm_of(VmId{0}), want);
      EXPECT_EQ(pl.pm_of(VmId{0}), want)
          << (bound ? "bound" : "unbound")
          << (one_ulp_short ? " one ulp short" : " exactly full");
      inst.pms[1].capacity = 100.0;
    }
  }
}

// --- crash path pin ------------------------------------------------------

/// CRC-32 of a seeded crash-heavy ClusterSimulator run: Markov crashes
/// and recoveries on a bound placement, a solver outage over the first 40
/// slots with a cold MapCal cache, then the migration log, the final
/// placement state and the recovery controller state, in that order.
std::uint32_t crash_heavy_crc(SimReport& rep) {
  Rng rng(8128);
  const ProblemInstance inst = busy_instance(rng, 120, 56);
  // Rb-based packing overcommits, so the scheduler migrates too; it
  // builds no MapCal table.
  const auto placed = ffd_by_normal(inst);
  EXPECT_TRUE(placed.complete());
  EXPECT_TRUE(placed.placement.tracks_aggregates(inst));

  mapcal_table_cache_clear();
  SimConfig cfg = chaos_config("solver@0:slots=40", 160);
  cfg.faults->markov.p_crash = 0.01;
  cfg.faults->markov.p_recover = 0.08;
  cfg.faults->markov.p_mig_fail = 0.05;
  cfg.faults->seed = 4242;
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(606));
  rep = sim.run();

  durable::StateWriter w;
  w.varint(rep.events.size());
  for (const MigrationEvent& e : rep.events) {
    w.varint(static_cast<std::uint64_t>(e.slot));
    w.varint(e.vm.value);
    w.varint(e.from.value);
    w.varint(e.to.valid() ? e.to.value + 1 : 0);
  }
  const PlacementState ps = sim.placement().export_state();
  for (const PmId pm : ps.pm_of) w.varint(pm.valid() ? pm.value + 1 : 0);
  for (const auto& list : ps.vms_on) w.size_vec(list);
  w.boolean(ps.bound);
  w.f64_vec(ps.rb_sum);
  w.f64_vec(ps.re_max);
  const auto rs = sim.recovery_state();
  EXPECT_TRUE(rs.has_value());
  if (rs) {
    w.varint(rs->queue.size());
    for (const fault::QueuedVm& q : rs->queue) {
      w.varint(q.vm);
      w.u8(static_cast<std::uint8_t>(q.reason));
      w.varint(q.retries);
      w.varint(q.next_attempt);
    }
    w.varint(rs->retries_total);
    w.varint(rs->enqueued_total);
    w.u8(static_cast<std::uint8_t>(rs->ladder_last_level));
    w.varint(rs->ladder_degraded_decisions);
  }
  mapcal_table_cache_clear();
  return obs::trace_detail::crc32(w.data());
}

// The constant was recorded with the per-candidate ladder scan (spec
// copies and a MapCal table lookup per candidate PM); any change to which
// PM an evacuation or a queue drain picks, the queue discipline, or the
// ladder's counters moves it.
TEST(ClusterSimChaos, CrashHeavyRunStateIsPinned) {
  SimReport rep;
  EXPECT_EQ(crash_heavy_crc(rep), 0xa797323fu);
  EXPECT_GT(rep.faults.pm_crashes, 0u);
  EXPECT_GT(rep.faults.evacuated, 0u);
  EXPECT_GT(rep.faults.enqueued, 0u);
  EXPECT_GT(rep.faults.retries, 0u);
  EXPECT_GT(rep.faults.solver_degraded, 0u);
  EXPECT_GT(rep.total_migrations, 0u);
  EXPECT_EQ(rep.faults.lost_vms, 0u);
}

}  // namespace
}  // namespace burstq

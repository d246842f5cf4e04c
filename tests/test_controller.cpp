// Tests for the closed-loop CloudController.

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/controller.h"
#include "obs/slo.h"
#include "obs/trace_codec.h"

namespace burstq {
namespace {

const OnOffParams kP{0.01, 0.09};

std::vector<PmSpec> pms(std::size_t m, double cap = 90.0) {
  return std::vector<PmSpec>(m, PmSpec{cap});
}

VmSpec vm(double rb, double re, OnOffParams p = kP) {
  return VmSpec{p, rb, re};
}

TEST(ControllerConfig, Validation) {
  ControllerConfig ok;
  EXPECT_NO_THROW(ok.validate());
  ControllerConfig bad = ok;
  bad.sigma_seconds = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ok;
  bad.ffd.rho = 1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(Controller, AdmissionRespectsReservation) {
  CloudController c(pms(2, 30.0), ControllerConfig{}, Rng(1));
  std::size_t admitted = 0;
  for (int i = 0; i < 10; ++i)
    if (c.admit(vm(10, 5))) ++admitted;
  EXPECT_LT(admitted, 10u);  // capacity 60 total cannot host all
  EXPECT_GT(admitted, 0u);
  EXPECT_TRUE(c.reservation_invariant_holds());
  EXPECT_EQ(c.stats().admissions, admitted);
  EXPECT_EQ(c.stats().rejections, 10u - admitted);
}

TEST(Controller, DepartureFreesRoom) {
  CloudController c(pms(1, 30.0), ControllerConfig{}, Rng(2));
  const auto a = c.admit(vm(12, 6));
  const auto b = c.admit(vm(12, 6));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(c.admit(vm(12, 6)).has_value());
  c.depart(*a);
  EXPECT_TRUE(c.admit(vm(12, 6)).has_value());
  EXPECT_TRUE(c.reservation_invariant_holds());
}

TEST(Controller, DepartTwiceThrows) {
  CloudController c(pms(2), ControllerConfig{}, Rng(3));
  const auto a = c.admit(vm(5, 5));
  ASSERT_TRUE(a.has_value());
  c.depart(*a);
  EXPECT_THROW(c.depart(*a), InvalidArgument);
  EXPECT_THROW((void)c.pm_of(*a), InvalidArgument);
}

TEST(Controller, TicksAccumulateStats) {
  CloudController c(pms(10), ControllerConfig{}, Rng(4));
  for (int i = 0; i < 20; ++i) c.admit(vm(8, 6));
  for (int t = 0; t < 50; ++t) c.tick();
  const auto& s = c.stats();
  EXPECT_EQ(s.slots, 50u);
  EXPECT_GT(s.energy_wh, 0.0);
  EXPECT_EQ(s.vms_hosted, 20u);
  EXPECT_GT(s.pms_used, 0u);
  EXPECT_LE(s.mean_cvr, 1.0);
}

TEST(Controller, QueueAdmissionKeepsCvrNearBudget) {
  CloudController c(pms(30), ControllerConfig{}, Rng(5));
  Rng vm_rng(6);
  for (int i = 0; i < 100; ++i)
    c.admit(vm(vm_rng.uniform(2, 20), vm_rng.uniform(2, 20)));
  for (int t = 0; t < 2000; ++t) c.tick();
  // Eq. 17-gated admission keeps the running mean CVR near rho = 0.01.
  EXPECT_LE(c.stats().mean_cvr, 0.02);
  EXPECT_LT(c.stats().runtime_migrations, 40u);
}

TEST(Controller, MaintenanceConsolidatesAfterChurn) {
  ControllerConfig cfg;
  cfg.maintenance_every = 100;
  cfg.maintenance_budget = 50;
  CloudController c(pms(60), cfg, Rng(7));
  Rng vm_rng(8);

  // Admit a big wave, then let half depart: fragmentation.
  std::vector<TenantId> ids;
  for (int i = 0; i < 120; ++i) {
    const auto id = c.admit(vm(vm_rng.uniform(2, 14), vm_rng.uniform(2, 14)));
    if (id) ids.push_back(*id);
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) c.depart(ids[i]);
  const std::size_t fragmented = c.pms_used();

  for (int t = 0; t < 100; ++t) c.tick();  // includes one maintenance run
  EXPECT_EQ(c.stats().maintenance_windows, 1u);
  EXPECT_LE(c.pms_used(), fragmented);
  EXPECT_GT(c.stats().maintenance_migrations, 0u);
  EXPECT_TRUE(c.reservation_invariant_holds());
}

TEST(Controller, MaintenanceRespectsBudget) {
  ControllerConfig cfg;
  cfg.maintenance_every = 10;
  cfg.maintenance_budget = 3;
  CloudController c(pms(40), cfg, Rng(9));
  Rng vm_rng(10);
  std::vector<TenantId> ids;
  for (int i = 0; i < 80; ++i) {
    const auto id = c.admit(vm(vm_rng.uniform(2, 10), vm_rng.uniform(2, 10)));
    if (id) ids.push_back(*id);
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) c.depart(ids[i]);
  for (int t = 0; t < 10; ++t) c.tick();
  EXPECT_LE(c.stats().maintenance_migrations, 3u);
}

TEST(Controller, DeterministicPerSeed) {
  auto run = [] {
    CloudController c(pms(20), ControllerConfig{}, Rng(42));
    Rng vm_rng(43);
    for (int i = 0; i < 50; ++i)
      c.admit(vm(vm_rng.uniform(2, 18), vm_rng.uniform(2, 18)));
    for (int t = 0; t < 100; ++t) c.tick();
    return c.stats();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.runtime_migrations, b.runtime_migrations);
  EXPECT_DOUBLE_EQ(a.energy_wh, b.energy_wh);
  EXPECT_EQ(a.pms_used, b.pms_used);
}

TEST(Controller, ChurnStressKeepsInvariant) {
  ControllerConfig cfg;
  cfg.maintenance_every = 50;
  CloudController c(pms(40), cfg, Rng(11));
  Rng op_rng(12);
  std::vector<TenantId> live;
  for (int t = 0; t < 300; ++t) {
    if (op_rng.next_double() < 0.3) {
      const auto id =
          c.admit(vm(op_rng.uniform(2, 16), op_rng.uniform(2, 16),
                     OnOffParams{op_rng.uniform(0.005, 0.05),
                                 op_rng.uniform(0.05, 0.3)}));
      if (id) live.push_back(*id);
    }
    if (op_rng.next_double() < 0.15 && !live.empty()) {
      const std::size_t pick = op_rng.next_below(live.size());
      c.depart(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    c.tick();
    ASSERT_EQ(c.stats().vms_hosted, live.size()) << "t=" << t;
  }
  // The invariant is checked against the *current* table, which
  // maintenance recalibrates; after a maintenance pass it must hold.
  EXPECT_GT(c.stats().maintenance_windows, 0u);
}

TEST(Controller, EmptyFleetTicksSafely) {
  CloudController c(pms(3), ControllerConfig{}, Rng(13));
  for (int t = 0; t < 10; ++t) c.tick();
  EXPECT_EQ(c.stats().pms_used, 0u);
  EXPECT_DOUBLE_EQ(c.stats().energy_wh, 0.0);
}

// --- Cross-commit identity pin -----------------------------------------

/// Runs a fixed op script on a 4-shard controller: admits, departs,
/// resizes (some larger than any host), ticks with maintenance every 7
/// slots, PM crashes and recoveries.  Returns the CRC-32 of the final
/// export_state() blob and leaves the final stats in `stats`.
std::uint32_t scripted_state_crc(std::size_t decision_budget,
                                 ControllerStats& stats) {
  constexpr std::size_t kPms = 24;
  obs::SloOptions so;
  so.rho = 0.05;
  obs::SloTracker slo(kPms, so);
  ControllerConfig cfg;
  cfg.ffd.sharded.shards = 4;
  cfg.ffd.sharded.decision_budget = decision_budget;
  cfg.maintenance_every = 7;
  cfg.slo = &slo;
  CloudController c(pms(kPms, 60.0), cfg, Rng(2026));

  Rng op(77);
  std::vector<TenantId> live;
  std::optional<PmId> down;
  const auto random_vm = [&] {
    const double rb = op.uniform(2.0, 14.0);
    const double re = op.uniform(1.0, 12.0);
    const OnOffParams p{op.uniform(0.005, 0.08), op.uniform(0.05, 0.4)};
    return vm(rb, re, p);
  };
  for (std::size_t i = 0; i < 1500; ++i) {
    const double u = op.next_double();
    if (u < 0.35) {
      if (const auto id = c.admit(random_vm())) live.push_back(*id);
    } else if (u < 0.50 && !live.empty()) {
      const std::size_t pick = op.next_below(live.size());
      c.depart(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (u < 0.62 && !live.empty()) {
      const TenantId t = live[op.next_below(live.size())];
      // One resize in six asks for more than any host has.
      const VmSpec spec = op.next_below(6) == 0 ? vm(70.0, 5.0) : random_vm();
      (void)c.resize(t, spec);
    } else if (u < 0.64 && !down) {
      down = PmId{op.next_below(kPms)};
      c.inject_pm_crash(*down);
    } else if (u < 0.66 && down) {
      c.inject_pm_recover(*down);
      down.reset();
    } else {
      c.tick();
    }
  }
  EXPECT_TRUE(c.reservation_invariant_holds());
  stats = c.stats();
  return obs::trace_detail::crc32(c.export_state());
}

// The constants were recorded before the live-fleet state was shared
// between the online consolidator and the controller; any change to
// routing order, hosted-list order, key arithmetic or the state codec
// moves them.
TEST(Controller, ScriptedOpMixStateIsPinned) {
  ControllerStats s;
  EXPECT_EQ(scripted_state_crc(0, s), 0xf6f05acau);
  EXPECT_GT(s.resize_migrations, 0u);
  EXPECT_GT(s.resize_rejections, 0u);
  EXPECT_GT(s.pm_crashes, 0u);
  EXPECT_GT(s.evac_queued, 0u);
  EXPECT_GT(s.maintenance_migrations, 0u);
  EXPECT_GT(s.runtime_migrations, 0u);
}

TEST(Controller, ScriptedOpMixStateIsPinnedUnderDecisionBudget) {
  ControllerStats s;
  EXPECT_EQ(scripted_state_crc(1, s), 0xbfbc3d17u);
  EXPECT_GT(s.rejections, 0u);
  EXPECT_GT(s.resize_rejections, 0u);
}

}  // namespace
}  // namespace burstq

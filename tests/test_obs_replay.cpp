// Flight-recorder replay tests: a recorded cluster_sim run, re-driven
// through sim/flight.h, must reproduce the live CvrTracker bookkeeping
// bit-for-bit — cumulative CVR, windowed CVR (including the reset_window
// cooldown path after migrations), and the migration counts.

#include <gtest/gtest.h>

#include "common/error.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "placement/baselines.h"
#include "placement/queuing_ffd.h"
#include "sim/cluster_sim.h"
#include "sim/flight.h"

namespace burstq {
namespace {

[[maybe_unused]] const OnOffParams kP{0.01, 0.09};

// Only the instrumented-build tests simulate; silence the kill-switch
// configuration's unused warning.
[[maybe_unused]] ProblemInstance typical_instance(std::size_t n_vms,
                                                  std::size_t n_pms,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  return random_instance(n_vms, n_pms, kP, InstanceRanges{}, rng);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(ParseIdList, SpaceSeparated) {
  EXPECT_TRUE(parse_id_list("").empty());
  EXPECT_EQ(parse_id_list("7"), (std::vector<std::size_t>{7}));
  EXPECT_EQ(parse_id_list("0 3 12"), (std::vector<std::size_t>{0, 3, 12}));
}

TEST(ReplayFlightLog, RejectsSlotBeforeConfig) {
  obs::EventValue t;
  t.tag = obs::EventValue::Tag::kNumber;
  obs::EventValue active;
  active.tag = obs::EventValue::Tag::kString;
  active.str = "0";
  std::vector<obs::RecordedEvent> events(1);
  events[0].kind = "slot.obs";
  events[0].fields.emplace_back("t", t);
  events[0].fields.emplace_back("active", active);
  EXPECT_THROW(replay_flight_log(events), InvalidArgument);
}

TEST(ReplayFlightLog, EmptyStreamYieldsNoSegments) {
  EXPECT_TRUE(replay_flight_log(std::vector<obs::RecordedEvent>{}).empty());
}

#ifndef BURSTQ_NO_OBS

/// Records a simulator run into `path` at detail level and returns the
/// live report.  The global event log is closed before returning.
SimReport record_run(const std::string& path, const ProblemInstance& inst,
                     const Placement& placement, const SimConfig& cfg,
                     std::uint64_t seed, const std::string& label) {
  obs::events().open(path, obs::EventFormat::kBinary,
                     obs::EventLevel::kDetail);
  obs::events().set_run_label(label);
  ClusterSimulator sim(inst, placement, cfg, Rng(seed));
  SimReport report = sim.run();
  obs::events().close();
  obs::events().set_run_label("");
  return report;
}

void expect_replay_matches(const FlightReplaySegment& seg,
                           const SimReport& live, std::size_t n_pms) {
  ASSERT_EQ(seg.n_pms, n_pms);
  for (std::size_t j = 0; j < n_pms; ++j) {
    const PmId pm{j};
    // Bit-for-bit: the replayed tracker saw the identical record/reset
    // sequence, so even the double divisions agree exactly.
    EXPECT_EQ(seg.tracker.cvr(pm), live.pm_cvr[j]) << "pm " << j;
    EXPECT_EQ(seg.tracker.windowed_cvr(pm), live.pm_windowed_cvr_end[j])
        << "pm " << j;
  }
  EXPECT_EQ(seg.tracker.mean_cvr(), live.mean_cvr);
  EXPECT_EQ(seg.tracker.max_cvr(), live.max_cvr);
  EXPECT_EQ(seg.migrations, live.total_migrations);
  EXPECT_EQ(seg.failed_migrations, live.failed_migrations);
}

TEST(ReplayFlightLog, StaticRunReproducesCvrExactly) {
  const auto inst = typical_instance(40, 40, 31);
  const auto placed = ffd_by_normal(inst);
  ASSERT_TRUE(placed.complete());
  SimConfig cfg;
  cfg.slots = 120;
  cfg.enable_migration = false;

  const std::string path = temp_path("replay_static.btrc");
  const SimReport live =
      record_run(path, inst, placed.placement, cfg, 31, "static");

  const auto segments = replay_flight_log(path);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].label, "static");
  EXPECT_EQ(segments[0].slots_seen, cfg.slots);
  EXPECT_EQ(segments[0].window_resets, 0u);
  expect_replay_matches(segments[0], live, inst.n_pms());
}

TEST(ReplayFlightLog, MigrationRunReproducesWindowedCvr) {
  // RB packing under-reserves, so the CVR trigger fires and the recorded
  // stream must carry migration + window.reset events whose replay keeps
  // the windowed tracker in lockstep.
  const auto inst = typical_instance(60, 60, 32);
  const auto placed = ffd_by_normal(inst);
  ASSERT_TRUE(placed.complete());
  SimConfig cfg;
  cfg.slots = 150;

  const std::string path = temp_path("replay_migration.btrc");
  const SimReport live =
      record_run(path, inst, placed.placement, cfg, 32, "rb-dynamic");

  const auto segments = replay_flight_log(path);
  ASSERT_EQ(segments.size(), 1u);
  const FlightReplaySegment& seg = segments[0];
  ASSERT_GT(live.total_migrations, 0u) << "seed no longer triggers "
                                          "migrations; pick another";
  // Every successful migration resets two windows, every failed one one.
  EXPECT_EQ(seg.window_resets,
            2 * live.total_migrations + live.failed_migrations);
  expect_replay_matches(seg, live, inst.n_pms());
}

TEST(ReplayFlightLog, MultiRunLogSegmentsByLabel) {
  const auto inst = typical_instance(25, 25, 33);
  const auto rb = ffd_by_normal(inst);
  const auto rp = ffd_by_peak(inst);
  ASSERT_TRUE(rb.complete());
  ASSERT_TRUE(rp.complete());
  SimConfig cfg;
  cfg.slots = 50;
  cfg.enable_migration = false;

  const std::string path = temp_path("replay_multi.btrc");
  obs::events().open(path, obs::EventFormat::kBinary,
                     obs::EventLevel::kDetail);
  obs::events().set_run_label("run/rb");
  ClusterSimulator sim_rb(inst, rb.placement, cfg, Rng(33));
  const SimReport live_rb = sim_rb.run();
  obs::events().set_run_label("run/rp");
  ClusterSimulator sim_rp(inst, rp.placement, cfg, Rng(33));
  const SimReport live_rp = sim_rp.run();
  obs::events().close();
  obs::events().set_run_label("");

  const auto segments = replay_flight_log(path);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].label, "run/rb");
  EXPECT_EQ(segments[1].label, "run/rp");
  expect_replay_matches(segments[0], live_rb, inst.n_pms());
  expect_replay_matches(segments[1], live_rp, inst.n_pms());
  // RP never violates with rectangular demand; RB must have.
  EXPECT_EQ(segments[1].tracker.max_cvr(), 0.0);
  EXPECT_GT(segments[0].tracker.max_cvr(), 0.0);
}

TEST(FlightSlotRecorder, SilentWhenLogClosed) {
  // No sink open: the recorder must stay disabled and write nothing.
  const std::uint64_t before = obs::events().events_written();
  FlightSlotRecorder recorder("idle", 4, 10, 5, 0.01);
  EXPECT_FALSE(recorder.enabled());
  recorder.slot(0, {0, 1}, {});
  EXPECT_EQ(obs::events().events_written(), before);
}

#else  // BURSTQ_NO_OBS

TEST(FlightSlotRecorder, NoOpUnderKillSwitch) {
  // The stub must exist with the same shape and record nothing even with
  // a sink open.
  const std::string path = temp_path("noop.btrc");
  obs::events().open(path, obs::EventFormat::kBinary,
                     obs::EventLevel::kDetail);
  FlightSlotRecorder recorder("noop", 4, 10, 5, 0.01);
  EXPECT_FALSE(recorder.enabled());
  recorder.slot(0, {0, 1}, {1});
  obs::events().close();
  EXPECT_TRUE(replay_flight_log(path).empty());
}

#endif  // BURSTQ_NO_OBS

}  // namespace
}  // namespace burstq

// Kill-restart determinism of the durable ClusterSimulator: a run killed
// at any point and restored from snapshot + WAL must produce the
// byte-identical final report and trace of the uninterrupted run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "durable/durable.h"
#include "durable/snapshot.h"
#include "durable/state_codec.h"
#include "durable/wal.h"
#include "obs/event_log.h"
#include "placement/baselines.h"
#include "placement/spec.h"
#include "sim/cluster_sim.h"

namespace burstq {
namespace {

namespace fs = std::filesystem;

const OnOffParams kP{0.05, 0.2};

ProblemInstance small_instance(std::uint64_t seed) {
  Rng rng(seed);
  return random_instance(24, 12, kP, InstanceRanges{}, rng);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Deterministic textual digest of everything a SimReport carries.
std::string digest(const SimReport& r) {
  std::ostringstream ss;
  ss.precision(17);
  ss << r.total_migrations << ' ' << r.failed_migrations << ' '
     << r.pms_used_end << ' ' << r.pms_used_max << '\n';
  for (const std::size_t u : r.pms_used_timeline) ss << u << ',';
  ss << '\n';
  for (const std::size_t u : r.migrations_per_slot) ss << u << ',';
  ss << '\n';
  for (const auto& e : r.events)
    ss << e.slot << ':' << e.vm.value << ':' << e.from.value << ':'
       << (e.to.valid() ? static_cast<long long>(e.to.value) : -1) << ';';
  ss << '\n';
  for (const double c : r.pm_cvr) ss << c << ',';
  ss << '\n';
  for (const double c : r.pm_windowed_cvr_end) ss << c << ',';
  ss << '\n'
     << r.mean_cvr << ' ' << r.max_cvr << ' ' << r.energy_wh << '\n'
     << r.faults.pm_crashes << ' ' << r.faults.pm_recoveries << ' '
     << r.faults.evacuated << ' ' << r.faults.enqueued << ' '
     << r.faults.queue_end << ' ' << r.faults.retries << ' '
     << r.faults.migration_aborts << ' ' << r.faults.migration_stalls << ' '
     << r.faults.solver_degraded << ' ' << r.faults.lost_vms << '\n';
  return ss.str();
}

class DurableSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("burstq_dsim_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    obs::events().close();
    fs::remove_all(dir_);
  }

  [[nodiscard]] SimConfig base_config(const std::string& fault_spec,
                                      const std::string& state_dir) const {
    SimConfig cfg;
    cfg.slots = 60;
    cfg.policy.rho = 0.05;
    if (!fault_spec.empty()) {
      cfg.faults = fault::parse_fault_plan(fault_spec);
      cfg.recovery = fault::RecoveryPolicy{};
    }
    durable::DurabilityConfig d;
    d.dir = state_dir;
    d.snapshot_every = 20;
    cfg.durability = d;
    return cfg;
  }

  /// Runs to completion, restoring after every kill.  Returns the final
  /// report and counts restores/replayed slots.
  SimReport run_with_restores(const ProblemInstance& inst,
                              const Placement& placed, const SimConfig& cfg,
                              std::uint64_t seed, std::size_t* restores,
                              std::size_t* replayed) {
    for (;;) {
      ClusterSimulator sim(inst, placed, cfg, Rng(seed));
      if (restores != nullptr && *restores > 0) {
        const auto info = sim.restore_from_durable();
        if (replayed != nullptr) *replayed += info.replay_slots;
      }
      try {
        return sim.run();
      } catch (const durable::SimKilled&) {
        if (restores != nullptr) ++(*restores);
      }
    }
  }

  fs::path dir_;
};

TEST_F(DurableSimTest, UninterruptedRunWritesSnapshots) {
  const auto inst = small_instance(11);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const SimConfig cfg = base_config("", (dir_ / "state").string());
  ClusterSimulator sim(inst, placed.placement, cfg, Rng(11));
  (void)sim.run();
  durable::SnapshotStore store((dir_ / "state").string(), false);
  const auto slots = store.snapshot_slots();
  ASSERT_FALSE(slots.empty());
  // Cadence 20 over 60 slots: snapshots at 0, 20, 40; prune keeps 2.
  EXPECT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots.back(), 40u);
}

TEST_F(DurableSimTest, KillRestartReportIsByteIdentical) {
  const auto inst = small_instance(12);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());

  // Faults but no kill: the baseline truth.
  const SimConfig base = base_config("crash@15:pm=2;recover@30:pm=2",
                                     (dir_ / "base").string());
  ClusterSimulator ref(inst, placed.placement, base, Rng(12));
  const std::string want = digest(ref.run());

  // Same run killed early/mid/late, restored each time.
  for (const std::size_t kill_at : {1UL, 17UL, 35UL, 59UL}) {
    const std::string sub = "k" + std::to_string(kill_at);
    const SimConfig killed = base_config(
        "crash@15:pm=2;recover@30:pm=2;kill@" + std::to_string(kill_at),
        (dir_ / sub).string());
    std::size_t restores = 0;
    std::size_t replayed = 0;
    const SimReport rep = run_with_restores(inst, placed.placement, killed,
                                            12, &restores, &replayed);
    EXPECT_EQ(restores, 1u) << "kill@" << kill_at;
    EXPECT_LE(replayed, 20u) << "kill@" << kill_at;
    EXPECT_EQ(digest(rep), want) << "kill@" << kill_at;
  }
}

TEST_F(DurableSimTest, MultipleKillsStillConverge) {
  const auto inst = small_instance(13);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const SimConfig base = base_config("", (dir_ / "base").string());
  ClusterSimulator ref(inst, placed.placement, base, Rng(13));
  const std::string want = digest(ref.run());

  const SimConfig killed =
      base_config("kill@10;kill@25;kill@26", (dir_ / "killed").string());
  std::size_t restores = 0;
  const SimReport rep = run_with_restores(inst, placed.placement, killed,
                                          13, &restores, nullptr);
  EXPECT_EQ(restores, 3u);
  EXPECT_EQ(digest(rep), want);
}

TEST_F(DurableSimTest, TraceStaysByteIdenticalAcrossKills) {
  const auto inst = small_instance(14);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());

  // Plain and LZ-compressed blocks: the rewind truncates to a block
  // boundary either way.
  for (const bool compress : {false, true}) {
    const std::string ext = compress ? "lz.btrc" : "btrc";
    const std::string ref_trace = (dir_ / ("ref." + ext)).string();
    obs::events().open(ref_trace, obs::event_format_from_path(ref_trace),
                       obs::EventLevel::kDetail, compress);
    const SimConfig base =
        base_config("", (dir_ / ("b" + std::string(ext))).string());
    ClusterSimulator ref(inst, placed.placement, base, Rng(14));
    const std::string want = digest(ref.run());
    obs::events().close();

    const std::string kill_trace = (dir_ / ("kill." + ext)).string();
    obs::events().open(kill_trace, obs::event_format_from_path(kill_trace),
                       obs::EventLevel::kDetail, compress);
    const SimConfig killed =
        base_config("kill@33", (dir_ / ("k" + std::string(ext))).string());
    std::size_t restores = 0;
    const SimReport rep = run_with_restores(inst, placed.placement, killed,
                                            14, &restores, nullptr);
    obs::events().close();

    EXPECT_EQ(restores, 1u) << ext;
    EXPECT_EQ(digest(rep), want) << ext;
    EXPECT_EQ(slurp(kill_trace), slurp(ref_trace))
        << "trace bytes diverged for " << ext;
  }
}

TEST_F(DurableSimTest, TornWalTailStillRecovers) {
  const auto inst = small_instance(15);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const SimConfig base = base_config("", (dir_ / "base").string());
  ClusterSimulator ref(inst, placed.placement, base, Rng(15));
  const std::string want = digest(ref.run());

  const std::string state = (dir_ / "killed").string();
  const SimConfig killed = base_config("kill@31", state);
  ClusterSimulator first(inst, placed.placement, killed, Rng(15));
  try {
    (void)first.run();
    FAIL() << "expected SimKilled";
  } catch (const durable::SimKilled& k) {
    EXPECT_EQ(k.slot, 31u);
  }

  // Tear the WAL tail: chop 3 bytes off the newest journal (snapshot 20,
  // groups 20..30 -> the slot-30 group frame is now torn).
  durable::SnapshotStore store(state, false);
  const std::string wal = store.wal_path(20);
  ASSERT_TRUE(fs::exists(wal));
  const auto size = fs::file_size(wal);
  fs::resize_file(wal, size - 3);
  const durable::WalScan scan = durable::scan_wal(wal);
  EXPECT_TRUE(scan.torn);

  ClusterSimulator second(inst, placed.placement, killed, Rng(15));
  const auto info = second.restore_from_durable();
  EXPECT_EQ(info.snapshot_slot, 20u);
  EXPECT_EQ(info.replay_slots, 10u);  // slot 30's group was torn away
  // The torn group left replay short of the kill slot, so the scripted
  // kill re-fires once; the next restore sees the re-committed journal.
  try {
    EXPECT_EQ(digest(second.run()), want);
  } catch (const durable::SimKilled& k) {
    EXPECT_EQ(k.slot, 31u);
    ClusterSimulator third(inst, placed.placement, killed, Rng(15));
    const auto info2 = third.restore_from_durable();
    EXPECT_EQ(info2.replay_slots, 11u);
    EXPECT_EQ(digest(third.run()), want);
  }
}

TEST_F(DurableSimTest, CorruptSnapshotFailsLoudly) {
  const auto inst = small_instance(16);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const std::string state = (dir_ / "killed").string();
  const SimConfig killed = base_config("kill@45", state);
  ClusterSimulator first(inst, placed.placement, killed, Rng(16));
  EXPECT_THROW((void)first.run(), durable::SimKilled);

  durable::SnapshotStore store(state, false);
  const std::string snap = store.snapshot_path(40);
  ASSERT_TRUE(fs::exists(snap));
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    const auto mid = static_cast<std::streamoff>(fs::file_size(snap) / 2);
    f.seekg(mid);
    char b = 0;
    f.read(&b, 1);
    f.seekp(mid);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }

  ClusterSimulator second(inst, placed.placement, killed, Rng(16));
  try {
    (void)second.restore_from_durable();
    FAIL() << "expected CorruptState";
  } catch (const durable::CorruptState& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt at byte"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(DurableSimTest, RestoreIntoDifferentConfigIsRejected) {
  const auto inst = small_instance(17);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const std::string state = (dir_ / "state").string();
  const SimConfig killed = base_config("kill@30", state);
  ClusterSimulator first(inst, placed.placement, killed, Rng(17));
  EXPECT_THROW((void)first.run(), durable::SimKilled);

  SimConfig other = killed;
  other.slots = 90;  // different horizon -> different digest
  ClusterSimulator second(inst, placed.placement, other, Rng(17));
  EXPECT_THROW((void)second.restore_from_durable(), durable::CorruptState);
}

TEST_F(DurableSimTest, OlderBlobVersionIsRejected) {
  const auto inst = small_instance(18);
  const auto placed = ffd_by_peak(inst);
  ASSERT_TRUE(placed.complete());
  const std::string state = (dir_ / "state").string();
  const SimConfig killed = base_config("kill@30", state);
  ClusterSimulator first(inst, placed.placement, killed, Rng(18));
  EXPECT_THROW((void)first.run(), durable::SimKilled);

  // Re-stamp the newest snapshot with layout version 2 (the blob opens
  // with its version as a u64); its layout — a trace-format byte in the
  // trace checkpoint — differs from today's.
  durable::SnapshotStore store(state, false);
  const auto loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  durable::StateWriter version;
  version.u64(2);
  std::string blob = loaded->blob;
  blob.replace(0, 8, version.take());
  store.write_snapshot(loaded->slot, blob);

  ClusterSimulator second(inst, placed.placement, killed, Rng(18));
  try {
    (void)second.restore_from_durable();
    FAIL() << "expected CorruptState";
  } catch (const durable::CorruptState& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot blob version"),
              std::string::npos)
        << e.what();
  }
}

TEST(DurableSimConfig, KillsRequireDurability) {
  SimConfig cfg;
  cfg.faults = fault::parse_fault_plan("kill@5");
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  durable::DurabilityConfig d;
  d.dir = "/tmp/burstq-wherever";
  cfg.durability = d;
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace burstq

// The dynamic cluster simulator — burstq's substitute for the paper's Xen
// Cloud Platform testbed (Section V-D).
//
// Slotted time (slot length sigma = 30s in the paper).  Each slot:
//   1. every VM's ON-OFF chain advances; demand is either the rectangular
//      Rb/Rp level or a noisy web-server request count around it
//   2. per-PM aggregate load is computed (VMs mid-migration load both
//      machines, modelling live-migration copy overhead)
//   3. capacity violations are recorded per PM (CVR bookkeeping)
//   4. the dynamic scheduler reacts: a PM whose recent CVR exceeds rho
//      evicts one VM to the first PM that *currently looks* able to take
//      it (observed load, not reservations — the source of the paper's
//      "idle deception")
//   5. active-PM count and energy are accumulated
//
// The simulator never consults the placement strategy that produced the
// initial mapping: exactly as on the paper's testbed, strategies differ
// only in where VMs start and how much headroom that leaves.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "durable/durable.h"
#include "durable/snapshot.h"
#include "durable/wal.h"
#include "fault/injector.h"
#include "fault/recovery.h"
#include "placement/placement.h"
#include "placement/spec.h"
#include "sim/energy.h"
#include "sim/flight.h"
#include "sim/metrics.h"
#include "sim/migration.h"
#include "sim/webserver.h"
#include "sim/workload_gen.h"

namespace burstq {

namespace obs {
class SloTracker;
}

/// End-of-slot snapshot handed to SimConfig::on_slot.  The id vectors are
/// borrowed from the simulator and valid only for the duration of the
/// callback — copy what must outlive it.
struct SlotObservation {
  std::size_t t{0};
  /// PM ids that hosted at least one VM this slot (ascending) — exactly
  /// the set whose violation verdicts entered the CVR/SLO trackers.
  const std::vector<std::size_t>* active{nullptr};
  /// The subset of `active` that violated capacity (ascending).
  const std::vector<std::size_t>* violated{nullptr};
  std::size_t migrations{0};         ///< successful migrations this slot
  std::size_t failed_migrations{0};  ///< failed triggers this slot
  std::size_t pms_used{0};           ///< active PMs (incl. copy sources)
  /// SLO burn rates after this slot closed (0 when no SLO tracker is
  /// attached) — lets harness invariants watch the alerting signals.
  double fast_burn{0.0};
  double slow_burn{0.0};
};

struct SimConfig {
  std::size_t slots{100};         ///< evaluation period (paper: 100 sigma)
  double sigma_seconds{30.0};     ///< slot length
  MigrationPolicy policy{};       ///< trigger threshold, window, cost
  PowerModel power{};             ///< for energy reporting
  bool webserver_workload{false}; ///< noisy request-driven demand (Sec V-D)
  bool webserver_exact{false};    ///< web mode: exact per-user renewal
                                  ///< simulation instead of the renewal-CLT
                                  ///< approximation (slower; use for small
                                  ///< fleets or validation runs)
  double users_per_unit{100.0};   ///< web mode: users per resource unit
  bool start_stationary{true};    ///< draw initial states from steady state
  bool enable_migration{true};    ///< false = pure CVR observation (Fig 6)
  /// Chaos schedule (fault/plan.h); nullopt = fault-free run.  The plan's
  /// own seed drives fault draws, so the workload stream is identical with
  /// and without faults.
  std::optional<fault::FaultPlan> faults;
  fault::RecoveryPolicy recovery{};  ///< evacuation/backoff under faults
  /// Optional SLO tracker (obs/slo.h); not owned, must outlive run().
  /// Every slot mirrors the per-PM violation verdicts into it and closes
  /// the tracker slot — unlike CvrTracker its windows never reset on
  /// migration, so it reports what tenants actually experienced.
  obs::SloTracker* slo{nullptr};
  /// Piecewise-constant workload timeline: each phase overrides every
  /// chain's switch probabilities from its slot on (ascending unique
  /// slots, all < `slots`).  A phase at slot t shapes the transitions
  /// *into* slot t — phase slot 0 cannot retroactively change the
  /// initial state draw.  Empty = stationary parameters throughout.
  std::vector<WorkloadPhase> workload_phases;
  /// Invoked at the end of every simulated slot (after SLO bookkeeping
  /// and scheduling) with that slot's observation.  The scenario harness
  /// uses this to evaluate invariants without re-deriving state from the
  /// trace.  Must not throw; null = disabled.
  std::function<void(const SlotObservation&)> on_slot;
  /// Crash-durable persistence (src/durable): snapshot checkpoints plus a
  /// write-ahead journal, enabling kill-restart recovery with a
  /// byte-identical final report.  Required whenever the fault plan
  /// schedules kills (validate() enforces this — a kill without a way
  /// back is a guaranteed hang, not chaos testing).
  std::optional<durable::DurabilityConfig> durability;

  void validate() const;
};

/// What the fault injection did and what recovery did about it.  All
/// zeros on a fault-free run.
struct FaultReport {
  std::size_t pm_crashes{0};
  std::size_t pm_recoveries{0};
  std::size_t evacuated{0};  ///< crash victims re-placed immediately
  std::size_t enqueued{0};   ///< crash victims that had to wait in queue
  std::size_t queue_end{0};  ///< VMs still queued at the final slot
  std::size_t retries{0};    ///< queue drain attempts (migration.retries)
  std::size_t migration_aborts{0};  ///< in-flight copies rolled back
  std::size_t migration_stalls{0};  ///< in-flight copies extended
  std::size_t solver_degraded{0};   ///< admissions decided below rung 1
  /// VMs neither hosted on an up PM nor queued at the end.  The recovery
  /// invariant guarantees 0; anything else is a bug.
  std::size_t lost_vms{0};
};

struct SimReport {
  std::size_t total_migrations{0};   ///< successful migrations
  std::size_t failed_migrations{0};  ///< trigger fired but no target PM
  std::size_t pms_used_end{0};       ///< active PMs at the last slot
  std::size_t pms_used_max{0};
  std::vector<std::size_t> pms_used_timeline;    ///< per slot
  std::vector<std::size_t> migrations_per_slot;  ///< per slot (successful)
  std::vector<MigrationEvent> events;            ///< Figure 10 log
  std::vector<double> pm_cvr;  ///< cumulative CVR per PM (Eq. 4)
  /// Windowed CVR per PM at the final slot (the quantity the migration
  /// trigger watches); also what flight-log replay must reproduce.
  std::vector<double> pm_windowed_cvr_end;
  double mean_cvr{0.0};        ///< over PMs that hosted VMs at some point
  double max_cvr{0.0};
  double energy_wh{0.0};
  FaultReport faults;          ///< all zeros when SimConfig::faults unset
};

class ClusterSimulator {
 public:
  /// Simulates `inst` starting from `initial` placement.  The placement is
  /// copied; migrations mutate the copy.  Unplaced VMs are not allowed —
  /// pass a complete placement.
  ClusterSimulator(const ProblemInstance& inst, const Placement& initial,
                   SimConfig config, Rng rng);

  /// Runs the configured number of slots and returns the report.
  /// Callable once.  When SimConfig::durability is set and a kill fault
  /// fires, throws durable::SimKilled — catch it, construct a fresh
  /// simulator with the same arguments, restore_from_durable(), and call
  /// run() again; the resumed run produces the byte-identical report and
  /// trace of an uninterrupted run.
  SimReport run();

  /// What a restore did, for the `recovery_replay_slots` invariant.
  struct RestoreInfo {
    std::size_t snapshot_slot{0};  ///< slot the snapshot was taken at
    std::size_t replay_slots{0};   ///< WAL-verified slots re-executed
  };

  /// Restores state from the newest snapshot + WAL suffix under
  /// SimConfig::durability->dir.  Must be called before run() on a
  /// freshly constructed simulator with identical construction
  /// arguments.  Rewinds the global event log to the checkpoint the
  /// snapshot recorded and re-fires SimConfig::on_slot for every slot
  /// before the snapshot.  Throws durable::CorruptState when no valid
  /// snapshot exists or the stored state is inconsistent.
  RestoreInfo restore_from_durable();

  /// Current (possibly migrated) placement; valid after run().
  [[nodiscard]] const Placement& placement() const { return placement_; }

  /// Recovery controller contents (admission queue, retry totals, ladder
  /// counters); nullopt without a fault plan.  Valid after run().
  [[nodiscard]] std::optional<fault::RecoveryControllerState> recovery_state()
      const {
    if (!recovery_) return std::nullopt;
    return recovery_->export_state();
  }

 private:
  [[nodiscard]] Resource vm_demand(std::size_t i) const;
  void compute_loads(std::vector<Resource>& load,
                     std::vector<Resource>& demand) const;
  /// Writes a snapshot + rotates the WAL when slot `t` is a checkpoint
  /// boundary (top of slot, before any slot-t work).
  void maybe_checkpoint(std::size_t t);
  /// Serializes the complete simulator state at the top of slot `t`.
  [[nodiscard]] std::string encode_state(std::size_t t);
  /// CRC-32 of the construction arguments a snapshot blob does not carry.
  [[nodiscard]] std::uint32_t config_digest() const;
  void journal(durable::WalRecord type, std::string payload);
  /// Frames + commits this slot's journal group; during replay verifies
  /// it byte-for-byte against the pre-kill WAL (divergence is loud).
  void commit_slot(std::size_t t);
  [[nodiscard]] std::uint32_t placement_crc() const;
  /// Applies this slot's faults: stalls and aborts in-flight copies,
  /// evacuates crashed PMs through the recovery controller, drains the
  /// admission queue.  Mutates placement_ and in_flight_.
  void apply_faults(const fault::SlotFaults& sf, std::size_t t,
                    SimReport& report);

  const ProblemInstance* inst_;
  Placement placement_;
  SimConfig config_;
  Rng rng_;
  WorkloadEnsemble ensemble_;
  std::vector<WebServerWorkload> web_;  ///< per VM, only in web mode
  std::vector<Resource> demand_cache_;  ///< demand of each VM this slot

  struct InFlight {
    std::size_t vm;
    std::size_t source_pm;
    std::size_t remaining;
  };
  std::vector<InFlight> in_flight_;
  /// Present only under TargetSelection::kReservationAware.
  std::optional<MapCalTable> reservation_table_;
  /// Present only when SimConfig::faults is set.
  std::optional<fault::FaultInjector> injector_;
  std::optional<fault::RecoveryController> recovery_;
  OnOffParams rounded_{};  ///< uniform params for recovery Eq. (17) checks
  /// VMs whose last migration was rolled back by a fault; the next
  /// scheduler move of such a VM counts `migration.retries` instead of a
  /// plain first-attempt migration.
  std::vector<bool> aborted_once_;
  std::size_t next_phase_{0};  ///< first workload phase not yet applied
  bool ran_{false};

  // Run-long accumulators, members (not run() locals) so a durable
  // snapshot can capture and a restore can overwrite them.  Optionals:
  // emplaced in the ctor body after SimConfig::validate() so a bad
  // config still fails with the config error message.
  std::optional<CvrTracker> tracker_;
  std::optional<EnergyMeter> meter_;
  SimReport report_;
  /// Emplaced at the END of construction so its `sim.config` event is the
  /// last ctor-time emission; a restore rewinds the log right past it.
  std::optional<FlightSlotRecorder> recorder_;
  std::size_t start_slot_{0};  ///< run() resumes here after a restore

  // Durable persistence (present only when config_.durability is set).
  std::optional<durable::SnapshotStore> store_;
  std::unique_ptr<durable::WalWriter> wal_;
  std::size_t wal_base_slot_{0};
  /// Pre-kill WAL groups to verify against during replay, indexed by
  /// slot - wal_base_slot_; replay covers [start_slot_, replay_upto_).
  std::vector<durable::WalGroup> verify_groups_;
  std::size_t replay_upto_{0};

  /// Per-slot observations retained for snapshots: a restore re-fires
  /// them through on_slot so harness accumulators rebuild exactly.
  struct StoredObs {
    std::vector<std::size_t> active;
    std::vector<std::size_t> violated;
    std::size_t migrations{0};
    std::size_t failed_migrations{0};
    std::size_t pms_used{0};
    double fast_burn{0.0};
    double slow_burn{0.0};
  };
  std::vector<StoredObs> history_;
};

/// Convenience for the Figure 6 experiment: per-PM cumulative CVR of a
/// fixed placement (no migration) after `slots` steps of rectangular
/// ON-OFF demand.
std::vector<double> simulate_cvr(const ProblemInstance& inst,
                                 const Placement& placement,
                                 std::size_t slots, Rng rng,
                                 bool start_stationary = true);

/// Like simulate_cvr but returns the full per-PM violation record
/// (result[pm][slot]), from which both CVR and violation-episode
/// statistics (sim/metrics.h) derive.  Same RNG consumption pattern as
/// simulate_cvr: identical seeds give identical violation sets.
std::vector<std::vector<bool>> record_violation_trace(
    const ProblemInstance& inst, const Placement& placement,
    std::size_t slots, Rng rng, bool start_stationary = true);

}  // namespace burstq

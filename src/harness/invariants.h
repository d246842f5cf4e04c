// The invariant catalog of the scenario harness: the physics the
// consolidation stack must not violate, each checkable against one run.
//
// Every invariant compares a worst-case observed value against a
// scenario-supplied threshold.  The comparison is inclusive: an
// exactly-met threshold passes (the budget rho *is* the contract), one
// epsilon over fails.  Evaluation consumes the per-slot series the
// runner collects through SimConfig::on_slot plus the final SimReport,
// so verdicts never re-derive state from the trace — the trace pointer
// in each result is for humans (and `burstq_cli trace head --at-event`),
// not for the verdict itself.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace burstq::harness {

enum class InvariantKind {
  kClusterCvr,         ///< cumulative cluster-wide CVR (Eq. 4)
  kPmCvr,              ///< worst per-PM cumulative CVR
  kLostVms,            ///< FaultReport.lost_vms (conservation; == 0)
  kMigrationsPerSlot,  ///< successful migrations in any single slot
  kVmFlaps,            ///< migrations of the most-moved VM (flapping)
  kSloFastBurn,        ///< fast-window SLO burn rate (cvr / rho)
  kSloSlowBurn,        ///< slow-window SLO burn rate
  kRecoveryReplaySlots,  ///< worst WAL replay length over kill-restores
};

enum class InvariantOp { kLe, kEq };

/// "cluster_cvr", "pm_cvr", ... — the scenario-file spelling.
std::string_view invariant_name(InvariantKind kind);

/// "<=" | "==".
std::string_view invariant_op_name(InvariantOp op);

/// Reverse lookups; nullopt on unknown spellings.
std::optional<InvariantKind> invariant_from_name(std::string_view name);
std::optional<InvariantOp> invariant_op_from_name(std::string_view name);

/// One catalog row for `harness list --catalog` and docs.
struct InvariantInfo {
  InvariantKind kind;
  std::string_view name;
  std::string_view description;
};

/// All known invariants, in a stable presentation order.
const std::vector<InvariantInfo>& invariant_catalog();

/// Pointer into the flight-recorder trace: where to start reading to see
/// the violation unfold.  `burstq_cli trace head --log FILE --at-event
/// EVENT_INDEX` resolves it exactly; `offset` is the byte boundary of
/// the BTRC block that holds the event.
struct TracePointer {
  std::uint64_t offset{0};
  std::uint64_t event_index{0};  ///< 0-based index in the event stream
  std::size_t slot{0};           ///< the slot.obs `t` the pointer lands on
};

/// Verdict for one invariant over one run.
struct InvariantResult {
  InvariantKind kind{InvariantKind::kClusterCvr};
  InvariantOp op{InvariantOp::kLe};
  double threshold{0.0};
  bool pass{false};
  /// Worst-case observed value: the peak single-slot value for per-slot
  /// quantities (migrations, burn rates, flaps), the FINAL cumulative
  /// value for the Eq. 4 ratios (cluster_cvr, pm_cvr) — a running ratio
  /// dilutes, so its final value is the honest worst case.
  double worst{0.0};
  std::size_t worst_slot{0};   ///< slot where `worst` was (first) reached
  /// Violating time window [begin, end] in slots — the first through the
  /// last slot whose observed value breached the threshold.  Absent when
  /// the invariant passed or the series never crossed (e.g. an
  /// end-of-run-only quantity like lost_vms on a passing run).
  std::optional<std::pair<std::size_t, std::size_t>> window;
  /// Pointer to the flight-recorder event at the window's first slot.
  /// Absent when there is no window or the trace carries no slot.obs
  /// events (recording below detail level).
  std::optional<TracePointer> trace;
};

/// The per-slot series the runner collects while the simulator runs.
/// All vectors grow one entry per completed slot; a run aborted at slot
/// t leaves t entries, and evaluation degrades gracefully to the prefix.
struct SlotSeries {
  std::vector<double> cluster_cvr;    ///< running cumulative cluster CVR
  std::vector<double> worst_pm_cvr;   ///< worst per-PM cumulative CVR, per slot
  std::vector<std::size_t> migrations;  ///< successful migrations per slot
  std::vector<double> fast_burn;      ///< SLO fast-window burn per slot
  std::vector<double> slow_burn;      ///< SLO slow-window burn per slot
  /// Running max per-VM migration count per slot (flap bookkeeping).
  std::vector<std::size_t> max_vm_moves;
  std::size_t lost_vms{0};  ///< from the final FaultReport (0 until then)
  /// Largest WAL replay (in slots) any single kill-restore performed; 0
  /// on runs with no kills.  Bounds how far the newest snapshot lagged
  /// behind the kill point — it must stay under the snapshot cadence.
  std::size_t recovery_replay_slots{0};
};

/// Evaluates one invariant against the collected series.  Pure: same
/// series, same verdict.  `threshold` comparisons are inclusive.
InvariantResult evaluate_invariant(InvariantKind kind, InvariantOp op,
                                   double threshold,
                                   const SlotSeries& series);

}  // namespace burstq::harness

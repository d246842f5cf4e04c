// Failure-aware recovery on top of the incremental placement engine.
//
// When a PM crashes, its VMs must land somewhere sound: the controller
// evacuates them through the same Eq. (17) reservation discipline that
// admitted them (via the degradation ladder, so a concurrent solver
// outage widens the reservation instead of blocking the evacuation).
// VMs that fit nowhere are not dropped — they enter an admission-control
// queue with a recorded reason and are retried with exponential backoff,
// draining as soon as capacity returns (a PM recovers or load departs).
//
// Invariant the controller maintains (and exposes for the recovery fuzz
// oracle): at every slot boundary, each VM is either assigned to an *up*
// PM or present in the queue — never lost, never on a dead host.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/degrade.h"
#include "placement/placement.h"
#include "placement/spec.h"

namespace burstq::fault {

struct RecoveryPolicy {
  /// Retries before the backoff delay stops growing (the VM is never
  /// dropped; later retries just stay at the capped delay).
  std::size_t max_retries{8};
  std::size_t backoff_base_slots{1};  ///< delay after the first failure
  std::size_t backoff_cap_slots{64};

  void validate() const;
};

/// Slots to wait before the next placement attempt after `retries`
/// failed ones: base, 2x base, 4x base ... doubling at most max_retries
/// times and saturating at the cap.
[[nodiscard]] std::size_t backoff_delay(const RecoveryPolicy& policy,
                                        std::size_t retries);

/// Why a VM sits in the admission queue.
enum class QueueReason { kNoFeasiblePm, kRetryBackoff };

struct QueuedVm {
  std::size_t vm{0};
  QueueReason reason{QueueReason::kNoFeasiblePm};
  std::size_t retries{0};       ///< placement attempts beyond the first
  std::size_t next_attempt{0};  ///< earliest slot for the next attempt
};

/// Serializable RecoveryController contents for durable snapshots.
struct RecoveryControllerState {
  std::vector<QueuedVm> queue;
  std::size_t retries_total{0};
  std::size_t enqueued_total{0};
  ReserveLevel ladder_last_level{ReserveLevel::kTable};
  std::size_t ladder_degraded_decisions{0};
};

class RecoveryController {
 public:
  /// Operates on `inst` (outliving the controller) with Eq. (17) checks
  /// at the given (d, rho, preferred backend).
  RecoveryController(const ProblemInstance& inst, RecoveryPolicy policy,
                     std::size_t max_vms_per_pm, double rho,
                     StationaryMethod method);

  /// Evacuates every VM hosted on `crashed` (which must already be marked
  /// down in `pm_up`): each is re-placed first-fit over up PMs under the
  /// ladder, or queued.  Returns the number re-placed immediately.
  std::size_t evacuate(Placement& placement, PmId crashed,
                       std::span<const std::uint8_t> pm_up,
                       const OnOffParams& rounded, std::size_t slot);

  /// Retries queued VMs whose backoff has expired.  Each attempt counts
  /// one `migration.retries`; successes leave the queue.  Returns the
  /// number admitted this call.
  std::size_t drain(Placement& placement, std::span<const std::uint8_t> pm_up,
                    const OnOffParams& rounded, std::size_t slot);

  [[nodiscard]] const std::vector<QueuedVm>& queue() const { return queue_; }
  [[nodiscard]] std::size_t retries_total() const { return retries_total_; }
  [[nodiscard]] std::size_t enqueued_total() const { return enqueued_total_; }
  [[nodiscard]] ReservationLadder& ladder() { return ladder_; }

  /// The recovery invariant: every VM is assigned to an up PM, or queued.
  /// (Debug builds assert this per slot; the fuzz oracle checks it too.)
  [[nodiscard]] bool invariant_holds(const Placement& placement,
                                     std::span<const std::uint8_t> pm_up) const;

  [[nodiscard]] RecoveryControllerState export_state() const {
    RecoveryControllerState st;
    st.queue = queue_;
    st.retries_total = retries_total_;
    st.enqueued_total = enqueued_total_;
    st.ladder_last_level = ladder_.last_level();
    st.ladder_degraded_decisions = ladder_.degraded_decisions();
    return st;
  }

  void import_state(const RecoveryControllerState& st) {
    queue_ = st.queue;
    retries_total_ = st.retries_total;
    enqueued_total_ = st.enqueued_total;
    ladder_.restore_counters(st.ladder_last_level,
                             st.ladder_degraded_decisions);
  }

 private:
  /// First-fit over up PMs under the ladder; nullopt when nothing admits
  /// the VM.  Resolves the rung-1 table once per search and confirms each
  /// PM with an in-place exact walk (after an O(1) reject from the cached
  /// aggregates on a bound placement); only a solver outage on a cold
  /// cache falls back to the per-candidate ladder with spec copies.
  [[nodiscard]] std::optional<PmId> find_target(const Placement& placement,
                                                std::size_t vm,
                                                std::span<const std::uint8_t> pm_up,
                                                const OnOffParams& rounded);

  void enqueue(std::size_t vm, std::size_t slot);

  const ProblemInstance* inst_;
  RecoveryPolicy policy_;
  ReservationLadder ladder_;
  std::vector<QueuedVm> queue_;  ///< FIFO order
  std::size_t retries_total_{0};
  std::size_t enqueued_total_{0};
};

}  // namespace burstq::fault

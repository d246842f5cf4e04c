// The VM-to-PM mapping X (paper Eq. "X = [x_ij]") plus constraint checks.
//
// Stored as a dense assignment vector (one PmId per VM) with per-PM VM
// lists maintained incrementally.  Each VM also remembers its position in
// its PM's list, so unassign() is a swap-remove in O(1) — the replan /
// migration hot path never searches a list.
//
// A Placement may additionally be *bound* to a ProblemInstance (the
// one-argument constructor).  A bound placement maintains per-PM aggregate
// caches — VM count, sum of Rb, max Re — on every assign/unassign, which
// makes the Eq. (17) feasibility check and the best-fit slack O(1) instead
// of O(VMs on the PM).  The walk-based helpers (*_walk) are kept as the
// debug-checked reference implementation; aggregates_consistent() compares
// the two.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq {

/// Serializable contents of a Placement for durable snapshots.  Per-PM
/// list ORDER and the raw aggregate doubles are preserved exactly:
/// unassign's swap-remove reorders lists and rb_sum_ carries float-
/// association noise, so re-deriving either from pm_of alone would
/// diverge from the uninterrupted run.
struct PlacementState {
  std::vector<PmId> pm_of;
  std::vector<std::vector<std::size_t>> vms_on;
  bool bound{false};  ///< aggregates below are populated
  std::vector<Resource> rb_sum;
  std::vector<Resource> re_max;
};

class Placement {
 public:
  /// Empty mapping over n VMs and m PMs; every VM starts unassigned.
  /// Aggregates are not tracked (no spec data available).
  Placement(std::size_t n_vms, std::size_t n_pms);

  /// Empty mapping bound to `inst`: per-PM (k, rb_sum, re_max) aggregates
  /// are maintained incrementally.  `inst` must outlive this placement and
  /// every copy of it that is still mutated.
  explicit Placement(const ProblemInstance& inst);

  /// Assigns `vm` to `pm`.  The VM must currently be unassigned.  O(1).
  void assign(VmId vm, PmId pm);

  /// Removes `vm` from its PM via swap-remove.  O(1) except when the VM
  /// held the PM's max Re on a bound placement (then O(VMs on that PM) to
  /// rescan).  Note the swap reorders vms_on(pm).
  void unassign(VmId vm);

  /// PM hosting `vm`; invalid Id when unassigned.
  [[nodiscard]] PmId pm_of(VmId vm) const;

  [[nodiscard]] bool assigned(VmId vm) const { return pm_of(vm).valid(); }

  /// Indices of VMs currently on `pm`.  Assignment order until the first
  /// unassign on that PM; swap-removal may reorder afterwards.
  [[nodiscard]] const std::vector<std::size_t>& vms_on(PmId pm) const;

  [[nodiscard]] std::size_t count_on(PmId pm) const {
    return vms_on(pm).size();
  }

  /// Number of PMs hosting at least one VM — the paper's objective (Eq. 6).
  [[nodiscard]] std::size_t pms_used() const { return pms_used_; }

  /// Number of VMs currently assigned.
  [[nodiscard]] std::size_t vms_assigned() const { return vms_assigned_; }

  [[nodiscard]] std::size_t n_vms() const { return pm_of_.size(); }
  [[nodiscard]] std::size_t n_pms() const { return vms_on_.size(); }

  /// True when this placement maintains per-PM aggregates for `inst`
  /// (i.e. it was bound to that same instance object).
  [[nodiscard]] bool tracks_aggregates(const ProblemInstance& inst) const {
    return inst_ == &inst;
  }

  /// Cached sum of Rb on `pm`.  Requires a bound placement.  Equals the
  /// walk-based sum bit-for-bit as long as no VM was unassigned from the
  /// PM; after churn it may differ by floating-point association noise.
  [[nodiscard]] Resource rb_sum_on(PmId pm) const;

  /// Cached max Re on `pm` (0 when empty).  Requires a bound placement.
  /// Always exactly equal to the walk-based maximum.
  [[nodiscard]] Resource re_max_on(PmId pm) const;

  /// Durable-snapshot export/import.  restore_state() replaces the whole
  /// mapping; derived indices (pos_in_pm_, pms_used_, vms_assigned_) are
  /// rebuilt from the lists.  The placement keeps its current binding —
  /// aggregates in the state are only applied to a bound placement.
  [[nodiscard]] PlacementState export_state() const;
  void restore_state(const PlacementState& st);

 private:
  void init(std::size_t n_vms, std::size_t n_pms);

  const ProblemInstance* inst_{nullptr};
  std::vector<PmId> pm_of_;
  std::vector<std::size_t> pos_in_pm_;  ///< index of each VM in its PM list
  std::vector<std::vector<std::size_t>> vms_on_;
  std::vector<Resource> rb_sum_;  ///< per-PM aggregate (bound only)
  std::vector<Resource> re_max_;  ///< per-PM aggregate (bound only)
  std::size_t pms_used_{0};
  std::size_t vms_assigned_{0};
};

/// Aggregate Rb of the VMs on `pm`.  O(1) on a placement bound to `inst`,
/// otherwise a walk over the PM's VM list.
Resource total_rb_on(const ProblemInstance& inst, const Placement& placement,
                     PmId pm);

/// Largest Re of the VMs on `pm` (0 when empty) — the uniform block size
/// the paper reserves ("conservatively set to the maximum Re of the hosted
/// VMs").  O(1) on a placement bound to `inst`.
Resource max_re_on(const ProblemInstance& inst, const Placement& placement,
                   PmId pm);

/// Walk-based reference implementations of the two aggregates above.
/// Always recompute from the VM list; used by tests and debug checks to
/// validate the incremental caches.
Resource total_rb_on_walk(const ProblemInstance& inst,
                          const Placement& placement, PmId pm);
Resource max_re_on_walk(const ProblemInstance& inst,
                        const Placement& placement, PmId pm);

/// True when every cached per-PM aggregate of a bound placement matches
/// the walk-based recomputation: re_max exactly, rb_sum within `rel_tol`
/// relative error (unassign churn reorders float additions).  Placements
/// not bound to `inst` are vacuously consistent.
bool aggregates_consistent(const ProblemInstance& inst,
                           const Placement& placement,
                           double rel_tol = 1e-9);

/// Left-hand side of Eq. (17) for the PM as currently loaded: reserved
/// queue size plus aggregate Rb.
Resource reserved_footprint(const ProblemInstance& inst,
                            const Placement& placement, PmId pm,
                            const MapCalTable& table);

/// Eq. (17): can `vm` be added to `pm` under the reservation rule?
/// False when the PM already hosts table.max_vms_per_pm() VMs (the paper's
/// per-PM cap d).  O(1) on a placement bound to `inst`.
bool fits_with_reservation(const ProblemInstance& inst,
                           const Placement& placement, VmId vm, PmId pm,
                           const MapCalTable& table);

/// Eq. (17) on an explicit host list: can `candidate` join a PM of the
/// given capacity currently hosting `hosted`?  Used by the online
/// consolidator, which manages its own VM containers.
bool fits_with_reservation_specs(std::span<const VmSpec> hosted,
                                 const VmSpec& candidate, Resource capacity,
                                 const MapCalTable& table);

/// fits_with_reservation_specs over the specs of the VMs on `pm`, read in
/// place: the candidate first, then vms_on(pm) in list order.  Same
/// arithmetic, so the verdict is bit-identical to copying those specs out
/// and calling fits_with_reservation_specs — without the copy.  Ignores
/// any cached aggregates.
bool fits_with_reservation_walk(const ProblemInstance& inst,
                                const Placement& placement,
                                const VmSpec& candidate, PmId pm,
                                const MapCalTable& table);

/// Reserved footprint (Eq. 17 LHS) of an explicit host list.
Resource reserved_footprint_specs(std::span<const VmSpec> hosted,
                                  const MapCalTable& table);

/// Post-hoc validation that every used PM satisfies Eq. (17); used by
/// tests and by online rebuilds.
bool placement_satisfies_reservation(const ProblemInstance& inst,
                                     const Placement& placement,
                                     const MapCalTable& table);

/// Eq. (3) at t = 0 (all VMs OFF): aggregate Rb on each PM within capacity.
bool placement_satisfies_initial_capacity(const ProblemInstance& inst,
                                          const Placement& placement);

/// Relative tolerance used in capacity comparisons so that reservation
/// arithmetic on doubles never rejects an exactly-full PM.
inline constexpr double kCapacityEpsilon = 1e-9;

}  // namespace burstq

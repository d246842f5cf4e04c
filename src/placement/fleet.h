// Live-fleet reservation state (paper Section IV-E).
//
// "When a new VM arrives, we place it on the first PM that satisfies the
// constraint in Equation (17) ... when a VM quits, we simply recalculate
// the size of the queue on the PM."  FleetState is the one implementation
// of that rule for a fleet whose VMs come and go: the online consolidator
// (online.h) and the closed-loop controller (core/controller.h) are thin
// users of it.  It owns
//
//   * a tenant slot table (spec, hosting PM, live) with a LIFO free list,
//     so handles are stable slot indices;
//   * per-PM hosted lists in insertion order (a removal erases in place,
//     so back() is always the newest VM on the PM);
//   * the PM up-mask (a down PM hosts nothing and is never routed to);
//   * the ShardedAdmitIndex (sharded.h) with its conservative keys and
//     the round-robin arrival counter.
//
// Every mutation goes through one of the methods below, each of which
// refreshes the keys of the PMs it touched.  A key is recomputed from the PM's hosted list by a walk in
// list order; the exact Eq. (17) confirmation walks the candidate first,
// then the hosted VMs in list order — the association order of
// fits_with_reservation_specs — without allocating.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "placement/sharded.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq {

class FleetState {
 public:
  struct Slot {
    VmSpec spec;
    PmId pm;  ///< invalid while the VM is detached (e.g. queued)
    bool live{false};
  };

  enum class ResizeOutcome { kInPlace, kMoved, kRejected };

  /// A fleet of `pms`, all up and empty, routed through `shards` shards
  /// (ShardedOptions::shards semantics) with at most `decision_budget`
  /// exact confirmations per routing decision (0 = unlimited).
  FleetState(std::vector<PmSpec> pms, MapCalTable table, std::size_t shards,
             std::size_t decision_budget);

  /// Routes `vm` from the next round-robin home shard and, on success,
  /// places it in a fresh slot.  nullopt when no up PM admits it.
  std::optional<std::size_t> admit(const VmSpec& vm);

  /// First-fit routing: home shard first, then the remaining shards in
  /// fixed order, confirming key-admissible candidates with the exact
  /// Eq. (17) walk and honouring the decision budget.  `skip` excludes
  /// one PM.  With one shard and no budget this is the linear first-fit
  /// scan over up PMs.
  [[nodiscard]] std::optional<PmId> route(const VmSpec& vm, std::size_t home,
                                          PmId skip = PmId{}) const;

  /// Removes a placed slot from its PM's list (order of the others kept).
  void detach(std::size_t slot);
  /// Appends a detached slot to `pm`'s list.
  void attach(std::size_t slot, PmId pm);
  /// detach + attach.
  void move(std::size_t slot, PmId to);
  /// Detaches the slot if placed and returns it to the free list.
  void release(std::size_t slot);
  /// Replaces the spec of a detached slot.
  void set_spec(std::size_t slot, const VmSpec& spec);

  /// Resizes a placed slot.  In place when its PM still satisfies
  /// Eq. (17) with `spec`; otherwise detached and routed with its PM's
  /// shard as home.  When nothing admits `spec`, the original spec goes
  /// back to the original PM (always feasible: that hosted set satisfied
  /// Eq. 17 before) at the end of its list.
  ResizeOutcome resize(std::size_t slot, const VmSpec& spec);

  /// Marks `pm` down and detaches everything it hosted; returns those
  /// slots in list order.
  std::vector<std::size_t> take_down(PmId pm);
  void bring_up(PmId pm);

  /// Replaces the mapping table and recomputes every key.
  void set_table(MapCalTable table);

  /// Restores a serialized fleet (same PMs); keys are rebuilt.
  void restore(std::vector<Slot> slots, std::vector<std::size_t> free_slots,
               std::vector<std::vector<std::size_t>> hosted,
               std::vector<std::uint8_t> up, std::size_t route_seq);

  [[nodiscard]] const std::vector<PmSpec>& pms() const { return pms_; }
  [[nodiscard]] std::size_t n_pms() const { return pms_.size(); }
  [[nodiscard]] const MapCalTable& table() const { return table_; }
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }
  [[nodiscard]] const Slot& slot(std::size_t s) const { return slots_[s]; }
  [[nodiscard]] bool live(std::size_t s) const {
    return s < slots_.size() && slots_[s].live;
  }
  [[nodiscard]] std::size_t live_count() const { return live_count_; }
  [[nodiscard]] const std::vector<std::size_t>& free_slots() const {
    return free_slots_;
  }
  [[nodiscard]] std::span<const std::size_t> hosted(PmId pm) const {
    return on_pm_[pm.value];
  }
  [[nodiscard]] bool up(PmId pm) const { return up_[pm.value] != 0; }
  [[nodiscard]] const std::vector<std::uint8_t>& up_mask() const {
    return up_;
  }
  [[nodiscard]] bool any_down() const;
  [[nodiscard]] std::size_t route_seq() const { return route_seq_; }

  /// PMs hosting at least one VM.
  [[nodiscard]] std::size_t pms_used() const;

  /// True when `pm`'s hosted set satisfies Eq. (17) under the current
  /// table (an empty PM always does).
  [[nodiscard]] bool pm_satisfies_reservation(PmId pm) const;

  /// Eq. (17) on every PM, down PMs host nothing, and the hosted lists
  /// agree with the slot table.
  [[nodiscard]] bool invariant_holds() const;

 private:
  struct Aggregates {
    Resource rb_sum{0.0};
    Resource re_max{0.0};
  };
  /// Sum of hosted Rb and max hosted Re, walked in list order.
  [[nodiscard]] Aggregates aggregates(PmId pm) const;
  /// Exact Eq. (17) check of `vm` joining `pm`, ignoring slot `without`
  /// (if hosted there) among the hosted VMs.
  [[nodiscard]] bool admits(const VmSpec& vm, PmId pm,
                            std::size_t without) const;
  void refresh_key(PmId pm);
  void refresh_all_keys();

  std::vector<PmSpec> pms_;
  MapCalTable table_;
  std::size_t decision_budget_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_slots_;          ///< LIFO reuse
  std::vector<std::vector<std::size_t>> on_pm_;  ///< slots per PM
  std::vector<std::uint8_t> up_;                 ///< 1 = up
  ShardedAdmitIndex index_;   ///< per-shard slack trees (down PMs: -inf)
  std::size_t route_seq_{0};  ///< round-robin arrival counter
  std::size_t live_count_{0};
};

}  // namespace burstq

#include "fault/recovery.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.h"
#include "obs/obs.h"

namespace burstq::fault {

void RecoveryPolicy::validate() const {
  BURSTQ_REQUIRE(max_retries >= 1, "recovery max_retries must be >= 1");
  BURSTQ_REQUIRE(backoff_base_slots >= 1,
                 "recovery backoff base must be >= 1 slot");
  BURSTQ_REQUIRE(backoff_cap_slots >= backoff_base_slots,
                 "recovery backoff cap must be >= the base delay");
}

std::size_t backoff_delay(const RecoveryPolicy& policy, std::size_t retries) {
  // The loop guard keeps the doubling from overflowing on pathological
  // retry counts.
  const std::size_t exponent = std::min(retries, policy.max_retries);
  std::size_t delay = policy.backoff_base_slots;
  for (std::size_t i = 0; i < exponent && delay < policy.backoff_cap_slots;
       ++i)
    delay *= 2;
  return std::min(delay, policy.backoff_cap_slots);
}

RecoveryController::RecoveryController(const ProblemInstance& inst,
                                       RecoveryPolicy policy,
                                       std::size_t max_vms_per_pm,
                                       double rho, StationaryMethod method)
    : inst_(&inst),
      policy_(policy),
      ladder_(max_vms_per_pm, rho, method) {
  policy_.validate();
}

namespace {

/// Relative margin of the O(1) reject below.  The cached rb_sum of a
/// bound placement drifts from the walked sum by float-association noise
/// that aggregates_consistent() holds within 1e-9 relative (the fuzz
/// oracles check it after churn); the walk itself adds rounding of order
/// d * 2^-53.  Ten times the former covers both, and a wider margin only
/// sends more PMs on to the exact walk.
constexpr double kCachedSumMargin = 1e-8;

}  // namespace

std::optional<PmId> RecoveryController::find_target(
    const Placement& placement, std::size_t vm, std::span<const std::uint8_t> pm_up,
    const OnOffParams& rounded) {
  const VmSpec& cand = inst_->vms[vm];
  const std::size_t d = ladder_.max_vms_per_pm();
  const bool bound = placement.tracks_aggregates(*inst_);
  // Rung 1 is resolved once, at the first PM under the cap — where the
  // per-candidate ladder would first have asked for it.
  std::optional<MapCalTable> table;
  bool resolved = false;
  std::vector<VmSpec> hosted;  // spec copies: degraded rungs only
  std::size_t scanned = 0;
  std::size_t confirms = 0;
  std::optional<PmId> found;
  for (std::size_t j = 0; j < placement.n_pms() && !found; ++j) {
    const PmId pm{j};
    if (!pm_up[j] || placement.count_on(pm) + 1 > d) continue;
    ++scanned;
    const Resource cap = inst_->pms[j].capacity;
    bool first_decision = false;
    if (!resolved) {
      resolved = true;
      table = ladder_.rung_one_table(rounded);
      first_decision = true;
    }
    if (table) {
      if (bound) {
        // Conservative reject from the cached aggregates: the block is
        // exact (a max), only the Rb sum carries noise.
        const Resource block = std::max(cand.re, placement.re_max_on(pm));
        const Resource footprint =
            block * static_cast<double>(
                        table->blocks(placement.count_on(pm) + 1)) +
            cand.rb + placement.rb_sum_on(pm);
        const Resource limit = cap * (1.0 + kCapacityEpsilon);
        if (footprint - limit >
            kCachedSumMargin * (std::abs(footprint) + std::abs(limit) + 1.0))
          continue;
      }
      ++confirms;
      if (fits_with_reservation_walk(*inst_, placement, cand, pm, *table))
        found = pm;
      continue;
    }
    // Solver outage on a cold cache: the per-candidate ladder, which may
    // decide each PM on a different rung.  The first decision's rung 1
    // has already failed above, so it continues from rung 2.
    hosted.clear();
    for (std::size_t i : placement.vms_on(pm)) hosted.push_back(inst_->vms[i]);
    const bool ok =
        first_decision
            ? ladder_.admits_below_table(hosted, cand, cap, rounded)
            : ladder_.admits(hosted, cand, cap, rounded);
    if (ok) found = pm;
  }
  BURSTQ_COUNT("fault.target.searches", 1);
  BURSTQ_COUNT("fault.target.scanned", scanned);
  BURSTQ_COUNT("fault.target.confirms", confirms);
  return found;
}

void RecoveryController::enqueue(std::size_t vm, std::size_t slot) {
  QueuedVm q;
  q.vm = vm;
  q.reason = QueueReason::kNoFeasiblePm;
  q.retries = 0;
  q.next_attempt = slot + backoff_delay(policy_, 0);
  queue_.push_back(q);
  ++enqueued_total_;
  BURSTQ_COUNT("fault.queue.enqueued", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.enqueue",
               {"t", slot}, {"vm", vm}, {"reason", "no-feasible-pm"});
}

std::size_t RecoveryController::evacuate(Placement& placement, PmId crashed,
                                         std::span<const std::uint8_t> pm_up,
                                         const OnOffParams& rounded,
                                         std::size_t slot) {
  BURSTQ_REQUIRE(!pm_up[crashed.value],
                 "evacuate expects the crashed PM to be marked down");
  // Copy the hosted list: unassign mutates it.
  const std::vector<std::size_t> victims = placement.vms_on(crashed);
  std::size_t rehomed = 0;
  for (std::size_t vm : victims) {
    placement.unassign(VmId{vm});
    if (const auto target = find_target(placement, vm, pm_up, rounded)) {
      placement.assign(VmId{vm}, *target);
      ++rehomed;
      BURSTQ_COUNT("fault.evacuations", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.evacuate",
                   {"t", slot}, {"vm", vm}, {"from", crashed.value},
                   {"to", target->value});
    } else {
      enqueue(vm, slot);
    }
  }
  return rehomed;
}

std::size_t RecoveryController::drain(Placement& placement,
                                      std::span<const std::uint8_t> pm_up,
                                      const OnOffParams& rounded,
                                      std::size_t slot) {
  std::size_t admitted = 0;
  for (auto& q : queue_) {
    if (q.next_attempt > slot) continue;
    // Every attempt past the initial evacuation-time one is a retry —
    // counted separately from first-attempt migrations.
    ++q.retries;
    ++retries_total_;
    BURSTQ_COUNT("migration.retries", 1);
    if (const auto target = find_target(placement, q.vm, pm_up, rounded)) {
      placement.assign(VmId{q.vm}, *target);
      ++admitted;
      BURSTQ_COUNT("fault.queue.drained", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.admit",
                   {"t", slot}, {"vm", q.vm}, {"pm", target->value},
                   {"retries", q.retries});
      q.vm = static_cast<std::size_t>(-1);  // mark admitted; erased below
    } else {
      q.reason = QueueReason::kRetryBackoff;
      q.next_attempt = slot + backoff_delay(policy_, q.retries);
    }
  }
  std::erase_if(queue_, [](const QueuedVm& q) {
    return q.vm == static_cast<std::size_t>(-1);
  });
  return admitted;
}

bool RecoveryController::invariant_holds(const Placement& placement,
                                         std::span<const std::uint8_t> pm_up) const {
  for (std::size_t i = 0; i < placement.n_vms(); ++i) {
    const PmId pm = placement.pm_of(VmId{i});
    const bool queued =
        std::any_of(queue_.begin(), queue_.end(),
                    [i](const QueuedVm& q) { return q.vm == i; });
    if (pm.valid()) {
      if (queued || !pm_up[pm.value]) return false;
    } else if (!queued) {
      return false;
    }
  }
  return true;
}

}  // namespace burstq::fault

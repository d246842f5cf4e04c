#include "placement/online.h"

#include <cmath>

#include "common/error.h"
#include "obs/obs.h"
#include "placement/cluster.h"

namespace burstq {

OnlineConsolidator::OnlineConsolidator(std::vector<PmSpec> pms,
                                       QueuingFfdOptions options,
                                       OnOffParams initial_params)
    : options_(options),
      params_(initial_params),
      fleet_(std::move(pms),
             MapCalTable(options.max_vms_per_pm, initial_params, options.rho,
                         options.method),
             options.sharded.shards, options.sharded.decision_budget) {
  options_.validate();
}

void OnlineConsolidator::require_live(VmHandle h, const char* what) const {
  BURSTQ_REQUIRE(fleet_.live(h.slot), what);
}

std::optional<VmHandle> OnlineConsolidator::add_vm(const VmSpec& vm) {
  vm.validate();
  const auto slot = fleet_.admit(vm);
  if (!slot) return std::nullopt;
  return VmHandle{*slot};
}

std::vector<std::optional<VmHandle>> OnlineConsolidator::add_batch(
    const std::vector<VmSpec>& batch) {
  std::vector<std::optional<VmHandle>> handles(batch.size());
  if (batch.empty()) return handles;
  for (const auto& v : batch) v.validate();

  // "When a batch of new VMs arrives, we use the same scheme as
  // Algorithm 2": cluster-by-Re visit order over the batch.
  const std::vector<std::size_t> order =
      queuing_ffd_order(batch, options_.cluster_buckets);
  for (std::size_t idx : order)
    if (const auto slot = fleet_.admit(batch[idx]))
      handles[idx] = VmHandle{*slot};
  return handles;
}

void OnlineConsolidator::remove_vm(VmHandle h) {
  require_live(h, "remove_vm on an invalid or dead handle");
  // The queue size on the PM is implicitly "recalculated": reservation is
  // a pure function of the remaining hosted set, which just shrank, so the
  // invariant can only get slacker.
  fleet_.release(h.slot);
}

bool OnlineConsolidator::resize_vm(VmHandle h, const VmSpec& new_spec) {
  require_live(h, "resize_vm on an invalid or dead handle");
  new_spec.validate();
  // Three call sites on purpose: BURSTQ_COUNT caches the counter per line.
  switch (fleet_.resize(h.slot, new_spec)) {
    case FleetState::ResizeOutcome::kInPlace:
      BURSTQ_COUNT("online.resize.inplace", 1);
      return true;
    case FleetState::ResizeOutcome::kMoved:
      BURSTQ_COUNT("online.resize.moved", 1);
      return true;
    case FleetState::ResizeOutcome::kRejected:
      break;
  }
  BURSTQ_COUNT("online.resize.rejected", 1);
  return false;
}

std::size_t OnlineConsolidator::recalibrate(double tolerance) {
  if (fleet_.live_count() == 0) return 0;

  std::vector<VmSpec> live;
  live.reserve(fleet_.live_count());
  for (const auto& s : fleet_.slots())
    if (s.live) live.push_back(s.spec);

  const OnOffParams fresh = round_uniform_params(live, options_.rounding);
  if (std::abs(fresh.p_on - params_.p_on) <= tolerance &&
      std::abs(fresh.p_off - params_.p_off) <= tolerance)
    return 0;

  params_ = fresh;
  fleet_.set_table(MapCalTable(options_.max_vms_per_pm, params_,
                               options_.rho, options_.method));

  // Repair pass: a burstier population can make existing PMs violate
  // Eq. (17) under the new table.  Evict newest-first (cheapest to move in
  // an incremental system) and re-place via first-fit.
  std::size_t migrations = 0;
  for (std::size_t j = 0; j < fleet_.n_pms(); ++j) {
    const PmId pm{j};
    while (!fleet_.pm_satisfies_reservation(pm)) {
      const std::size_t victim = fleet_.hosted(pm).back();
      const VmSpec spec = fleet_.slot(victim).spec;
      fleet_.release(victim);
      // Re-admit elsewhere; count as one migration either way (if nowhere
      // fits the VM is dropped, which callers can detect via vms_hosted()).
      ++migrations;
      add_vm(spec);
    }
  }
  return migrations;
}

PmId OnlineConsolidator::pm_of(VmHandle h) const {
  require_live(h, "pm_of on an invalid or dead handle");
  return fleet_.slot(h.slot).pm;
}

const VmSpec& OnlineConsolidator::spec_of(VmHandle h) const {
  require_live(h, "spec_of on an invalid or dead handle");
  return fleet_.slot(h.slot).spec;
}

std::size_t OnlineConsolidator::count_on(PmId pm) const {
  BURSTQ_REQUIRE(pm.value < fleet_.n_pms(), "PM index out of range");
  return fleet_.hosted(pm).size();
}

}  // namespace burstq

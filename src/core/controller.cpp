#include "core/controller.h"

#include <algorithm>

#include "common/error.h"
#include "durable/state_codec.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "placement/budget.h"
#include "placement/placement.h"
#include "sim/tracker_codec.h"

namespace burstq {

void ControllerConfig::validate() const {
  ffd.validate();
  policy.validate();
  power.validate();
  recovery.validate();
  BURSTQ_REQUIRE(sigma_seconds > 0.0, "slot length must be positive");
}

CloudController::CloudController(std::vector<PmSpec> pms,
                                 ControllerConfig config, Rng rng)
    : fleet_(std::move(pms),
             MapCalTable(config.ffd.max_vms_per_pm, OnOffParams{},
                         config.ffd.rho, config.ffd.method),
             config.ffd.sharded.shards, config.ffd.sharded.decision_budget),
      config_(config),
      rng_(rng),
      tracker_(fleet_.n_pms(), config.policy.cvr_window),
      meter_(config.power, config.sigma_seconds) {
  config_.validate();
  BURSTQ_REQUIRE(config_.slo == nullptr ||
                     config_.slo->n_pms() == fleet_.n_pms(),
                 "SLO tracker PM count must match the fleet");
}

void CloudController::require_live(TenantId id, const char* what) const {
  BURSTQ_REQUIRE(tenant_live(id), what);
}

std::optional<PmId> CloudController::rehome(std::size_t slot) {
  const auto target = fleet_.route(fleet_.slot(slot).spec, 0);
  if (target) fleet_.attach(slot, *target);
  return target;
}

std::optional<TenantId> CloudController::admit(const VmSpec& vm) {
  vm.validate();
  const auto slot = fleet_.admit(vm);
  if (!slot) {
    ++stats_.rejections;
    return std::nullopt;
  }
  OnOffChain chain(vm.onoff);
  chain.reset_stationary(rng_);
  if (*slot == chains_.size())
    chains_.push_back(chain);
  else
    chains_[*slot] = chain;
  ++stats_.admissions;
  ++stats_.vms_hosted;
  return TenantId{*slot};
}

void CloudController::depart(TenantId id) {
  require_live(id, "depart on an invalid or dead tenant");
  if (!fleet_.slot(id.slot).pm.valid()) {
    // Parked in the post-crash admission queue; departing just removes it.
    const auto it = std::find_if(
        queue_.begin(), queue_.end(),
        [&](const QueuedTenant& q) { return q.slot == id.slot; });
    BURSTQ_ASSERT(it != queue_.end(), "unplaced tenant missing from queue");
    queue_.erase(it);
  }
  fleet_.release(id.slot);
  ++stats_.departures;
  --stats_.vms_hosted;
}

bool CloudController::resize(TenantId id, const VmSpec& new_spec) {
  require_live(id, "resize on an invalid or dead tenant");
  new_spec.validate();
  const VmSpec& old_spec = fleet_.slot(id.slot).spec;
  const bool chain_restart = !(old_spec.onoff.p_on == new_spec.onoff.p_on &&
                               old_spec.onoff.p_off == new_spec.onoff.p_off);
  const PmId from = fleet_.slot(id.slot).pm;

  if (!from.valid()) {
    // Parked in the post-crash queue: just swap the spec; the queue drain
    // re-places it under the new size.
    fleet_.set_spec(id.slot, new_spec);
  } else {
    // In place when Eq. (17) still holds; else routed with the current
    // PM's shard as home (locality-preserving and deterministic).
    switch (fleet_.resize(id.slot, new_spec)) {
      case FleetState::ResizeOutcome::kInPlace:
        break;
      case FleetState::ResizeOutcome::kRejected:
        ++stats_.resize_rejections;
        BURSTQ_COUNT("controller.resize.rejected", 1);
        return false;
      case FleetState::ResizeOutcome::kMoved:
        ++stats_.resize_migrations;
        BURSTQ_COUNT("controller.resize.moved", 1);
        BURSTQ_EVENT(obs::EventLevel::kDecisions, "resize.migrate",
                     {"t", stats_.slots}, {"tenant", id.slot},
                     {"from", from.value},
                     {"to", fleet_.slot(id.slot).pm.value});
        break;
    }
  }

  if (chain_restart) {
    chains_[id.slot] = OnOffChain(new_spec.onoff);
    chains_[id.slot].reset_stationary(rng_);
  }
  ++stats_.resizes;
  BURSTQ_COUNT("controller.resizes", 1);
  return true;
}

void CloudController::inject_pm_crash(PmId pm) {
  BURSTQ_REQUIRE(pm.valid() && pm.value < fleet_.n_pms(),
                 "inject_pm_crash on an out-of-range PM");
  if (!fleet_.up(pm)) return;
  // Evacuate: the crashed PM's list is detached up front so routing never
  // counts the dead host's tenants against anything.
  const std::vector<std::size_t> victims = fleet_.take_down(pm);
  ++stats_.pm_crashes;
  BURSTQ_COUNT("fault.pm.crashes", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.pm.crash",
               {"t", stats_.slots}, {"pm", pm.value});

  for (std::size_t s : victims) {
    if (const auto target = rehome(s)) {
      ++stats_.evacuations;
      BURSTQ_COUNT("fault.evacuations", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.evacuate",
                   {"t", stats_.slots}, {"tenant", s}, {"from", pm.value},
                   {"to", target->value});
    } else {
      queue_.push_back(QueuedTenant{
          s, 0, stats_.slots + fault::backoff_delay(config_.recovery, 0)});
      ++stats_.evac_queued;
      BURSTQ_COUNT("fault.queue.enqueued", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.enqueue",
                   {"t", stats_.slots}, {"tenant", s},
                   {"reason", "no-feasible-pm"});
    }
  }
}

void CloudController::inject_pm_recover(PmId pm) {
  BURSTQ_REQUIRE(pm.valid() && pm.value < fleet_.n_pms(),
                 "inject_pm_recover on an out-of-range PM");
  if (fleet_.up(pm)) return;
  fleet_.bring_up(pm);
  ++stats_.pm_recoveries;
  BURSTQ_COUNT("fault.pm.recoveries", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.pm.recover",
               {"t", stats_.slots}, {"pm", pm.value});
}

void CloudController::drain_queue() {
  for (auto& q : queue_) {
    if (q.next_attempt > stats_.slots) continue;
    ++q.retries;
    ++stats_.retries;
    BURSTQ_COUNT("migration.retries", 1);
    if (const auto target = rehome(q.slot)) {
      BURSTQ_COUNT("fault.queue.drained", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.queue.admit",
                   {"t", stats_.slots}, {"tenant", q.slot},
                   {"pm", target->value}, {"retries", q.retries});
      q.slot = static_cast<std::size_t>(-1);  // admitted; erased below
    } else {
      q.next_attempt =
          stats_.slots + fault::backoff_delay(config_.recovery, q.retries);
    }
  }
  std::erase_if(queue_, [](const QueuedTenant& q) {
    return q.slot == static_cast<std::size_t>(-1);
  });
}

void CloudController::run_scheduler(std::vector<Resource>& load) {
  for (std::size_t j = 0; j < fleet_.n_pms(); ++j) {
    const PmId source{j};
    const auto hosted = fleet_.hosted(source);
    if (hosted.empty()) continue;
    if (tracker_.windowed_cvr(source) <= config_.policy.rho) continue;

    // Victim: the spiking tenant with the largest demand, falling back
    // to the largest-demand tenant overall (same rule as select_victim).
    std::size_t best_on = 0;
    double best_on_demand = -1.0;
    std::size_t best_any = hosted.front();
    double best_any_demand = -1.0;
    for (std::size_t s : hosted) {
      const double d = fleet_.slot(s).spec.demand(chains_[s].state());
      if (chains_[s].on() && d > best_on_demand) {
        best_on_demand = d;
        best_on = s;
      }
      if (d > best_any_demand) {
        best_any_demand = d;
        best_any = s;
      }
    }
    const std::size_t victim = best_on_demand >= 0.0 ? best_on : best_any;
    const VmSpec& spec = fleet_.slot(victim).spec;
    const double vdemand = spec.demand(chains_[victim].state());

    // Target: reservation-aware by default in the controller — this is
    // the burstiness-aware component an operator deploys.  Routed through
    // the shard index like an arrival, skipping the violating source.
    if (const auto target = fleet_.route(spec, 0, source)) {
      fleet_.move(victim, *target);
      load[j] -= vdemand;
      load[target->value] += vdemand;
      ++stats_.runtime_migrations;
      tracker_.reset_window(source);
      tracker_.reset_window(*target);
    } else {
      ++stats_.failed_migrations;
      tracker_.reset_window(source);
    }
  }
}

void CloudController::run_maintenance() {
  ++stats_.maintenance_windows;
  if (stats_.vms_hosted == 0) return;

  // Recalibrate the mapping table to the current population (IV-E).
  std::vector<VmSpec> live;
  std::vector<std::size_t> slot_of;  // compact index -> tenant slot
  live.reserve(stats_.vms_hosted);
  for (std::size_t s = 0; s < fleet_.slots().size(); ++s) {
    if (!fleet_.live(s)) continue;
    live.push_back(fleet_.slot(s).spec);
    slot_of.push_back(s);
  }
  const OnOffParams rounded =
      round_uniform_params(live, config_.ffd.rounding);
  try {
    fleet_.set_table(MapCalTable(config_.ffd.max_vms_per_pm, rounded,
                                 config_.ffd.rho, config_.ffd.method));
    table_params_ = rounded;
  } catch (const SolverUnavailable&) {
    // Solver outage mid-maintenance: keep consolidating with the previous
    // (stale but sound) table rather than aborting the window.
    ++stats_.degraded_maintenance;
    BURSTQ_COUNT("fault.solver.degraded", 1);
    BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.solver.degrade",
                 {"t", stats_.slots}, {"level", "stale-table"});
  }

  // Compact instance + placement view for the budget consolidator.
  ProblemInstance inst;
  inst.vms = live;
  inst.pms = fleet_.pms();
  Placement view(live.size(), fleet_.n_pms());
  for (std::size_t i = 0; i < live.size(); ++i)
    view.assign(VmId{i}, fleet_.slot(slot_of[i]).pm);

  const auto result = consolidate_with_budget(
      inst, view, fleet_.table(), config_.maintenance_budget);

  // Apply the executed moves back to the live fleet.
  for (const auto& move : result.moves) {
    fleet_.move(slot_of[move.vm.value], move.to);
    ++stats_.maintenance_migrations;
  }
}

void CloudController::tick() {
  ++stats_.slots;
  const std::vector<PmSpec>& pms = fleet_.pms();

  // 1. Workload evolution + demands.
  std::vector<Resource> load(pms.size(), 0.0);
  for (std::size_t j = 0; j < pms.size(); ++j) {
    for (std::size_t s : fleet_.hosted(PmId{j})) {
      chains_[s].step(rng_);
      load[j] += fleet_.slot(s).spec.demand(chains_[s].state());
    }
  }

  // 2. Violation bookkeeping.
  for (std::size_t j = 0; j < pms.size(); ++j) {
    if (fleet_.hosted(PmId{j}).empty()) continue;
    const bool violated =
        load[j] > pms[j].capacity * (1.0 + kCapacityEpsilon);
    tracker_.record(PmId{j}, violated);
    if (config_.slo != nullptr) config_.slo->record(PmId{j}, violated);
  }
  if (config_.slo != nullptr) config_.slo->end_slot();

  // 3. Dynamic scheduling.
  run_scheduler(load);

  // 3b. Crash victims whose backoff expired retry placement.
  if (!queue_.empty()) drain_queue();

  // 4. Energy.
  for (std::size_t j = 0; j < pms.size(); ++j) {
    if (fleet_.hosted(PmId{j}).empty()) continue;
    meter_.add_pm_slot(load[j] / pms[j].capacity);
  }

  // 5. Maintenance window — deferred while the fleet is degraded (a down
  // PM or queued tenants): consolidation would fight the recovery path
  // and the compact placement view below requires every tenant placed.
  if (config_.maintenance_every > 0 && queue_.empty() && !fleet_.any_down() &&
      stats_.slots % config_.maintenance_every == 0)
    run_maintenance();

  stats_.pms_used = pms_used();
  stats_.mean_cvr = tracker_.mean_cvr();
  stats_.max_cvr = tracker_.max_cvr();
  stats_.energy_wh = meter_.watt_hours();
}

PmId CloudController::pm_of(TenantId id) const {
  require_live(id, "pm_of on an invalid or dead tenant");
  return fleet_.slot(id.slot).pm;
}

const VmSpec& CloudController::spec_of(TenantId id) const {
  require_live(id, "spec_of on an invalid or dead tenant");
  return fleet_.slot(id.slot).spec;
}

bool CloudController::reservation_invariant_holds() const {
  if (!fleet_.invariant_holds()) return false;
  // Recovery invariant: every live tenant is placed (on an up PM, which
  // the fleet checks) or queued.
  for (std::size_t s = 0; s < fleet_.slots().size(); ++s) {
    if (!fleet_.live(s) || fleet_.slot(s).pm.valid()) continue;
    if (std::none_of(queue_.begin(), queue_.end(),
                     [s](const QueuedTenant& q) { return q.slot == s; }))
      return false;
  }
  return true;
}

namespace {

/// Digest of the construction arguments the blob does NOT carry: a
/// restore into a differently-configured controller must fail loudly,
/// not deserialize garbage.
std::uint32_t controller_config_crc(const std::vector<PmSpec>& pms,
                                    const ControllerConfig& config) {
  durable::StateWriter cfg;
  cfg.varint(pms.size());
  for (const PmSpec& p : pms) cfg.f64(p.capacity);
  cfg.varint(config.ffd.max_vms_per_pm);
  cfg.f64(config.ffd.rho);
  cfg.varint(config.ffd.sharded.shards);
  cfg.varint(config.policy.cvr_window);
  cfg.varint(config.maintenance_every);
  cfg.boolean(config.slo != nullptr);
  return obs::trace_detail::crc32(cfg.data());
}

}  // namespace

std::string CloudController::export_state() const {
  durable::StateWriter w;
  w.u64(1);  // blob version
  w.u32(controller_config_crc(fleet_.pms(), config_));

  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.f64(table_params_.p_on);
  w.f64(table_params_.p_off);

  const auto& slots = fleet_.slots();
  w.varint(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const FleetState::Slot& t = slots[s];
    w.boolean(t.live);
    if (!t.live) continue;  // the slot is on the free list
    w.f64(t.spec.onoff.p_on);
    w.f64(t.spec.onoff.p_off);
    w.f64(t.spec.rb);
    w.f64(t.spec.re);
    w.u8(static_cast<std::uint8_t>(chains_[s].state()));
    w.varint(t.pm.valid() ? t.pm.value + 1 : 0);
  }
  w.size_vec(fleet_.free_slots());
  w.varint(fleet_.n_pms());
  for (std::size_t j = 0; j < fleet_.n_pms(); ++j) {
    const auto hosted = fleet_.hosted(PmId{j});
    w.varint(hosted.size());
    for (const std::size_t x : hosted) w.varint(x);
  }
  w.varint(fleet_.n_pms());
  for (const std::uint8_t b : fleet_.up_mask()) w.u8(b);
  w.varint(fleet_.route_seq());

  w.varint(queue_.size());
  for (const QueuedTenant& q : queue_) {
    w.varint(q.slot);
    w.varint(q.retries);
    w.varint(q.next_attempt);
  }

  write_cvr_tracker(w, tracker_);
  w.f64(meter_.joules());

  w.varint(stats_.slots);
  w.varint(stats_.vms_hosted);
  w.varint(stats_.pms_used);
  w.varint(stats_.admissions);
  w.varint(stats_.rejections);
  w.varint(stats_.departures);
  w.varint(stats_.resizes);
  w.varint(stats_.resize_migrations);
  w.varint(stats_.resize_rejections);
  w.varint(stats_.runtime_migrations);
  w.varint(stats_.maintenance_migrations);
  w.varint(stats_.failed_migrations);
  w.varint(stats_.maintenance_windows);
  w.varint(stats_.pm_crashes);
  w.varint(stats_.pm_recoveries);
  w.varint(stats_.evacuations);
  w.varint(stats_.evac_queued);
  w.varint(stats_.retries);
  w.varint(stats_.degraded_maintenance);
  w.f64(stats_.mean_cvr);
  w.f64(stats_.max_cvr);
  w.f64(stats_.energy_wh);

  write_slo_tracker(w, config_.slo);

  return w.take();
}

void CloudController::import_state(std::string_view blob) {
  durable::StateReader r(blob, "controller state");
  if (r.u64() != 1) r.fail("unsupported controller state version");
  if (r.u32() != controller_config_crc(fleet_.pms(), config_))
    r.fail("construction arguments do not match the stored state");

  std::array<std::uint64_t, 4> rs{};
  for (std::uint64_t& s : rs) s = r.u64();
  rng_.set_state(rs);
  table_params_.p_on = r.f64();
  table_params_.p_off = r.f64();
  fleet_.set_table(MapCalTable(config_.ffd.max_vms_per_pm, table_params_,
                               config_.ffd.rho, config_.ffd.method));

  std::vector<FleetState::Slot> slots(r.varint());
  chains_.assign(slots.size(), OnOffChain(OnOffParams{}));
  for (std::size_t s = 0; s < slots.size(); ++s) {
    FleetState::Slot& t = slots[s];
    t.live = r.boolean();
    if (!t.live) continue;
    t.spec.onoff.p_on = r.f64();
    t.spec.onoff.p_off = r.f64();
    t.spec.rb = r.f64();
    t.spec.re = r.f64();
    chains_[s] = OnOffChain(t.spec.onoff, static_cast<VmState>(r.u8()));
    const std::size_t pm = r.varint();
    t.pm = pm == 0 ? PmId{} : PmId{pm - 1};
  }
  std::vector<std::size_t> free_slots = r.size_vec();
  std::vector<std::vector<std::size_t>> hosted(r.varint());
  if (hosted.size() != fleet_.n_pms()) r.fail("PM list count mismatch");
  for (auto& list : hosted) list = r.size_vec();
  std::vector<std::uint8_t> up(r.varint());
  if (up.size() != fleet_.n_pms()) r.fail("PM liveness count mismatch");
  for (std::uint8_t& b : up) b = r.u8();
  // Derived structures are rebuilt, never deserialized: the shard index
  // and per-PM admissibility keys follow from the restored hosted sets
  // and liveness exactly as in the constructor.
  fleet_.restore(std::move(slots), std::move(free_slots), std::move(hosted),
                 std::move(up), r.varint());

  queue_.assign(r.varint(), QueuedTenant{});
  for (QueuedTenant& q : queue_) {
    q.slot = r.varint();
    q.retries = r.varint();
    q.next_attempt = r.varint();
  }

  read_cvr_tracker(r, tracker_);
  meter_.restore_joules(r.f64());

  stats_.slots = r.varint();
  stats_.vms_hosted = r.varint();
  stats_.pms_used = r.varint();
  stats_.admissions = r.varint();
  stats_.rejections = r.varint();
  stats_.departures = r.varint();
  stats_.resizes = r.varint();
  stats_.resize_migrations = r.varint();
  stats_.resize_rejections = r.varint();
  stats_.runtime_migrations = r.varint();
  stats_.maintenance_migrations = r.varint();
  stats_.failed_migrations = r.varint();
  stats_.maintenance_windows = r.varint();
  stats_.pm_crashes = r.varint();
  stats_.pm_recoveries = r.varint();
  stats_.evacuations = r.varint();
  stats_.evac_queued = r.varint();
  stats_.retries = r.varint();
  stats_.degraded_maintenance = r.varint();
  stats_.mean_cvr = r.f64();
  stats_.max_cvr = r.f64();
  stats_.energy_wh = r.f64();

  read_slo_tracker(r, config_.slo);
  r.expect_done();
}

}  // namespace burstq

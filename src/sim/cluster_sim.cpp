#include "sim/cluster_sim.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "durable/state_codec.h"
#include "obs/event_log.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "placement/queuing_ffd.h"
#include "sim/flight.h"
#include "sim/tracker_codec.h"

namespace burstq {

void SimConfig::validate() const {
  BURSTQ_REQUIRE(slots > 0, "simulation needs at least one slot");
  BURSTQ_REQUIRE(sigma_seconds > 0.0, "slot length must be positive");
  BURSTQ_REQUIRE(users_per_unit > 0.0, "users_per_unit must be positive");
  policy.validate();
  power.validate();
  if (faults) faults->validate(fault::kNoPm, slots);
  recovery.validate();
  if (durability) durability->validate();
  BURSTQ_REQUIRE(!faults || !faults->has_kills() || durability.has_value(),
                 "the fault plan schedules kills but SimConfig::durability "
                 "is not set — a killed run without snapshots cannot be "
                 "restored");
  for (std::size_t i = 0; i < workload_phases.size(); ++i) {
    workload_phases[i].validate();
    BURSTQ_REQUIRE(workload_phases[i].slot < slots,
                   "workload phase at slot " +
                       std::to_string(workload_phases[i].slot) +
                       " is outside the horizon (slots=" +
                       std::to_string(slots) + ")");
    BURSTQ_REQUIRE(
        i == 0 || workload_phases[i - 1].slot < workload_phases[i].slot,
        "workload phases must have strictly ascending slots");
  }
}

ClusterSimulator::ClusterSimulator(const ProblemInstance& inst,
                                   const Placement& initial,
                                   SimConfig config, Rng rng)
    : inst_(&inst),
      placement_(initial),
      config_(config),
      rng_(rng),
      ensemble_(inst, rng_.split(), config.start_stationary),
      demand_cache_(inst.n_vms(), 0.0) {
  inst.validate();
  config_.validate();
  BURSTQ_REQUIRE(initial.vms_assigned() == inst.n_vms(),
                 "initial placement must assign every VM");
  BURSTQ_REQUIRE(initial.n_pms() == inst.n_pms(),
                 "placement PM count must match the instance");
  BURSTQ_REQUIRE(config_.slo == nullptr ||
                     config_.slo->n_pms() == inst.n_pms(),
                 "SLO tracker PM count must match the instance");

  if (config_.policy.target == TargetSelection::kReservationAware) {
    // The burstiness-aware scheduler judges targets by Eq. (17); size the
    // table so even baseline placements that overshoot d can be checked.
    std::size_t max_k = config_.policy.max_vms_per_pm;
    for (std::size_t j = 0; j < inst.n_pms(); ++j)
      max_k = std::max(max_k, initial.count_on(PmId{j}) + 1);
    reservation_table_.emplace(max_k, round_uniform_params(inst.vms),
                               config_.policy.rho);
  }

  if (config_.faults && config_.faults->any()) {
    injector_.emplace(*config_.faults, inst.n_pms());
    rounded_ = round_uniform_params(inst.vms);
    recovery_.emplace(inst, config_.recovery, config_.policy.max_vms_per_pm,
                      config_.policy.rho, StationaryMethod::kGaussian);
    aborted_once_.assign(inst.n_vms(), false);
  }

  if (config_.webserver_workload) {
    web_.reserve(inst.n_vms());
    for (const auto& v : inst.vms) {
      WebServerParams wp;
      wp.sigma_seconds = config_.sigma_seconds;
      wp.users_per_unit = config_.users_per_unit;
      const double nu = std::max(1.0, std::round(v.rb * wp.users_per_unit));
      const double pu = std::max(nu, std::round(v.rp() * wp.users_per_unit));
      wp.normal_users = static_cast<std::size_t>(nu);
      wp.peak_users = static_cast<std::size_t>(pu);
      web_.emplace_back(wp);
    }
  }

  tracker_.emplace(inst.n_pms(), config_.policy.cvr_window);
  meter_.emplace(config_.power, config_.sigma_seconds);
  if (config_.durability) {
    store_.emplace(config_.durability->dir, config_.durability->fsync);
    history_.reserve(config_.slots);
  }
  // Last: its sim.config event must be the final ctor-time emission so a
  // restore's log rewind lands right past it.
  recorder_.emplace("cluster_sim", inst.n_pms(), config_.slots,
                    config_.policy.cvr_window, config_.policy.rho);
}

void ClusterSimulator::apply_faults(const fault::SlotFaults& sf,
                                    std::size_t t, SimReport& report) {
  const std::span<const std::uint8_t> up(injector_->up_mask());

  // Stalls: every live copy takes longer.
  if (sf.stall_slots > 0 && !in_flight_.empty()) {
    for (auto& f : in_flight_) f.remaining += sf.stall_slots;
    report.faults.migration_stalls += in_flight_.size();
    durable::StateWriter rec;
    rec.varint(sf.stall_slots);
    rec.varint(in_flight_.size());
    journal(durable::WalRecord::kStall, rec.take());
    BURSTQ_COUNT("fault.migration.stalls", in_flight_.size());
    BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.migration.stall",
                 {"t", t}, {"copies", in_flight_.size()},
                 {"extra", sf.stall_slots});
  }

  // PM crashes: in-flight copies touching the dead PM die with it, then
  // hosted VMs evacuate through the reservation ladder (or queue).
  for (std::size_t j : sf.crashes) {
    ++report.faults.pm_crashes;
    std::erase_if(in_flight_, [&](const InFlight& f) {
      if (f.source_pm == j) return true;  // copy source gone; move is final
      if (placement_.pm_of(VmId{f.vm}) == PmId{j}) {
        // Target died mid-copy: the copy is void; the VM is evacuated
        // below along with everything else hosted on j.
        aborted_once_[f.vm] = true;
        ++report.faults.migration_aborts;
        durable::StateWriter rec;
        rec.varint(f.vm);
        journal(durable::WalRecord::kAbort, rec.take());
        BURSTQ_COUNT("fault.migration.aborts", 1);
        BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.migration.abort",
                     {"t", t}, {"vm", f.vm}, {"reason", "target-crash"});
        return true;
      }
      return false;
    });
    const std::size_t evacuated =
        recovery_->evacuate(placement_, PmId{j}, up, rounded_, t);
    report.faults.evacuated += evacuated;
    durable::StateWriter rec;
    rec.varint(j);
    rec.varint(evacuated);
    journal(durable::WalRecord::kCrash, rec.take());
  }
  report.faults.pm_recoveries += sf.recoveries.size();
  for (std::size_t j : sf.recoveries) {
    durable::StateWriter rec;
    rec.varint(j);
    journal(durable::WalRecord::kRecover, rec.take());
  }

  // Scripted / Markov migration aborts: the VM rolls back to its source
  // (which is up — copies from a crashed source were dropped above and at
  // every earlier crash).
  std::erase_if(in_flight_, [&](const InFlight& f) {
    const bool abort =
        sf.abort_migrations || injector_->draw_migration_abort();
    if (!abort) return false;
    placement_.unassign(VmId{f.vm});
    placement_.assign(VmId{f.vm}, PmId{f.source_pm});
    aborted_once_[f.vm] = true;
    ++report.faults.migration_aborts;
    durable::StateWriter rec;
    rec.varint(f.vm);
    journal(durable::WalRecord::kAbort, rec.take());
    BURSTQ_COUNT("fault.migration.aborts", 1);
    BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.migration.abort",
                 {"t", t}, {"vm", f.vm}, {"to", f.source_pm},
                 {"reason", sf.abort_migrations ? "scripted" : "markov"});
    return true;
  });

  // Queued VMs whose backoff expired get another attempt; capacity may
  // have returned via the recoveries above or load churn.
  if (!recovery_->queue().empty())
    recovery_->drain(placement_, up, rounded_, t);

  if (!recovery_->queue().empty()) {
    durable::StateWriter rec;
    rec.varint(recovery_->queue().size());
    rec.varint(recovery_->enqueued_total());
    journal(durable::WalRecord::kQueue, rec.take());
  }

  BURSTQ_ASSERT(recovery_->invariant_holds(placement_, up),
                "recovery invariant violated: a VM is neither hosted on an "
                "up PM nor queued");
}

void ClusterSimulator::compute_loads(std::vector<Resource>& load,
                                     std::vector<Resource>& demand) const {
  std::fill(load.begin(), load.end(), 0.0);
  for (std::size_t j = 0; j < inst_->n_pms(); ++j)
    for (std::size_t i : placement_.vms_on(PmId{j})) load[j] += demand[i];
  // Mid-migration VMs still burden their source (live-migration copy
  // traffic and the "noticeable CPU usage on the host PM" the paper cites).
  for (const auto& mig : in_flight_) load[mig.source_pm] += demand[mig.vm];
}

SimReport ClusterSimulator::run() {
  BURSTQ_SPAN("sim.run");
  BURSTQ_REQUIRE(!ran_, "ClusterSimulator::run() may only be called once");
  ran_ = true;

  const std::size_t m = inst_->n_pms();
  CvrTracker& tracker = *tracker_;
  EnergyMeter& meter = *meter_;
  SimReport& report = report_;
  FlightSlotRecorder& recorder = *recorder_;
  if (start_slot_ == 0) {
    report.pms_used_timeline.reserve(config_.slots);
    report.migrations_per_slot.reserve(config_.slots);
  }

  std::vector<Resource> load(m, 0.0);
  std::vector<VmState> states(inst_->n_vms());
  std::vector<Resource> capacity(m);
  for (std::size_t j = 0; j < m; ++j) capacity[j] = inst_->pms[j].capacity;

  std::vector<std::size_t> obs_active;
  std::vector<std::size_t> obs_violated;
  // PMs a migration copy is leaving this slot (step 5); all zero between
  // slots.
  std::vector<std::uint8_t> copy_source(m, 0);

  // The harness observer needs the per-slot id lists even when no
  // detail-level trace sink is open; so do durable snapshots (the
  // observation history is part of the state).
  const bool observe = recorder.enabled() || config_.on_slot != nullptr ||
                       store_.has_value();

  for (std::size_t t = start_slot_; t < config_.slots; ++t) {
    BURSTQ_SPAN("sim.slot");
    maybe_checkpoint(t);
    // Workload timeline: a phase at slot t shapes the transitions *into*
    // slot t (applied before the step that produces slot t's states).
    while (next_phase_ < config_.workload_phases.size() &&
           config_.workload_phases[next_phase_].slot <= t) {
      ensemble_.apply_phase(config_.workload_phases[next_phase_]);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "workload.phase", {"t", t},
                   {"phase", next_phase_});
      ++next_phase_;
    }
    if (t > 0) ensemble_.step();

    // 1-2. demands and per-PM loads.
    for (std::size_t i = 0; i < inst_->n_vms(); ++i) {
      states[i] = ensemble_.state(i);
      if (!config_.webserver_workload) {
        demand_cache_[i] = inst_->vms[i].demand(states[i]);
      } else if (config_.webserver_exact) {
        demand_cache_[i] = web_[i].requests_to_demand(
            web_[i].sample_requests_exact(states[i], rng_));
      } else {
        demand_cache_[i] = web_[i].sample_demand(states[i], rng_);
      }
    }

    // Fault injection happens between demand sampling and load accounting
    // so this slot's loads already reflect evacuations and rollbacks.  The
    // solver-fault guard stays armed for the whole slot — the scheduler
    // below must degrade, not abort, while the outage lasts.
    std::optional<ScopedSolverFault> solver_guard;
    if (injector_) {
      const fault::SlotFaults sf = injector_->advance(t);
      // A kill fires before any slot-t mutation: the last committed WAL
      // group is slot t-1, so a restore replays exactly up to here.  The
      // exception is deliberately not a std::exception — nothing between
      // here and the restore loop may swallow it.
      if (sf.kill) throw durable::SimKilled{t};
      solver_guard.emplace(sf.solver_fault);
      apply_faults(sf, t, report);
    }

    compute_loads(load, demand_cache_);

    // 3. violation bookkeeping (only PMs that actually carry load state).
    std::size_t violations_this_slot = 0;
    if (observe) {
      obs_active.clear();
      obs_violated.clear();
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (placement_.count_on(PmId{j}) == 0) continue;
      const bool violated =
          load[j] > capacity[j] * (1.0 + kCapacityEpsilon);
      tracker.record(PmId{j}, violated);
      if (config_.slo != nullptr) config_.slo->record(PmId{j}, violated);
      if (violated) ++violations_this_slot;
      if (observe) {
        obs_active.push_back(j);
        if (violated) obs_violated.push_back(j);
      }
    }
    if (config_.slo != nullptr) config_.slo->end_slot();
    recorder.slot(t, obs_active, obs_violated);
    BURSTQ_COUNT("sim.slot_violations", violations_this_slot);

    // 4. dynamic scheduling: one eviction per PM per slot when the recent
    // CVR breaches rho.
    std::size_t migrations_this_slot = 0;
    const std::size_t failed_before = report.failed_migrations;
    if (config_.enable_migration) {
      for (std::size_t j = 0; j < m; ++j) {
        const PmId source{j};
        if (placement_.count_on(source) == 0) continue;
        if (tracker.windowed_cvr(source) <= config_.policy.rho) continue;

        const auto victim = select_victim_policy(
            config_.policy.victim, *inst_, placement_.vms_on(source),
            demand_cache_, states);
        BURSTQ_ASSERT(victim.has_value(), "non-empty PM had no victim");
        const Resource vdemand = demand_cache_[victim->value];

        const std::span<const std::uint8_t> up =
            injector_ ? std::span<const std::uint8_t>(injector_->up_mask())
                      : std::span<const std::uint8_t>{};
        std::optional<PmId> target;
        if (config_.policy.target == TargetSelection::kReservationAware) {
          for (std::size_t p = 0; p < m; ++p) {
            const PmId cand{p};
            if (cand == source) continue;
            if (!up.empty() && !up[p]) continue;
            if (fits_with_reservation(*inst_, placement_, *victim, cand,
                                      *reservation_table_)) {
              target = cand;
              break;
            }
          }
        } else {
          std::vector<std::size_t> counts(m);
          for (std::size_t p = 0; p < m; ++p)
            counts[p] = placement_.count_on(PmId{p});
          target = select_target(source, vdemand, load, capacity, counts,
                                 config_.policy.max_vms_per_pm, up);
        }

        if (target) {
          placement_.unassign(*victim);
          placement_.assign(*victim, *target);
          load[target->value] += vdemand;
          // Source keeps carrying the copy for cost_slots (>= 1) slots.
          in_flight_.push_back(
              InFlight{victim->value, j, config_.policy.cost_slots});
          report.events.push_back(MigrationEvent{
              static_cast<TimeSlot>(t), *victim, source, *target});
          ++migrations_this_slot;
          durable::StateWriter rec;
          rec.varint(victim->value);
          rec.varint(j);
          rec.varint(target->value);
          journal(durable::WalRecord::kMigrate, rec.take());
          BURSTQ_COUNT("sim.migrations", 1);
          if (!aborted_once_.empty() && aborted_once_[victim->value]) {
            // Re-moving a VM whose previous copy was rolled back by a
            // fault is a retry, not a fresh migration.
            aborted_once_[victim->value] = false;
            ++report.faults.retries;
            BURSTQ_COUNT("migration.retries", 1);
          }
          BURSTQ_EVENT(obs::EventLevel::kDecisions, "migration", {"t", t},
                       {"vm", victim->value}, {"from", j},
                       {"to", target->value}, {"ok", true});
          tracker.reset_window(source);
          tracker.reset_window(*target);
          BURSTQ_EVENT(obs::EventLevel::kDetail, "window.reset", {"t", t},
                       {"pm", j});
          BURSTQ_EVENT(obs::EventLevel::kDetail, "window.reset", {"t", t},
                       {"pm", target->value});
        } else {
          report.events.push_back(MigrationEvent{
              static_cast<TimeSlot>(t), *victim, source, PmId{}});
          ++report.failed_migrations;
          durable::StateWriter rec;
          rec.varint(victim->value);
          rec.varint(j);
          journal(durable::WalRecord::kMigrateFail, rec.take());
          BURSTQ_COUNT("sim.migrations_failed", 1);
          BURSTQ_EVENT(obs::EventLevel::kDecisions, "migration", {"t", t},
                       {"vm", victim->value}, {"from", j}, {"ok", false});
          // Cooldown: without a reset the trigger would re-fire every slot
          // even though the cluster has no room anywhere.
          tracker.reset_window(source);
          BURSTQ_EVENT(obs::EventLevel::kDetail, "window.reset", {"t", t},
                       {"pm", j});
        }
      }
    }

    // 5. usage + energy.  A PM is active while it hosts VMs or a copy
    // is still leaving it.
    for (const InFlight& f : in_flight_) copy_source[f.source_pm] = 1;
    std::size_t used = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (placement_.count_on(PmId{j}) == 0 && copy_source[j] == 0) continue;
      ++used;
      meter.add_pm_slot(load[j] / capacity[j]);
    }
    for (const InFlight& f : in_flight_) copy_source[f.source_pm] = 0;
    report.pms_used_timeline.push_back(used);
    report.migrations_per_slot.push_back(migrations_this_slot);
    report.pms_used_max = std::max(report.pms_used_max, used);
    report.total_migrations += migrations_this_slot;

    // 6. migration copies complete.
    for (auto& f : in_flight_) --f.remaining;
    std::erase_if(in_flight_, [](const InFlight& f) { return f.remaining == 0; });

    // 7. hand the closed slot to the harness observer.
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    if (config_.slo != nullptr &&
        (config_.on_slot != nullptr || store_.has_value())) {
      const obs::SloReport slo_rep = config_.slo->report();
      fast_burn = slo_rep.fast.burn;
      slow_burn = slo_rep.slow.burn;
    }
    if (config_.on_slot) {
      SlotObservation ob;
      ob.t = t;
      ob.active = &obs_active;
      ob.violated = &obs_violated;
      ob.migrations = migrations_this_slot;
      ob.failed_migrations = report.failed_migrations - failed_before;
      ob.pms_used = used;
      ob.fast_burn = fast_burn;
      ob.slow_burn = slow_burn;
      config_.on_slot(ob);
    }

    // 8. the slot is final: retain its observation for future snapshots
    // and commit its journal group (during replay: verify instead).
    if (store_) {
      history_.push_back(StoredObs{obs_active, obs_violated,
                                   migrations_this_slot,
                                   report.failed_migrations - failed_before,
                                   used, fast_burn, slow_burn});
    }
    commit_slot(t);
  }

  report.pms_used_end = report.pms_used_timeline.back();
  report.pm_cvr.resize(m);
  report.pm_windowed_cvr_end.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    report.pm_cvr[j] = tracker.cvr(PmId{j});
    report.pm_windowed_cvr_end[j] = tracker.windowed_cvr(PmId{j});
  }
  report.mean_cvr = tracker.mean_cvr();
  report.max_cvr = tracker.max_cvr();
  report.energy_wh = meter.watt_hours();
  if (recovery_) {
    report.faults.queue_end = recovery_->queue().size();
    report.faults.enqueued = recovery_->enqueued_total();
    report.faults.retries += recovery_->retries_total();
    report.faults.solver_degraded = recovery_->ladder().degraded_decisions();
    for (std::size_t i = 0; i < inst_->n_vms(); ++i) {
      const PmId pm = placement_.pm_of(VmId{i});
      const bool hosted_up = pm.valid() && injector_->pm_up(pm.value);
      const bool queued = std::any_of(
          recovery_->queue().begin(), recovery_->queue().end(),
          [i](const fault::QueuedVm& q) { return q.vm == i; });
      if (!hosted_up && !queued) ++report.faults.lost_vms;
    }
  }
  return report;
}

void ClusterSimulator::journal(durable::WalRecord type,
                               std::string payload) {
  if (wal_) wal_->append(type, std::move(payload));
}

std::uint32_t ClusterSimulator::placement_crc() const {
  std::string buf;
  for (std::size_t i = 0; i < inst_->n_vms(); ++i) {
    const PmId pm = placement_.pm_of(VmId{i});
    obs::trace_detail::put_varint(buf, pm.valid() ? pm.value + 1 : 0);
  }
  return obs::trace_detail::crc32(buf);
}

void ClusterSimulator::commit_slot(std::size_t t) {
  if (!wal_) return;
  const std::string bytes = wal_->commit(t, placement_crc());
  if (t < replay_upto_) {
    const std::size_t idx = t - wal_base_slot_;
    BURSTQ_ASSERT(idx < verify_groups_.size(),
                  "replay slot outside the verified WAL range");
    if (bytes != verify_groups_[idx].bytes)
      throw durable::CorruptState(
          "WAL divergence at slot " + std::to_string(t) +
          ": re-executed mutations do not match the journal (" +
          wal_->path() + ")");
  }
}

void ClusterSimulator::maybe_checkpoint(std::size_t t) {
  if (!store_) return;
  // During replay the snapshots and journal epochs already exist; writing
  // them again would truncate the very WAL being verified.
  if (t < replay_upto_) return;
  if (t % config_.durability->snapshot_every != 0) return;
  const std::string blob = encode_state(t);
  store_->write_snapshot(t, blob);
  wal_ = std::make_unique<durable::WalWriter>(
      store_->wal_path(t), t, config_.durability->fsync);
  wal_base_slot_ = t;
  store_->prune(2);
}

namespace {

/// Layout version of the snapshot blob: bump it on every layout change
/// so an older blob is refused, not misread.
constexpr std::uint64_t kBlobVersion = 2;

}  // namespace

// Digest of the construction arguments the blob does NOT carry — a
// restore into a differently-configured simulator must fail loudly, not
// deserialize garbage.
std::uint32_t ClusterSimulator::config_digest() const {
  std::string cfg;
  obs::trace_detail::put_varint(cfg, inst_->n_vms());
  obs::trace_detail::put_varint(cfg, inst_->n_pms());
  obs::trace_detail::put_varint(cfg, config_.slots);
  obs::trace_detail::put_varint(cfg, config_.policy.cvr_window);
  obs::trace_detail::put_varint(cfg, config_.policy.max_vms_per_pm);
  obs::trace_detail::put_varint(cfg, config_.webserver_workload ? 1u : 0u);
  obs::trace_detail::put_varint(cfg, config_.slo != nullptr ? 1u : 0u);
  return obs::trace_detail::crc32(cfg);
}

std::string ClusterSimulator::encode_state(std::size_t t) {
  durable::StateWriter w;
  w.u64(kBlobVersion);
  w.varint(t);
  w.u32(config_digest());

  for (const std::uint64_t s : rng_.state()) w.u64(s);
  for (const std::uint64_t s : ensemble_.rng().state()) w.u64(s);
  w.varint(ensemble_.n_vms());
  for (std::size_t i = 0; i < ensemble_.n_vms(); ++i) {
    const OnOffChain& c = ensemble_.chain(i);
    w.f64(c.params().p_on);
    w.f64(c.params().p_off);
    w.u8(static_cast<std::uint8_t>(c.state()));
  }

  const PlacementState ps = placement_.export_state();
  w.varint(ps.pm_of.size());
  for (const PmId pm : ps.pm_of)
    w.varint(pm.valid() ? pm.value + 1 : 0);
  w.varint(ps.vms_on.size());
  for (const auto& list : ps.vms_on) w.size_vec(list);
  w.boolean(ps.bound);
  if (ps.bound) {
    w.f64_vec(ps.rb_sum);
    w.f64_vec(ps.re_max);
  }

  w.varint(in_flight_.size());
  for (const InFlight& f : in_flight_) {
    w.varint(f.vm);
    w.varint(f.source_pm);
    w.varint(f.remaining);
  }

  write_cvr_tracker(w, *tracker_);
  write_slo_tracker(w, config_.slo);

  w.f64(meter_->joules());

  w.varint(report_.total_migrations);
  w.varint(report_.failed_migrations);
  w.varint(report_.pms_used_max);
  w.size_vec(report_.pms_used_timeline);
  w.size_vec(report_.migrations_per_slot);
  w.varint(report_.events.size());
  for (const MigrationEvent& ev : report_.events) {
    w.svarint(ev.slot);
    w.varint(ev.vm.value);
    w.varint(ev.from.valid() ? ev.from.value + 1 : 0);
    w.varint(ev.to.valid() ? ev.to.value + 1 : 0);
  }
  const FaultReport& fr = report_.faults;
  w.varint(fr.pm_crashes);
  w.varint(fr.pm_recoveries);
  w.varint(fr.evacuated);
  w.varint(fr.enqueued);
  w.varint(fr.queue_end);
  w.varint(fr.retries);
  w.varint(fr.migration_aborts);
  w.varint(fr.migration_stalls);
  w.varint(fr.solver_degraded);
  w.varint(fr.lost_vms);

  w.boolean(injector_.has_value());
  if (injector_) {
    const fault::FaultInjectorState fs = injector_->export_state();
    for (const std::uint64_t s : fs.rng) w.u64(s);
    w.varint(fs.up.size());
    for (const std::uint8_t b : fs.up) w.u8(b);
    w.varint(fs.next_scripted);
    w.varint(fs.last_slot + 1);  // -1 sentinel encodes as 0
    w.varint(fs.solver_down_until);
  }

  w.boolean(recovery_.has_value());
  if (recovery_) {
    const fault::RecoveryControllerState rs = recovery_->export_state();
    w.varint(rs.queue.size());
    for (const fault::QueuedVm& q : rs.queue) {
      w.varint(q.vm);
      w.u8(static_cast<std::uint8_t>(q.reason));
      w.varint(q.retries);
      w.varint(q.next_attempt);
    }
    w.varint(rs.retries_total);
    w.varint(rs.enqueued_total);
    w.u8(static_cast<std::uint8_t>(rs.ladder_last_level));
    w.varint(rs.ladder_degraded_decisions);
  }

  w.varint(aborted_once_.size());
  for (const bool b : aborted_once_) w.u8(b ? 1 : 0);
  w.varint(next_phase_);

  w.boolean(recorder_->first());
  w.size_vec(recorder_->last_active());

  w.varint(history_.size());
  for (const StoredObs& h : history_) {
    w.size_vec(h.active);
    w.size_vec(h.violated);
    w.varint(h.migrations);
    w.varint(h.failed_migrations);
    w.varint(h.pms_used);
    w.f64(h.fast_burn);
    w.f64(h.slow_burn);
  }

  // Trace rewind point: the flight recorder's flushed byte position at
  // this exact instant (before any slot-t event).
  const obs::EventLog::Checkpoint cp = obs::events().checkpoint();
  w.boolean(cp.valid);
  if (cp.valid) {
    w.u8(static_cast<std::uint8_t>(cp.format));
    w.str(cp.path);
    w.varint(cp.bytes);
    w.varint(cp.events);
    w.varint(cp.blocks);
  }
  return w.take();
}

ClusterSimulator::RestoreInfo ClusterSimulator::restore_from_durable() {
  BURSTQ_REQUIRE(!ran_,
                 "restore_from_durable() must precede run() on a fresh "
                 "simulator");
  BURSTQ_REQUIRE(store_.has_value(),
                 "SimConfig::durability is not configured");
  const auto loaded = store_->load_newest();
  if (!loaded)
    throw durable::CorruptState("no snapshot to restore under " +
                                store_->dir());
  durable::StateReader r(loaded->blob, "snapshot " + loaded->path);

  const std::uint64_t version = r.u64();
  if (version != kBlobVersion) r.fail("unsupported snapshot blob version");
  const std::size_t slot = r.varint();
  if (slot != loaded->slot) r.fail("blob slot disagrees with the header");
  if (r.u32() != config_digest())
    r.fail(
        "config digest mismatch — the restoring simulator was "
        "constructed with different arguments");

  std::array<std::uint64_t, 4> rng_state{};
  for (auto& s : rng_state) s = r.u64();
  rng_.set_state(rng_state);
  std::array<std::uint64_t, 4> ens_state{};
  for (auto& s : ens_state) s = r.u64();
  ensemble_.rng().set_state(ens_state);
  const std::size_t n_chains = r.varint();
  if (n_chains != ensemble_.n_vms()) r.fail("chain count mismatch");
  for (std::size_t i = 0; i < n_chains; ++i) {
    OnOffParams p;
    p.p_on = r.f64();
    p.p_off = r.f64();
    const std::uint8_t st = r.u8();
    if (st > 1) r.fail("chain state out of range");
    ensemble_.restore_chain(i, p, static_cast<VmState>(st));
  }

  PlacementState ps;
  const std::size_t n_vms = r.varint();
  ps.pm_of.reserve(n_vms);
  for (std::size_t i = 0; i < n_vms; ++i) {
    const std::size_t v = r.varint();
    ps.pm_of.push_back(v == 0 ? PmId{} : PmId{v - 1});
  }
  const std::size_t n_pms = r.varint();
  ps.vms_on.reserve(n_pms);
  for (std::size_t j = 0; j < n_pms; ++j) ps.vms_on.push_back(r.size_vec());
  ps.bound = r.boolean();
  if (ps.bound) {
    ps.rb_sum = r.f64_vec();
    ps.re_max = r.f64_vec();
  }
  placement_.restore_state(ps);

  in_flight_.clear();
  const std::size_t n_flight = r.varint();
  for (std::size_t i = 0; i < n_flight; ++i) {
    InFlight f{};
    f.vm = r.varint();
    f.source_pm = r.varint();
    f.remaining = r.varint();
    in_flight_.push_back(f);
  }

  read_cvr_tracker(r, *tracker_);
  read_slo_tracker(r, config_.slo);

  meter_->restore_joules(r.f64());

  report_ = SimReport{};
  report_.total_migrations = r.varint();
  report_.failed_migrations = r.varint();
  report_.pms_used_max = r.varint();
  report_.pms_used_timeline = r.size_vec();
  report_.migrations_per_slot = r.size_vec();
  const std::size_t n_events = r.varint();
  report_.events.reserve(n_events);
  for (std::size_t i = 0; i < n_events; ++i) {
    MigrationEvent ev;
    ev.slot = static_cast<TimeSlot>(r.svarint());
    ev.vm = VmId{r.varint()};
    const std::size_t from = r.varint();
    ev.from = from == 0 ? PmId{} : PmId{from - 1};
    const std::size_t to = r.varint();
    ev.to = to == 0 ? PmId{} : PmId{to - 1};
    report_.events.push_back(ev);
  }
  FaultReport& fr = report_.faults;
  fr.pm_crashes = r.varint();
  fr.pm_recoveries = r.varint();
  fr.evacuated = r.varint();
  fr.enqueued = r.varint();
  fr.queue_end = r.varint();
  fr.retries = r.varint();
  fr.migration_aborts = r.varint();
  fr.migration_stalls = r.varint();
  fr.solver_degraded = r.varint();
  fr.lost_vms = r.varint();

  const bool has_injector = r.boolean();
  if (has_injector != injector_.has_value())
    r.fail("fault injector presence mismatch");
  if (has_injector) {
    fault::FaultInjectorState fs;
    for (auto& s : fs.rng) s = r.u64();
    fs.up.resize(r.varint());
    for (auto& b : fs.up) b = r.u8();
    fs.next_scripted = r.varint();
    fs.last_slot = r.varint() - 1;  // 0 decodes back to the -1 sentinel
    fs.solver_down_until = r.varint();
    injector_->import_state(fs);
  }

  const bool has_recovery = r.boolean();
  if (has_recovery != recovery_.has_value())
    r.fail("recovery controller presence mismatch");
  if (has_recovery) {
    fault::RecoveryControllerState rs;
    rs.queue.resize(r.varint());
    for (auto& q : rs.queue) {
      q.vm = r.varint();
      const std::uint8_t reason = r.u8();
      if (reason > 1) r.fail("queue reason out of range");
      q.reason = static_cast<fault::QueueReason>(reason);
      q.retries = r.varint();
      q.next_attempt = r.varint();
    }
    rs.retries_total = r.varint();
    rs.enqueued_total = r.varint();
    const std::uint8_t level = r.u8();
    if (level > 3) r.fail("reserve level out of range");
    rs.ladder_last_level = static_cast<fault::ReserveLevel>(level);
    rs.ladder_degraded_decisions = r.varint();
    recovery_->import_state(rs);
  }

  const std::size_t n_aborted = r.varint();
  if (!aborted_once_.empty() && n_aborted != aborted_once_.size())
    r.fail("aborted_once size mismatch");
  aborted_once_.resize(n_aborted);
  for (std::size_t i = 0; i < n_aborted; ++i) aborted_once_[i] = r.u8() != 0;
  next_phase_ = r.varint();

  const bool rec_first = r.boolean();
  recorder_->restore_state(rec_first, r.size_vec());

  history_.clear();
  const std::size_t n_hist = r.varint();
  if (n_hist != slot) r.fail("observation history does not cover the run");
  history_.reserve(config_.slots);
  for (std::size_t i = 0; i < n_hist; ++i) {
    StoredObs h;
    h.active = r.size_vec();
    h.violated = r.size_vec();
    h.migrations = r.varint();
    h.failed_migrations = r.varint();
    h.pms_used = r.varint();
    h.fast_burn = r.f64();
    h.slow_burn = r.f64();
    history_.push_back(std::move(h));
  }

  obs::EventLog::Checkpoint cp;
  cp.valid = r.boolean();
  if (cp.valid) {
    const std::uint8_t fmt = r.u8();
    if (fmt > static_cast<std::uint8_t>(obs::EventFormat::kBinary))
      r.fail("trace checkpoint format out of range");
    cp.format = static_cast<obs::EventFormat>(fmt);
    cp.path = r.str();
    cp.bytes = r.varint();
    cp.events = r.varint();
    cp.blocks = r.varint();
  }
  r.expect_done();

  // WAL suffix: everything committed after the snapshot re-executes under
  // byte-level verification.  A torn tail was already dropped by the
  // scanner; a WAL with the wrong epoch is ignored the same way.
  const std::string wal_path = store_->wal_path(slot);
  const durable::WalScan scan = durable::scan_wal(wal_path);
  verify_groups_.clear();
  if (scan.present && scan.base_slot == slot) {
    verify_groups_ = scan.groups;
    // Groups must cover consecutive slots from the snapshot on; stop at
    // the first gap (everything after it is unreachable by replay).
    for (std::size_t i = 0; i < verify_groups_.size(); ++i) {
      if (verify_groups_[i].slot != slot + i) {
        verify_groups_.resize(i);
        break;
      }
    }
  }
  start_slot_ = slot;
  wal_base_slot_ = slot;
  replay_upto_ = slot + verify_groups_.size();
  wal_ = std::make_unique<durable::WalWriter>(
      wal_path, slot, config_.durability->fsync);

  // The kill that ended the previous attempt fired at replay_upto_; its
  // RNG draw will recur on replay, but the abort must not.
  if (injector_) injector_->suppress_kills_before(replay_upto_ + 1);

  // Discard the killed run's partial trace tail; replay re-emits the
  // identical bytes from the checkpoint on.
  obs::events().rewind(cp);

  // Rebuild the harness observer's accumulators for pre-snapshot slots.
  if (config_.on_slot) {
    for (std::size_t i = 0; i < history_.size(); ++i) {
      const StoredObs& h = history_[i];
      SlotObservation ob;
      ob.t = i;
      ob.active = &h.active;
      ob.violated = &h.violated;
      ob.migrations = h.migrations;
      ob.failed_migrations = h.failed_migrations;
      ob.pms_used = h.pms_used;
      ob.fast_burn = h.fast_burn;
      ob.slow_burn = h.slow_burn;
      config_.on_slot(ob);
    }
  }

  BURSTQ_COUNT("durable.restores", 1);
  BURSTQ_COUNT("durable.replay_slots", verify_groups_.size());
  return RestoreInfo{slot, verify_groups_.size()};
}

namespace {

// The fixed-placement slot loop behind record_violation_trace and
// simulate_cvr.  `label` names the recorded segment: each public entry
// point passes its own, so their traces stay apart.
std::vector<std::vector<bool>> violation_trace(const ProblemInstance& inst,
                                               const Placement& placement,
                                               std::size_t slots, Rng rng,
                                               bool start_stationary,
                                               const char* label) {
  BURSTQ_REQUIRE(slots > 0, std::string(label) + " needs at least one slot");
  BURSTQ_REQUIRE(placement.vms_assigned() == inst.n_vms(),
                 "placement must assign every VM");

  WorkloadEnsemble ensemble(inst, rng, start_stationary);
  std::vector<std::vector<bool>> violated(
      inst.n_pms(), std::vector<bool>(slots, false));

  FlightSlotRecorder recorder(label, inst.n_pms(), slots, slots, 0.0);
  std::vector<std::size_t> obs_active;
  std::vector<std::size_t> obs_violated;

  for (std::size_t t = 0; t < slots; ++t) {
    BURSTQ_SPAN("sim.slot");
    if (t > 0) ensemble.step();
    if (recorder.enabled()) {
      obs_active.clear();
      obs_violated.clear();
    }
    for (std::size_t j = 0; j < inst.n_pms(); ++j) {
      const PmId pm{j};
      if (placement.count_on(pm) == 0) continue;
      Resource loadj = 0.0;
      for (std::size_t i : placement.vms_on(pm)) loadj += ensemble.demand(i);
      violated[j][t] =
          loadj > inst.pms[j].capacity * (1.0 + kCapacityEpsilon);
      if (recorder.enabled()) {
        obs_active.push_back(j);
        if (violated[j][t]) obs_violated.push_back(j);
      }
    }
    recorder.slot(t, obs_active, obs_violated);
  }
  return violated;
}

}  // namespace

std::vector<std::vector<bool>> record_violation_trace(
    const ProblemInstance& inst, const Placement& placement,
    std::size_t slots, Rng rng, bool start_stationary) {
  return violation_trace(inst, placement, slots, rng, start_stationary,
                         "violation_trace");
}

std::vector<double> simulate_cvr(const ProblemInstance& inst,
                                 const Placement& placement,
                                 std::size_t slots, Rng rng,
                                 bool start_stationary) {
  const std::vector<std::vector<bool>> violated = violation_trace(
      inst, placement, slots, rng, start_stationary, "simulate_cvr");
  std::vector<double> cvr(inst.n_pms(), 0.0);
  for (std::size_t j = 0; j < inst.n_pms(); ++j)
    cvr[j] = static_cast<double>(std::count(violated[j].begin(),
                                            violated[j].end(), true)) /
             static_cast<double>(slots);
  return cvr;
}

}  // namespace burstq

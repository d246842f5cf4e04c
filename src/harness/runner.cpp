#include "harness/runner.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "common/error.h"
#include "durable/durable.h"
#include "obs/obs.h"
#include "obs/query.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "placement/baselines.h"
#include "queuing/mapcal.h"
#include "placement/queuing_ffd.h"
#include "placement/sbp.h"
#include "sim/cluster_sim.h"

namespace burstq::harness {

namespace {

PlacementResult place_fleet(const Scenario& sc,
                            const ProblemInstance& inst) {
  if (sc.strategy == "queue") {
    QueuingFfdOptions opt;
    opt.rho = sc.rho;
    opt.max_vms_per_pm = sc.max_vms_per_pm;
    return queuing_ffd(inst, opt).result;
  }
  if (sc.strategy == "rp") return ffd_by_peak(inst, sc.max_vms_per_pm);
  if (sc.strategy == "rb") return ffd_by_normal(inst, sc.max_vms_per_pm);
  if (sc.strategy == "rbex")
    return ffd_reserved(inst, 0.3, sc.max_vms_per_pm);
  if (sc.strategy == "sbp")
    return sbp_normal(inst, sc.rho, sc.max_vms_per_pm);
  throw InvalidArgument("unknown strategy: " + sc.strategy);
}

/// Streams the finalized trace once (obs::scan_events, block by block):
/// resolves a TracePointer for every slot in `targets` (the first
/// slot.obs event at that `t`: its event index, which `trace head
/// --at-event` resolves, and its containing block's boundary) and
/// counts the total events.
std::uint64_t scan_trace(const std::string& path,
                         std::map<std::size_t, TracePointer>& targets) {
  return obs::scan_events(
      path, [&targets](const obs::RecordedEvent& ev, std::uint64_t offset,
                       std::uint64_t index) {
        if (ev.kind != "slot.obs") return true;
        const auto t = static_cast<std::size_t>(ev.integer("t"));
        const auto it = targets.find(t);
        if (it != targets.end() && it->second.offset == 0 &&
            it->second.event_index == 0)
          it->second = TracePointer{offset, index, t};
        return true;
      });
}

}  // namespace

RunSummary run_scenario(const Scenario& sc, const HarnessOptions& opt) {
  sc.validate();
  RunSummary out;
  const std::string trace_file = sc.name + ".trace.btrc";
  out.trace_path = opt.out_dir + "/" + trace_file;
  out.report_path = opt.out_dir + "/" + sc.name + ".report.json";

  ScenarioReport& report = out.report;
  report.scenario = sc.name;
  report.seed = sc.seed;
  report.slots = sc.slots;
  // Reports reference the trace by basename so two same-seed runs are
  // byte-identical regardless of where --out points.
  report.trace_file = trace_file;
  report.trace_format =
      std::string(obs::format_name(obs::EventFormat::kBinary));

  // The trace must exist (and later: be finalized) no matter how the run
  // ends; open it before anything that can throw.
  obs::events().open(out.trace_path, obs::EventFormat::kBinary,
                     obs::EventLevel::kDetail, opt.compress);
  obs::events().set_run_label("harness/" + sc.name);

  // A scenario's trace must not depend on what else ran in this process:
  // a warm MapCal cache would swallow the mapcal events a cold run
  // emits, breaking the byte-identical contract for back-to-back runs.
  mapcal_table_cache_clear();

  SlotSeries series;
  obs::SloTracker slo(sc.n_pms, [&] {
    obs::SloOptions slo_opt;
    slo_opt.rho = sc.rho;
    slo_opt.fast_window = sc.slo_fast;
    slo_opt.slow_window = sc.slo_slow;
    return slo_opt;
  }());

  std::string abort_reason;
  std::vector<MigrationEvent> migration_events;
  bool completed = false;
  try {
    Rng rng(sc.seed);
    ProblemInstance inst = table_i_instance(
        sc.pattern, sc.n_vms, sc.n_pms, sc.onoff, rng, [&] {
          InstanceRanges ranges;
          ranges.capacity_lo = sc.capacity_lo;
          ranges.capacity_hi = sc.capacity_hi;
          return ranges;
        }());

    const PlacementResult placed = place_fleet(sc, inst);
    BURSTQ_REQUIRE(placed.complete(),
                   std::to_string(placed.unplaced.size()) +
                       " VMs could not be placed; grow pms=, capacity, or "
                       "relax rho in the scenario");

    SimConfig cfg;
    cfg.slots = sc.slots;
    cfg.policy.rho = sc.rho;
    cfg.policy.max_vms_per_pm = sc.max_vms_per_pm;
    cfg.policy.cvr_window = sc.migration_window;
    cfg.policy.cost_slots = sc.migration_cost;
    if (sc.faults.any()) cfg.faults = sc.faults;
    cfg.slo = &slo;
    cfg.workload_phases = sc.phases;

    // Durability: a `durability` statement opts in explicitly; a fault
    // plan with kill-points turns it on implicitly (a kill without a
    // restore path would just lose the run).  The state directory is
    // scenario-private and wiped up front — stale snapshots from an
    // earlier run must never leak into this one's restores.
    if (sc.durability || sc.faults.has_kills()) {
      durable::DurabilityConfig dur;
      dur.dir = opt.out_dir + "/" + sc.name + ".durable";
      dur.snapshot_every = sc.durability_every;
      dur.fsync = sc.durability_fsync;
      std::filesystem::remove_all(dur.dir);
      cfg.durability = dur;
    }

    // Per-slot bookkeeping: running cumulative CVR cluster-wide and for
    // the worst PM, so breach windows come out in slots, not just a
    // final scalar.
    std::vector<std::size_t> pm_observed(sc.n_pms, 0);
    std::vector<std::size_t> pm_violated(sc.n_pms, 0);
    std::size_t cluster_observed = 0;
    std::size_t cluster_violated = 0;
    cfg.on_slot = [&](const SlotObservation& ob) {
      cluster_observed += ob.active->size();
      cluster_violated += ob.violated->size();
      for (const std::size_t pm : *ob.active) ++pm_observed[pm];
      for (const std::size_t pm : *ob.violated) ++pm_violated[pm];
      // Current (not running-max) worst per-PM cumulative CVR: the
      // ratio dilutes as observations accumulate, and the invariant is
      // about where the books stand, not a transient.
      double worst_pm = 0.0;
      for (std::size_t pm = 0; pm < sc.n_pms; ++pm)
        if (pm_violated[pm] > 0)
          worst_pm = std::max(
              worst_pm, static_cast<double>(pm_violated[pm]) /
                            static_cast<double>(pm_observed[pm]));
      series.cluster_cvr.push_back(
          cluster_observed == 0
              ? 0.0
              : static_cast<double>(cluster_violated) /
                    static_cast<double>(cluster_observed));
      series.worst_pm_cvr.push_back(worst_pm);
      series.migrations.push_back(ob.migrations);
      const obs::SloReport slo_now = slo.report();
      series.fast_burn.push_back(slo_now.fast.burn);
      series.slow_burn.push_back(slo_now.slow.burn);
    };

    // Kill-restore loop.  A kill-point (fault kill@SLOT / Markov p_kill)
    // surfaces as durable::SimKilled — deliberately not a std::exception,
    // so the abort handler below can never swallow it.  Each restore
    // builds a FRESH simulator from the same arguments (the RNG is split
    // once: every construction must consume the identical stream), zeroes
    // the accumulators, and restore_from_durable() re-fires on_slot for
    // every pre-snapshot slot — so the series rebuilds exactly and the
    // final report is byte-identical to an uninterrupted run.
    const Rng sim_rng = rng.split();
    std::size_t worst_replay = 0;
    bool restore = false;
    for (;;) {
      pm_observed.assign(sc.n_pms, 0);
      pm_violated.assign(sc.n_pms, 0);
      cluster_observed = 0;
      cluster_violated = 0;
      series.cluster_cvr.clear();
      series.worst_pm_cvr.clear();
      series.migrations.clear();
      series.fast_burn.clear();
      series.slow_burn.clear();

      ClusterSimulator sim(inst, placed.placement, cfg, sim_rng);
      if (restore) {
        const ClusterSimulator::RestoreInfo info =
            sim.restore_from_durable();
        worst_replay = std::max(worst_replay, info.replay_slots);
        BURSTQ_COUNT("harness.restores", 1);
      }
      try {
        const SimReport rep = sim.run();
        series.lost_vms = rep.faults.lost_vms;
        migration_events = rep.events;
        break;
      } catch (const durable::SimKilled&) {
        restore = true;
      }
    }
    series.recovery_replay_slots = worst_replay;
    completed = true;
  } catch (const std::exception& e) {
    abort_reason = e.what();
  }

  // Finalize the trace FIRST — on abort this is what makes the report's
  // pointers resolvable at all.
  obs::events().close();
  obs::events().set_run_label("");

  report.slots_completed = series.cluster_cvr.size();

  // Flap bookkeeping: running max per-VM successful-migration count.
  // Derived from the migration log post-run (the observer only sees
  // counts); an aborted run has no log and the series stays empty.
  {
    std::map<std::size_t, std::size_t> moves;
    std::size_t running_max = 0;
    std::size_t next = 0;
    std::sort(migration_events.begin(), migration_events.end(),
              [](const MigrationEvent& a, const MigrationEvent& b) {
                return a.slot < b.slot;
              });
    series.max_vm_moves.assign(report.slots_completed, 0);
    for (std::size_t t = 0; t < report.slots_completed; ++t) {
      while (next < migration_events.size() &&
             migration_events[next].slot <= static_cast<TimeSlot>(t)) {
        if (!migration_events[next].failed())
          running_max = std::max(
              running_max, ++moves[migration_events[next].vm.value]);
        ++next;
      }
      series.max_vm_moves[t] = running_max;
    }
  }

  std::map<std::size_t, TracePointer> pointer_targets;
  for (const ScenarioInvariant& inv : sc.invariants) {
    InvariantResult r =
        evaluate_invariant(inv.kind, inv.op, inv.threshold, series);
    if (r.window) pointer_targets.emplace(r.window->first, TracePointer{});
    report.invariants.push_back(r);
  }

  report.trace_events = scan_trace(out.trace_path, pointer_targets);
  bool all_pass = true;
  for (InvariantResult& r : report.invariants) {
    if (!r.pass) all_pass = false;
    if (!r.window) continue;
    const auto it = pointer_targets.find(r.window->first);
    // offset==0 && event_index==0 means the scan never saw a slot.obs at
    // that t (e.g. an obs-stripped build): leave the pointer absent
    // rather than pointing at the file header.
    if (it != pointer_targets.end() &&
        (it->second.offset != 0 || it->second.event_index != 0))
      r.trace = it->second;
  }

  if (!completed) {
    report.status = "abort";
    report.abort_reason = abort_reason;
  } else {
    report.status = all_pass ? "pass" : "fail";
  }

  BURSTQ_COUNT("harness.scenarios_run", 1);
  BURSTQ_COUNT("harness.invariants_checked", report.invariants.size());
  std::size_t failed = 0;
  for (const InvariantResult& r : report.invariants)
    if (!r.pass) ++failed;
  if (failed > 0) BURSTQ_COUNT("harness.invariants_failed", failed);
  if (!completed) BURSTQ_COUNT("harness.aborts", 1);

  write_report(report, out.report_path);
  return out;
}

}  // namespace burstq::harness

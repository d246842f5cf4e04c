// Workloads `steady` and `flash_crowd`: QueuingFFD places 10^5 VMs on
// 2x10^4 PMs, then ClusterSimulator runs the fleet for a fixed number of
// slots.  A run repeats identical rounds (same seed, fresh set-up) until
// --seconds is used up, so every round must reproduce round 0's
// deterministic outputs.
//
//   steady       stationary parameters, seeded Markov PM crash/recover
//                plan, WAL + snapshots (fsync off) and BTRC flight
//                recording at `decisions` level — the production runtime.
//   flash_crowd  no faults, durability or recording; from slot 1 a
//                fleet-wide WorkloadPhase raises p_on 2.5x — a correlated
//                burst that loads the dynamic scheduler.

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "durable/durable.h"
#include "fault/plan.h"
#include "layers.h"
#include "obs/event_log.h"
#include "sim/cluster_sim.h"

namespace perfbench {
namespace {

using namespace burstq;

constexpr std::size_t kVms = 100000;
constexpr std::size_t kPms = 20000;
constexpr std::size_t kMinRounds = 3;
constexpr double kFlashFactor = 2.5;

struct Spec {
  bool steady{true};
  std::size_t slots{0};
  // Feature switches; the traced mode's ablations turn one off at a time.
  bool migration{true};
  bool faults{false};
  bool durability{false};
  bool recording{false};
};

Spec workload_spec(const std::string& name) {
  Spec s;
  s.steady = name == "steady";
  s.slots = s.steady ? 200 : 60;
  s.faults = s.durability = s.recording = s.steady;
  return s;
}

struct Round {
  double setup_s{0.0};
  double run_s{0.0};
  std::vector<double> slot_s;
  std::size_t pms_used{0};
  /// Sum over slots of the VMs hosted (at the end of the slot) on PMs
  /// that violated capacity in it: tenant-slots that saw an overload.
  std::size_t violated_vm_slots{0};
  SimReport report;
  std::uint64_t durable_bytes{0};
  std::uint64_t trace_bytes{0};
  std::uint64_t trace_events{0};
  std::string error;
};

Round run_round(const ProblemInstance& inst, const Spec& spec,
                std::uint64_t seed, const std::string& dir, SpanLog& spans,
                std::size_t round) {
  Round out;
  const std::string state_dir = dir + "/state";
  const std::string trace_path = dir + "/flight.btrc";
  fresh_dir(dir);

  SimConfig cfg;
  cfg.slots = spec.slots;
  cfg.enable_migration = spec.migration;
  if (!spec.steady)
    cfg.workload_phases.push_back(
        WorkloadPhase{1, kBaseParams.p_on * kFlashFactor, std::nullopt});
  if (spec.faults) {
    fault::FaultPlan plan;
    plan.markov.p_crash = 1e-4;
    plan.markov.p_recover = 0.05;
    plan.seed = derive_seed(seed, 11);
    cfg.faults = plan;
  }
  if (spec.durability)
    cfg.durability = durable::DurabilityConfig{state_dir, 20, false};

  const TimedSim::Observer count_violated =
      [&](const SlotObservation& ob, const ClusterSimulator& sim) {
        for (std::size_t pm : *ob.violated)
          out.violated_vm_slots += sim.placement().count_on(PmId{pm});
      };

  // Set-up: cold MapCal, initial placement, opening the recorder and the
  // simulator (whose constructor opens the durable store).
  const auto setup_span = spans.begin("setup", round);
  const auto t_setup = Clock::now();
  mapcal_table_cache_clear();
  std::optional<MapCalTable> table;
  {
    Span s(spans, "queuing.mapcal_table", round);
    table.emplace(kMaxVmsPerPm, round_uniform_params(inst.vms), kRho);
  }
  std::optional<PlacementResult> placed;
  {
    Span s(spans, "placement.queuing_ffd_with_table", round);
    placed = queuing_ffd_with_table(inst, *table, ffd_options());
  }
  if (!placed->complete()) {
    out.error = "initial placement left VMs unplaced";
    spans.end(setup_span);
    return out;
  }
  out.pms_used = placed->pms_used();
  if (spec.recording) {
    Span s(spans, "obs.open", round);
    obs::events().open(trace_path, obs::EventFormat::kBinary,
                       obs::EventLevel::kDecisions);
  }
  std::optional<TimedSim> sim;
  sim.emplace(inst, placed->placement, cfg, Rng(derive_seed(seed, 12)), spans,
              count_violated, round);
  out.setup_s = seconds_since(t_setup);
  spans.end(setup_span);

  out.report = sim->run();
  out.run_s = sim->run_s();
  out.slot_s = sim->slot_s();
  if (spec.recording) {
    const std::uint64_t events = obs::events().events_written();
    obs::events().close();
    out.trace_events = events;
    out.trace_bytes = std::filesystem::file_size(trace_path);
  }
  out.durable_bytes = dir_bytes(state_dir);

  if (out.report.faults.lost_vms != 0)
    out.error = "lost_vms = " + std::to_string(out.report.faults.lost_vms);
  else if (sim->sim().placement().vms_assigned() != inst.n_vms())
    out.error = "vms_assigned() = " +
                std::to_string(sim->sim().placement().vms_assigned()) +
                " != n";
  return out;
}

double violation_share(const Round& r, std::size_t slots) {
  return static_cast<double>(r.violated_vm_slots) /
         static_cast<double>(kVms * slots);
}

std::string fingerprint(const Round& r) {
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "pms_used=%zu cvr=%.17g mig=%zu failed=%zu active=%.17g "
                "fail_ratio=%.17g crashes=%zu",
                r.pms_used, r.report.mean_cvr, r.report.total_migrations,
                r.report.failed_migrations, active_mean(r.report),
                violation_share(r, r.slot_s.size()),
                r.report.faults.pm_crashes);
  return buf;
}

void info_lines(Result& res, const Spec& spec, std::size_t rounds) {
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "inputs: %zu VMs, %zu PMs, %zu slots per round, %zu rounds; "
                "generated input %.1f MiB (ProblemInstance)",
                kVms, kPms, spec.slots, rounds,
                static_cast<double>(kVms * sizeof(VmSpec) +
                                    kPms * sizeof(PmSpec)) /
                    (1 << 20));
  res.info.push_back(buf);
  res.info.push_back(
      spec.steady ? "features: Markov crash/recover (p_crash 1e-4, p_recover "
                    "0.05), WAL + snapshot every 20 slots (fsync off), BTRC "
                    "recording at decisions level"
                  : "features: p_on x2.5 fleet-wide from slot 1; no faults, "
                    "durability or recording");
}

void check_round(Result& res, const Round& r, const std::string& want,
                 std::size_t index, std::size_t slots) {
  res.attempted += slots;
  if (!r.error.empty()) {
    res.fail("round " + std::to_string(index) + ": " + r.error, slots);
  } else if (fingerprint(r) != want) {
    res.fail("round " + std::to_string(index) + " diverged from round 0: " +
                 fingerprint(r) + " vs " + want,
             slots);
  }
}

Result run_untraced(const Args& args, const Spec& spec,
                    const ProblemInstance& inst) {
  Result res;
  const auto start = Clock::now();
  SpanLog off(false);
  std::vector<Round> rounds;
  while (rounds.size() < kMinRounds || seconds_since(start) < args.seconds) {
    rounds.push_back(run_round(inst, spec, args.seed, args.work_dir, off,
                               rounds.size()));
    check_round(res, rounds.back(), fingerprint(rounds.front()),
                rounds.size() - 1, spec.slots);
    // Keep memory flat: only round 0's report is needed afterwards.
    if (rounds.size() > 1) rounds.back().report = SimReport{};
  }

  const Round& r0 = rounds.front();
  std::vector<double> setup, vm_rate, slots, slot_rate;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    vm_rate.push_back(static_cast<double>(kVms) / r.run_s);
    slots.insert(slots.end(), r.slot_s.begin(), r.slot_s.end());
    slot_rate.push_back(static_cast<double>(spec.slots) / r.run_s);
  }
  for (double& s : slots) s *= 1e3;
  const std::size_t n = rounds.size();
  const Tail tail = tail_with_ten_beyond(slots);
  char note[120];
  std::snprintf(note, sizeof note, "p%.2f, %zu slots beyond", tail.percentile,
                tail.beyond);
  std::vector<double> slots_us = slots;
  for (double& s : slots_us) s *= 1e3;

  res.set("setup_s", median(setup), "s", n,
          "cold MapCal + placement + recorder/simulator open (median)");
  res.set("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  res.set("fail_ratio", violation_share(r0, spec.slots), "fraction", 1,
          "VM-slots on an overloaded PM / VM-slots");
  // The initial placement is timed only in setup_s: as a rate it is the
  // most host-sensitive figure of these workloads (ten-seed spreads up to
  // 0.37 on a shared 4-core host).
  res.set("plan_vms_per_s", median(vm_rate), "VMs/s", n,
          "VMs / run() time (median over rounds)");
  res.set("pms_used", static_cast<double>(r0.pms_used), "PMs", 1,
          "initial QueuingFFD placement");
  res.set("pms_active_mean", active_mean(r0.report), "PMs", spec.slots);
  res.set("sim_vm_slots_per_s", static_cast<double>(kVms) * median(slot_rate),
          "VM-slots/s", n, "median over rounds");
  res.set("slot_p50_ms", median(slots), "ms", slots.size());
  res.set("slot_tail_ms", tail.value, "ms", slots.size(), note);
  res.set("cvr_mean", r0.report.mean_cvr, "fraction", 1);
  res.set("migrations", static_cast<double>(r0.report.total_migrations),
          "count", 1);
  res.set("op_p50_us", median(slots_us), "us", slots.size(),
          "op = one simulated slot (closed loop)");
  res.set("op_p99_us", quantile(slots_us, 0.99), "us", slots.size(),
          "op = one simulated slot (closed loop)");
  res.set("ctl_ops_per_s", median(slot_rate), "ops/s", n,
          "simulated slots per second (median over rounds)");
  info_lines(res, spec, n);
  res.info.push_back("deterministic: " + fingerprint(r0));
  return res;
}

Result run_traced(const Args& args, const Spec& spec,
                  const ProblemInstance& inst) {
  Result res;
  SpanLog off(false);
  // Alternating untraced / traced rounds for half the budget: the medians
  // give the tracing overhead.  The first traced round supplies the spans
  // and counters (every round of one seed does identical work).
  SpanLog spans(true, 1 << 12);
  std::optional<Round> first;
  std::vector<double> ref_setup, tr_setup;
  std::string want;
  std::size_t index = 0;
  const Overhead overhead = alternate_traced(
      args.seconds / 2, spans, 1 << 12, [&](SpanLog& log, bool first_traced) {
        std::optional<CounterDelta> counters;
        if (first_traced) counters.emplace();
        Round r = run_round(inst, spec, args.seed,
                            args.work_dir + (log.enabled() ? "/traced" : "/ref"),
                            log, 0);
        if (counters)
          put_counters(res, *counters,
                       {"mapcal.table.builds", "mapcal.table.cache_hits",
                        "linalg.stationary.solves", "placement.tree_descents",
                        "placement.fit_checks", "placement.placed",
                        "sim.migrations", "sim.migrations_failed",
                        "sim.target_searches", "sim.victim_selections",
                        "sim.slot_violations", "fault.pm.crashes",
                        "fault.pm.recoveries", "fault.evacuations",
                        "fault.queue.enqueued", "migration.retries",
                        "durable.wal.commits", "durable.snapshot.writes"});
        if (want.empty()) want = fingerprint(r);
        check_round(res, r, want, index++, spec.slots);
        (log.enabled() ? tr_setup : ref_setup).push_back(r.setup_s);
        const double run_s = r.run_s;
        if (first_traced) first.emplace(std::move(r));
        return run_s;
      });
  const Round& tr = *first;
  const double ref_run_s = median(overhead.untraced_s);

  const auto tot = spans.totals();
  res.set("placement.seconds",
          tot.at("placement.queuing_ffd_with_table").total_s, "s", 1,
          "initial placement");
  res.set("placement.allocs",
          static_cast<double>(
              tot.at("placement.queuing_ffd_with_table").allocs),
          "count", 1);
  res.set("sim.ctor_seconds", tot.at("sim.ctor").total_s, "s", 1);
  res.set("sim.run_seconds", tot.at("sim.run").total_s, "s", 1);
  res.set("sim.slot_allocs",
          static_cast<double>(tot.at("sim.slot").allocs) /
              static_cast<double>(spec.slots),
          "count", spec.slots, "per slot");
  derived_ratios(res);
  res.set("durable.bytes", static_cast<double>(tr.durable_bytes), "bytes", 1,
          "state dir at the end");
  res.set("obs.trace.bytes", static_cast<double>(tr.trace_bytes), "bytes", 1);
  res.set("obs.trace.events", static_cast<double>(tr.trace_events), "count",
          1);

  // Probes on the workload's instance.
  res.set("queuing.mapcal_cold_ms", mapcal_cold_ms(kBaseParams, 15), "ms", 15,
          "probe");
  const MapCalTable table(kMaxVmsPerPm, round_uniform_params(inst.vms), kRho);
  sharded_probe(inst, table, res);
  res.set("sim.ensemble_step_ns_per_vm",
          ensemble_step_ns_per_vm(inst, derive_seed(args.seed, 12), 20), "ns",
          20, "probe");

  // Ablations: the reference round with one feature switched off.
  const auto share = [&](Spec s, const char* name, const char* what) {
    const Round a =
        run_round(inst, s, args.seed, args.work_dir + "/ablation", off, 0);
    res.attempted += s.slots;
    if (!a.error.empty()) res.fail(std::string(name) + " ablation: " + a.error);
    res.set(name, std::max(0.0, 1.0 - a.run_s / ref_run_s), "ratio", 1,
            std::string("estimate: 1 - run time ") + what + " / full");
  };
  Spec s = spec;
  s.migration = false;
  share(s, "sim.scheduler_share", "with enable_migration=false");
  if (spec.steady) {
    s = spec;
    s.faults = false;
    share(s, "fault.share", "without the fault plan");
    s = spec;
    s.durability = false;
    share(s, "durable.share", "without durability");
    s = spec;
    s.recording = false;
    share(s, "obs.share", "with the recorder off");
  }
  res.set("bench.trace_overhead", overhead.ratio(), "ratio",
          overhead.untraced_s.size(), "sim.run, traced vs untraced");

  char line[200];
  std::snprintf(line, sizeof line,
                "traced vs untraced (median of %zu each): setup %.4f s vs "
                "%.4f s, run %.4f s vs %.4f s",
                overhead.untraced_s.size(), median(tr_setup),
                median(ref_setup), median(overhead.traced_s), ref_run_s);
  res.info.push_back(line);
  report_spans(spans, args.work_dir, res);
  info_lines(res, spec, 1);
  res.info.push_back("deterministic: " + fingerprint(tr));
  return res;
}

}  // namespace

Result run_sim(const Args& args) {
  const Spec spec = workload_spec(args.workload);
  const ProblemInstance inst = make_fleet(kVms, kPms, derive_seed(args.seed, 10));
  return args.trace ? run_traced(args, spec, inst)
                    : run_untraced(args, spec, inst);
}

}  // namespace perfbench

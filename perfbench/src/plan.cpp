// Workload `plan`: Algorithm 1 + 2 as an operator runs it, in a closed
// loop of rounds.  Each round draws a fresh seeded fleet with monitoring
// traces (untimed), then times
//
//   instance_from_traces  ->  MapCalTable  ->  queuing_ffd_with_table
//
// and checks the result.  A short validation simulation of the plan (the
// paper's own "pack, then run simulatively" evaluation, Fig. 6) follows
// each round; it supplies the simulated figures this workload reports
// (migrations, CVR, slot times) and is not part of plan_vms_per_s.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "fit/estimator.h"
#include "layers.h"
#include "sim/cluster_sim.h"
#include "sim/workload_gen.h"

namespace perfbench {
namespace {

using namespace burstq;

constexpr std::size_t kVms = 100000;
constexpr std::size_t kPms = 20000;
/// Monitoring samples per VM: 12 hours at a 5-minute period.
constexpr std::size_t kSamples = 144;
/// Share of requests larger than any host (Rb > max capacity).  They are
/// always unplaced, so fail_ratio is never 0 and a placer that leaves
/// more VMs behind shows up above this floor.
constexpr double kJumboShare = 0.01;
constexpr std::size_t kValidateSlots = 20;
constexpr std::size_t kMinRounds = 3;
/// Cold MapCalTable builds per round that make up set-up time.  They are
/// spread over the whole run, so one slow moment of the host cannot move
/// the median.
constexpr std::size_t kSetupRepsPerRound = 3;
/// Cold builds of the traced mode's MapCal probe.
constexpr std::size_t kProbeReps = 101;

struct Round {
  double fit_s{0.0};
  double table_s{0.0};
  double place_s{0.0};
  std::size_t pms_used{0};
  std::size_t unplaced{0};
  std::string error;
  // Validation simulation of the placed VMs.
  std::size_t sim_vms{0};
  double sim_run_s{0.0};
  std::vector<double> slot_s;
  double cvr_mean{0.0};
  std::size_t migrations{0};
  double pms_active_mean{0.0};
  // Kept for the traced mode's probes.
  ProblemInstance fitted;
  std::optional<MapCalTable> table;

  [[nodiscard]] double plan_s() const { return fit_s + table_s + place_s; }
};

/// Generated inputs of one round: the true fleet's monitoring traces.
DemandTrace generate(std::uint64_t seed, std::size_t round,
                     std::vector<PmSpec>& pms) {
  ProblemInstance truth = make_fleet(kVms, kPms, derive_seed(seed, 3 * round));
  Rng jumbo(derive_seed(seed, 3 * round + 1));
  for (VmSpec& v : truth.vms)
    if (jumbo.next_double() < kJumboShare) v.rb = jumbo.uniform(110.0, 140.0);
  pms = truth.pms;
  return record_demand_trace(truth, kSamples,
                             Rng(derive_seed(seed, 3 * round + 2)));
}

/// Simulates the placed VMs of `fitted` under `res` for kValidateSlots.
void validate(const ProblemInstance& fitted, const PlacementResult& res,
              std::uint64_t seed, bool migrate, SpanLog& spans, Round& out) {
  ProblemInstance sub;
  sub.pms = fitted.pms;
  std::vector<std::size_t> pm_of;
  for (std::size_t i = 0; i < fitted.n_vms(); ++i) {
    const PmId pm = res.placement.pm_of(VmId{i});
    if (!pm.valid()) continue;
    sub.vms.push_back(fitted.vms[i]);
    pm_of.push_back(pm.value);
  }
  Placement initial(sub);
  for (std::size_t i = 0; i < pm_of.size(); ++i)
    initial.assign(VmId{i}, PmId{pm_of[i]});

  SimConfig cfg;
  cfg.slots = kValidateSlots;
  cfg.enable_migration = migrate;
  TimedSim sim(sub, initial, cfg, Rng(seed), spans);
  const SimReport rep = sim.run();
  out.sim_run_s = sim.run_s();
  out.slot_s = sim.slot_s();
  out.sim_vms = sub.n_vms();
  out.cvr_mean = rep.mean_cvr;
  out.migrations = rep.total_migrations;
  out.pms_active_mean = active_mean(rep);
  if (sim.sim().placement().vms_assigned() != sub.n_vms())
    out.error = "validation simulation lost VMs";
}

Round run_round(std::uint64_t seed, std::size_t r, SpanLog& spans,
                bool keep) {
  Round out;
  std::vector<PmSpec> pms;
  DemandTrace trace;
  {
    Span s(spans, "input.generate", r);
    trace = generate(seed, r, pms);
  }
  const auto round_span = spans.begin("plan.round", r);
  const std::uint64_t round_allocs = alloc_count();
  auto t0 = Clock::now();
  {
    Span s(spans, "fit.instance_from_traces", r);
    out.fitted = instance_from_traces(trace, std::move(pms));
  }
  out.fit_s = seconds_since(t0);
  trace = DemandTrace{};

  // Fitted parameters differ from round to round, so every round's table
  // is a cold build; clearing the cache keeps repeated rounds of one seed
  // (traced mode) doing the same work.
  mapcal_table_cache_clear();
  t0 = Clock::now();
  {
    Span s(spans, "queuing.mapcal_table", r);
    out.table.emplace(kMaxVmsPerPm, round_uniform_params(out.fitted.vms),
                      kRho);
  }
  out.table_s = seconds_since(t0);

  t0 = Clock::now();
  std::optional<PlacementResult> res;
  {
    Span s(spans, "placement.queuing_ffd_with_table", r);
    res = queuing_ffd_with_table(out.fitted, *out.table, ffd_options());
  }
  out.place_s = seconds_since(t0);
  spans.end(round_span, alloc_count() - round_allocs);

  out.pms_used = res->placement.pms_used();
  out.unplaced = res->unplaced.size();
  out.error = check_placement(out.fitted, *res, *out.table);
  {
    Span s(spans, "plan.validate", r);
    validate(out.fitted, *res, derive_seed(seed, 1000 + r), true, spans, out);
  }
  if (!keep) {
    out.fitted = ProblemInstance{};
    out.table.reset();
  }
  return out;
}

/// Deterministic outputs of a round: identical across repeats and between
/// traced and untraced runs of one seed.
std::string fingerprint(const Round& r) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "pms_used=%zu unplaced=%zu cvr=%.17g mig=%zu "
                "active=%.17g", r.pms_used, r.unplaced, r.cvr_mean,
                r.migrations, r.pms_active_mean);
  return buf;
}

void info_lines(Result& res, std::size_t rounds) {
  res.info.push_back("inputs: " + std::to_string(kVms) + " VMs (" +
                     std::to_string(static_cast<int>(kJumboShare * 100)) +
                     "% larger than any host), " + std::to_string(kPms) +
                     " PMs, " + std::to_string(kSamples) +
                     " trace samples per VM, " + std::to_string(rounds) +
                     " rounds (a fresh fleet each)");
  const double input_mib =
      static_cast<double>(kVms * kSamples * sizeof(double)) / (1 << 20);
  char buf[120];
  std::snprintf(buf, sizeof buf,
                "generated input per round: %.1f MiB of demand trace",
                input_mib);
  res.info.push_back(buf);
}

Result run_untraced(const Args& args) {
  Result res;
  const auto start = Clock::now();
  SpanLog off(false);
  std::vector<Round> rounds;
  std::vector<double> setup_s;
  while (rounds.size() < kMinRounds || seconds_since(start) < args.seconds) {
    for (std::size_t i = 0; i < kSetupRepsPerRound; ++i)
      setup_s.push_back(mapcal_cold_ms(kBaseParams, 1) * 1e-3);
    rounds.push_back(run_round(args.seed, rounds.size(), off, false));
    const Round& r = rounds.back();
    res.attempted += kVms;
    if (!r.error.empty())
      res.fail("round " + std::to_string(rounds.size() - 1) + ": " + r.error,
               kVms);
  }

  const Round& r0 = rounds.front();
  std::vector<double> rate, lat_us, slots, sim_rate;
  double plan_s = 0.0;
  for (const Round& r : rounds) {
    rate.push_back(static_cast<double>(kVms) / r.plan_s());
    lat_us.push_back(r.plan_s() * 1e6);
    plan_s += r.plan_s();
    slots.insert(slots.end(), r.slot_s.begin(), r.slot_s.end());
    sim_rate.push_back(static_cast<double>(r.sim_vms * kValidateSlots) /
                       r.sim_run_s);
  }
  for (double& s : slots) s *= 1e3;
  const std::size_t n = rounds.size();
  const Tail tail = tail_with_ten_beyond(slots);
  char note[120];
  std::snprintf(note, sizeof note, "p%.2f, %zu slots beyond", tail.percentile,
                tail.beyond);

  res.set("setup_s", median(setup_s), "s", setup_s.size(),
          "cold MapCalTable build (median over the run)");
  res.set("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  res.set("fail_ratio",
          static_cast<double>(r0.unplaced) / static_cast<double>(kVms),
          "fraction", 1, "unplaced VMs / VMs, round 0");
  res.set("plan_vms_per_s", median(rate), "VMs/s", n,
          "median over rounds of fit+table+place");
  res.set("pms_used", static_cast<double>(r0.pms_used), "PMs", 1, "round 0");
  res.set("pms_active_mean", r0.pms_active_mean, "PMs", kValidateSlots,
          "round-0 validation simulation");
  res.set("sim_vm_slots_per_s", median(sim_rate), "VM-slots/s", n,
          "validation simulations (median over rounds)");
  res.set("slot_p50_ms", median(slots), "ms", slots.size(),
          "validation simulations");
  res.set("slot_tail_ms", tail.value, "ms", slots.size(), note);
  res.set("cvr_mean", r0.cvr_mean, "fraction", 1,
          "round-0 validation simulation");
  res.set("migrations", static_cast<double>(r0.migrations), "count", 1,
          "round-0 validation simulation");
  res.set("op_p50_us", median(lat_us), "us", n,
          "op = one planning round (closed loop)");
  res.set("op_p99_us", quantile(lat_us, 0.99), "us", n,
          "op = one planning round (closed loop)");
  res.set("ctl_ops_per_s", static_cast<double>(n) / plan_s, "ops/s", n,
          "planning rounds per second");
  info_lines(res, n);
  res.info.push_back("deterministic: " + fingerprint(r0));
  return res;
}

Result run_traced(const Args& args) {
  Result res;
  SpanLog off(false);
  // Alternating untraced / traced runs of round 0 for half the budget: the
  // medians give the tracing overhead.  The first traced round supplies
  // the spans and counters (every round of one seed does identical work).
  SpanLog spans(true, 1 << 12);
  std::optional<Round> tr;
  std::vector<double> ref_sim, tr_sim;
  std::string want;
  const Overhead overhead = alternate_traced(
      args.seconds / 2, spans, 1 << 12, [&](SpanLog& log, bool first) {
        std::optional<CounterDelta> counters;
        if (first) counters.emplace();
        Round r = run_round(args.seed, 0, log, first);
        if (counters)
          put_counters(res, *counters,
                       {"mapcal.table.builds", "mapcal.table.cache_hits",
                        "linalg.stationary.solves", "placement.tree_descents",
                        "placement.fit_checks", "placement.placed",
                        "sim.migrations", "sim.migrations_failed",
                        "sim.target_searches", "sim.victim_selections",
                        "sim.slot_violations"});
        res.attempted += kVms;
        if (want.empty()) want = fingerprint(r);
        if (!r.error.empty()) res.fail(r.error, kVms);
        if (fingerprint(r) != want)
          res.fail("traced and untraced runs disagree: " + fingerprint(r) +
                       " vs " + want,
                   kVms);
        (log.enabled() ? tr_sim : ref_sim).push_back(r.sim_run_s);
        const double plan_s = r.plan_s();
        if (first) tr.emplace(std::move(r));
        return plan_s;
      });

  const auto tot = spans.totals();
  const double fit_s = tot.at("fit.instance_from_traces").total_s;
  res.set("fit.seconds", fit_s, "s", 1);
  res.set("fit.ns_per_sample",
          fit_s * 1e9 / static_cast<double>(kVms * kSamples), "ns", 1);
  res.set("fit.allocs",
          static_cast<double>(tot.at("fit.instance_from_traces").allocs),
          "count", 1);
  res.set("placement.seconds",
          tot.at("placement.queuing_ffd_with_table").total_s, "s", 1);
  res.set("placement.allocs",
          static_cast<double>(
              tot.at("placement.queuing_ffd_with_table").allocs),
          "count", 1);
  res.set("sim.ctor_seconds", tot.at("sim.ctor").total_s, "s", 1,
          "validation simulation");
  res.set("sim.run_seconds", tot.at("sim.run").total_s, "s", 1,
          "validation simulation");
  res.set("sim.slot_allocs",
          static_cast<double>(tot.at("sim.slot").allocs) / kValidateSlots,
          "count", kValidateSlots, "per slot");
  derived_ratios(res);

  // Probes and ablation on the traced round's instance.
  res.set("queuing.mapcal_cold_ms", mapcal_cold_ms(kBaseParams, kProbeReps),
          "ms", kProbeReps, "probe");
  sharded_probe(tr->fitted, *tr->table, res);
  res.set("sim.ensemble_step_ns_per_vm",
          ensemble_step_ns_per_vm(tr->fitted, derive_seed(args.seed, 7), 20),
          "ns", 20, "probe on the round-0 fitted fleet");
  {
    // Ablation: the same validation simulation without the scheduler.
    Round nomig;
    const PlacementResult again =
        queuing_ffd_with_table(tr->fitted, *tr->table, ffd_options());
    validate(tr->fitted, again, derive_seed(args.seed, 1000), false, off,
             nomig);
    res.set("sim.scheduler_share",
            std::max(0.0, 1.0 - nomig.sim_run_s / median(ref_sim)), "ratio",
            1, "estimate: validation sim with enable_migration=false");
  }
  res.set("bench.trace_overhead", overhead.ratio(), "ratio",
          overhead.untraced_s.size(), "planning round, traced vs untraced");

  char line[200];
  std::snprintf(line, sizeof line,
                "traced vs untraced round 0 (median of %zu each): plan %.4f s "
                "vs %.4f s, validation sim %.4f s vs %.4f s",
                overhead.untraced_s.size(), median(overhead.traced_s),
                median(overhead.untraced_s), median(tr_sim), median(ref_sim));
  res.info.push_back(line);
  report_spans(spans, args.work_dir, res);
  info_lines(res, 1);
  res.info.push_back("deterministic: " + fingerprint(*tr));
  return res;
}

}  // namespace

Result run_plan(const Args& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench

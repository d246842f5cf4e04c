#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "sim/workload_gen.h"

namespace perfbench {

using namespace burstq;

ProblemInstance make_fleet(std::size_t n_vms, std::size_t n_pms,
                           std::uint64_t seed) {
  Rng rng(seed);
  return random_instance(n_vms, n_pms, kBaseParams, InstanceRanges{}, rng);
}

QueuingFfdOptions ffd_options() {
  QueuingFfdOptions o;
  o.rho = kRho;
  o.max_vms_per_pm = kMaxVmsPerPm;
  return o;
}

std::string check_placement(const ProblemInstance& inst,
                            const PlacementResult& res,
                            const MapCalTable& table) {
  const Placement& p = res.placement;
  std::vector<std::uint8_t> listed(inst.n_vms(), 0);
  for (VmId v : res.unplaced) {
    if (v.value >= inst.n_vms() || listed[v.value])
      return "unplaced list holds a bad or repeated VM id";
    listed[v.value] = 1;
    if (p.assigned(v)) return "VM " + std::to_string(v.value) +
                              " is both placed and listed as unplaced";
  }
  std::size_t placed = 0;
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    if (p.assigned(VmId{i})) ++placed;
  if (placed + res.unplaced.size() != inst.n_vms())
    return "VMs neither placed nor listed as unplaced";

  for (std::size_t j = 0; j < inst.n_pms(); ++j) {
    const auto& vms = p.vms_on(PmId{j});
    if (vms.empty()) continue;
    if (vms.size() > table.max_vms_per_pm())
      return "PM " + std::to_string(j) + " exceeds the per-PM VM cap";
    double rb_sum = 0.0;
    double re_max = 0.0;
    for (std::size_t v : vms) {
      rb_sum += inst.vms[v].rb;
      re_max = std::max(re_max, inst.vms[v].re);
    }
    const double footprint =
        re_max * static_cast<double>(table.blocks(vms.size())) + rb_sum;
    if (footprint > inst.pms[j].capacity * (1.0 + kCapacityEpsilon)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "Eq. 17 violated on PM %zu: footprint %.6f > capacity %.6f",
                    j, footprint, inst.pms[j].capacity);
      return buf;
    }
  }
  return {};
}

TimedSim::TimedSim(const ProblemInstance& inst, const Placement& initial,
                   SimConfig cfg, Rng rng, SpanLog& spans, Observer observe,
                   std::uint64_t id)
    : spans_(spans), observe_(std::move(observe)), id_(id) {
  cfg.on_slot = [this](const SlotObservation& ob) {
    const auto now = Clock::now();
    slot_s_.push_back(seconds_between(last_, now));
    spans_.add("sim.slot", slot_s_.size() - 1, last_, now,
               alloc_count() - allocs_);
    if (observe_) observe_(ob, *sim_);
    last_ = Clock::now();
    allocs_ = alloc_count();
  };
  const Span s(spans_, "sim.ctor", id_);
  sim_.emplace(inst, initial, std::move(cfg), std::move(rng));
}

SimReport TimedSim::run() {
  const Span s(spans_, "sim.run", id_);
  const auto t0 = Clock::now();
  last_ = t0;
  allocs_ = alloc_count();
  SimReport report = sim_->run();
  run_s_ = seconds_since(t0);
  return report;
}

double active_mean(const SimReport& r) {
  double s = 0.0;
  for (std::size_t u : r.pms_used_timeline) s += static_cast<double>(u);
  return s / static_cast<double>(
                 std::max<std::size_t>(1, r.pms_used_timeline.size()));
}

CounterDelta::CounterDelta() : before_(obs::metrics().scrape()) {}

double CounterDelta::delta(std::string_view name) const {
  const obs::MetricsSnapshot now = obs::metrics().scrape();
  const obs::CounterSample* a = before_.counter(name);
  const obs::CounterSample* b = now.counter(name);
  const std::uint64_t va = a != nullptr ? a->value : 0;
  const std::uint64_t vb = b != nullptr ? b->value : 0;
  return static_cast<double>(vb - va);
}

void put_counters(Result& r, const CounterDelta& d,
                  const std::vector<const char*>& names) {
  for (const char* n : names) r.set(n, d.delta(n), "count", 1, "obs counter");
}

void derived_ratios(Result& r) {
  const auto value = [&](const char* name) {
    const auto it = r.metrics.find(name);
    return it == r.metrics.end() ? 0.0 : it->second.value;
  };
  const double checks = value("placement.fit_checks");
  r.set("placement.confirm_ratio",
        checks > 0 ? value("placement.placed") / checks : 0.0, "ratio", 1,
        "placed / fit_checks");
  const double failed = value("sim.migrations_failed");
  const double triggered = value("sim.migrations") + failed;
  r.set("sim.migration_fail_ratio", triggered > 0 ? failed / triggered : 0.0,
        "ratio", 1, "failed / triggered migrations");
}

double mapcal_cold_ms(const OnOffParams& params, std::size_t reps) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < reps; ++i) {
    mapcal_table_cache_clear();
    const auto t0 = Clock::now();
    const MapCalTable table(kMaxVmsPerPm, params, kRho);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

void sharded_probe(const ProblemInstance& inst, const MapCalTable& table,
                   Result& r) {
  QueuingFfdOptions inc = ffd_options();
  auto t0 = Clock::now();
  const PlacementResult a = queuing_ffd_with_table(inst, table, inc);
  const double t_inc = seconds_since(t0);

  QueuingFfdOptions sh = ffd_options();
  sh.engine = PlacementEngine::kSharded;
  sh.sharded.shards = 4;
  sh.sharded.threads = 4;
  const CounterDelta d;
  t0 = Clock::now();
  const PlacementResult b = queuing_ffd_with_table(inst, table, sh);
  const double t_sh = seconds_since(t0);
  r.set("placement.sharded4_seconds", t_sh, "s", 1, "probe");
  r.set("placement.sharded4_speedup", t_inc / t_sh, "ratio", 1,
        "probe: incremental / sharded time");
  r.set("placement.shard.spills", d.delta("placement.shard.spills"), "count",
        1, "probe");
  if (!check_placement(inst, b, table).empty() ||
      b.unplaced.size() != a.unplaced.size())
    r.fail("sharded probe produced an invalid placement");
}

double ensemble_step_ns_per_vm(const ProblemInstance& inst,
                               std::uint64_t seed, std::size_t steps) {
  WorkloadEnsemble ens(inst, Rng(seed));
  std::vector<double> ns;
  for (std::size_t s = 0; s < steps; ++s) {
    const auto t0 = Clock::now();
    ens.step();
    ns.push_back(seconds_since(t0) * 1e9 /
                 static_cast<double>(inst.n_vms()));
  }
  return median(ns);
}

}  // namespace perfbench

// burstq_perfbench — the repository's end-to-end benchmark binary.
//
//   burstq_perfbench --workload plan|steady|flash_crowd|control_plane
//                    --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a human-readable ledger (one metric per line with unit and
// sample count) followed, as the last line, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the traced mode and reports the per-layer ledger.  Exit code 1
// when a correctness check failed, 2 on usage or runtime errors.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "bench.h"
#include "common/parallel.h"

namespace {

using perfbench::Result;

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;  ///< the end-to-end metric it should move, and where
};

// The per-layer ledger.  Every traced run reports all of these; a layer a
// workload does not exercise reads 0 there, which is the prediction
// ("nothing elsewhere").
constexpr LayerMetric kLayers[] = {
    {"fit.seconds", "s", "fit", "plan_vms_per_s on plan; nothing elsewhere"},
    {"fit.ns_per_sample", "ns", "fit", "plan_vms_per_s on plan"},
    {"fit.allocs", "count", "fit", "plan_vms_per_s on plan"},
    {"queuing.mapcal_cold_ms", "ms", "queuing", "setup_s on all workloads"},
    {"mapcal.table.builds", "count", "queuing",
     "setup_s on all; small share of plan_vms_per_s"},
    {"mapcal.table.cache_hits", "count", "queuing", "setup_s on all"},
    {"linalg.stationary.solves", "count", "queuing", "setup_s on all"},
    {"placement.seconds", "s", "placement",
     "plan_vms_per_s on plan; setup_s on steady/flash_crowd"},
    {"placement.allocs", "count", "placement", "plan_vms_per_s on plan"},
    {"placement.tree_descents", "count", "placement", "plan_vms_per_s on plan"},
    {"placement.fit_checks", "count", "placement", "plan_vms_per_s on plan"},
    {"placement.placed", "count", "placement", "plan_vms_per_s on plan"},
    {"placement.confirm_ratio", "ratio", "placement",
     "plan_vms_per_s on plan (placed / fit_checks)"},
    {"placement.sharded4_seconds", "s", "placement",
     "plan_vms_per_s on plan (probe: S=4 shards, 4 threads)"},
    {"placement.sharded4_speedup", "ratio", "placement",
     "plan_vms_per_s on plan (probe: incremental / sharded4 time)"},
    {"placement.shard.spills", "count", "placement",
     "plan_vms_per_s on plan (probe)"},
    {"sim.ctor_seconds", "s", "sim", "setup_s on steady/flash_crowd"},
    {"sim.run_seconds", "s", "sim",
     "sim_vm_slots_per_s, slot_p50_ms on steady/flash_crowd"},
    {"sim.slot_allocs", "count", "sim",
     "sim_vm_slots_per_s on steady/flash_crowd (per slot)"},
    {"sim.migrations", "count", "sim", "slot_tail_ms on flash_crowd"},
    {"sim.migrations_failed", "count", "sim", "slot_tail_ms on flash_crowd"},
    {"sim.migration_fail_ratio", "ratio", "sim",
     "none directly (failed / triggered migrations)"},
    {"sim.target_searches", "count", "sim",
     "sim_vm_slots_per_s, slot_tail_ms on flash_crowd"},
    {"sim.victim_selections", "count", "sim",
     "sim_vm_slots_per_s on flash_crowd"},
    {"sim.slot_violations", "count", "sim", "cvr_mean, fail_ratio on sims"},
    {"sim.ensemble_step_ns_per_vm", "ns", "sim",
     "sim_vm_slots_per_s, slot_p50_ms on steady (probe: chain stepping)"},
    {"sim.scheduler_share", "ratio", "sim",
     "sim_vm_slots_per_s, slot_tail_ms on flash_crowd; no move on steady "
     "(estimate: enable_migration=false rerun)"},
    {"fault.pm.crashes", "count", "fault", "slot_tail_ms on steady"},
    {"fault.pm.recoveries", "count", "fault", "slot_tail_ms on steady"},
    {"fault.evacuations", "count", "fault",
     "slot_tail_ms, sim_vm_slots_per_s on steady"},
    {"fault.queue.enqueued", "count", "fault", "slot_tail_ms on steady"},
    {"migration.retries", "count", "fault", "slot_tail_ms on steady"},
    {"fault.share", "ratio", "fault",
     "slot_tail_ms, sim_vm_slots_per_s on steady; nothing on flash_crowd "
     "(estimate: no-fault-plan rerun)"},
    {"durable.wal.commits", "count", "durable",
     "slot_tail_ms on steady; op_p50_us on control_plane"},
    {"durable.snapshot.writes", "count", "durable",
     "slot_tail_ms on steady; op_p99_us on control_plane"},
    {"durable.ctrl.snapshots", "count", "durable", "op_p99_us on control_plane"},
    {"durable.bytes", "bytes", "durable",
     "slot_tail_ms on steady; op_p50_us on control_plane (state dir size)"},
    {"durable.share", "ratio", "durable",
     "slot_tail_ms on steady; op_p50_us, op_p99_us, ctl_ops_per_s on "
     "control_plane (estimate: rerun without durability)"},
    {"obs.trace.bytes", "bytes", "obs", "sim_vm_slots_per_s on steady only"},
    {"obs.trace.events", "count", "obs", "sim_vm_slots_per_s on steady only"},
    {"obs.share", "ratio", "obs",
     "sim_vm_slots_per_s on steady only (estimate: recorder-off rerun)"},
    {"core.admit_us.p50", "us", "core", "op_p50_us, ctl_ops_per_s"},
    {"core.admit_us.p99", "us", "core", "op_p99_us"},
    {"core.depart_us.p50", "us", "core", "op_p50_us, ctl_ops_per_s"},
    {"core.depart_us.p99", "us", "core", "op_p99_us"},
    {"core.resize_us.p50", "us", "core", "op_p50_us, ctl_ops_per_s"},
    {"core.resize_us.p99", "us", "core", "op_p99_us"},
    {"core.tick_ms.p50", "ms", "core", "op_p99_us (head-of-line wait)"},
    {"core.tick_ms.p99", "ms", "core", "op_p99_us (head-of-line wait)"},
    {"core.crash_ms.p50", "ms", "core", "op_p99_us (head-of-line wait)"},
    {"core.crash_ms.p99", "ms", "core", "op_p99_us (head-of-line wait)"},
    {"core.wait_us.p99", "us", "core", "op_p99_us (due -> start wait)"},
    {"core.gen_lag_ms", "ms", "core",
     "none (generator lateness; large values invalidate op_* figures)"},
    {"core.allocs_per_admit", "count", "core", "op_p50_us, ctl_ops_per_s"},
    {"controller.resize.moved", "count", "core", "op_p50_us on control_plane"},
    {"controller.resize.rejected", "count", "core",
     "fail_ratio on control_plane"},
    {"placement.shard.budget_exhausted", "count", "core",
     "fail_ratio on control_plane"},
    {"bench.trace_overhead", "ratio", "bench",
     "none (traced / untraced time of the workload's timed section - 1)"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "burstq_perfbench: %s\nusage: burstq_perfbench --workload "
               "plan|steady|flash_crowd|control_plane --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(key));
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--work-dir") {
        a.work_dir = value;
      } else {
        usage("unknown option " + std::string(key));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(key) + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0)
    usage("--seconds must be in (0, 600]");
  if (a.work_dir.empty()) a.work_dir = ".bench_build/work";
  a.work_dir += "/" + a.workload + "-" + std::to_string(a.seed) +
                (a.trace ? "-trace" : "");
  return a;
}

void print_result(const perfbench::Args& args, Result& r) {
  if (args.trace)
    for (const LayerMetric& m : kLayers)
      if (!r.metrics.count(m.name))
        r.set(m.name, 0.0, m.unit, 0, "layer not exercised here");

  std::printf("# burstq perfbench  workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, perfbench::bench_threads());
  for (const std::string& line : r.info) std::printf("# %s\n", line.c_str());
  for (const auto& [name, m] : r.metrics) {
    std::string moves;
    for (const LayerMetric& l : kLayers)
      if (name == l.name) moves = std::string("  [") + l.layer +
                                  "] should move: " + l.moves;
    std::printf("%-34s %.6g %s  (n=%zu)%s%s\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples,
                m.note.empty() ? "" : ("  " + m.note).c_str(), moves.c_str());
  }
  for (const std::string& e : r.errors)
    std::printf("# CHECK FAILED: %s\n", e.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.errors.empty() ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  burstq::set_thread_count_override(perfbench::bench_threads());
  try {
    std::filesystem::create_directories(args.work_dir);
    Result r;
    if (args.workload == "plan")
      r = perfbench::run_plan(args);
    else if (args.workload == "steady" || args.workload == "flash_crowd")
      r = perfbench::run_sim(args);
    else if (args.workload == "control_plane")
      r = perfbench::run_control_plane(args);
    else
      usage("unknown workload " + args.workload);
    if (r.attempted == 0) r.fail("no work was attempted");
    // Drop run state (WAL, snapshots, flight traces); keep the span dump.
    for (const auto& e : std::filesystem::directory_iterator(args.work_dir))
      if (e.path().filename() != "spans.jsonl")
        std::filesystem::remove_all(e.path());
    print_result(args, r);
    return r.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "burstq_perfbench: %s\n", e.what());
    return 2;
  }
}

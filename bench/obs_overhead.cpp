// Telemetry overhead study: what does the observability layer cost on
// the hot paths, and does scraping a live run perturb it?
//
// Five measurements:
//
//   primitives   ns/op for the BURSTQ_COUNT / GAUGE / HIST / SPAN macros
//                plus a full registry scrape and a Prometheus render.
//                Under -DBURSTQ_NO_OBS the macros compile to nothing and
//                the per-op cost reads ~0.
//   queuing FFD  Algorithm 2 end-to-end (MapCal table build + the
//                incremental placement engine), cold and warm cache.
//   slot loop    ns/slot for the ClusterSimulator main loop on an
//                overcommitted instance (migrations + CVR tracking +
//                SLO windows), run twice with the same seed.  The two
//                SimReports must be field-identical or the harness
//                exits 1 — instrumentation must not leak into results.
//   scrape load  the same run with a background thread hammering
//                scrape() + render_prometheus() throughout.  The report
//                must still match the baseline bit-for-bit, proving a
//                /metrics scraper cannot perturb a deterministic run.
//   recorder     the same run again with the flight recorder at detail
//                level, plain BTRC and BTRC+LZ: write throughput,
//                on-disk bytes, and full read-back throughput.  Emits
//                BENCH_trace.json (the bytes and the event count are
//                deterministic and gated); skipped (with a stub JSON)
//                under -DBURSTQ_NO_OBS since a stripped build records no
//                events.
//
// CI builds this twice (default and -DBURSTQ_NO_OBS=ON) and compares the
// two BENCH_obs.json files: the instrumented slot loop must stay within
// a few percent of the stripped build.
//
// Output: console tables + BENCH_obs.json and BENCH_trace.json in
// bench_out/ (BURSTQ_OUT_DIR).
//
// Usage: obs_overhead [--smoke] [--vms N] [--slots N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/args.h"
#include "obs/event_log.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "placement/placement.h"
#include "placement/queuing_ffd.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"
#include "sim/cluster_sim.h"

namespace {

using namespace burstq;

template <typename F>
double time_s(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Field-by-field SimReport equality.  Determinism means exact doubles.
bool reports_identical(const SimReport& a, const SimReport& b) {
  return a.total_migrations == b.total_migrations &&
         a.failed_migrations == b.failed_migrations &&
         a.pms_used_end == b.pms_used_end &&
         a.pms_used_max == b.pms_used_max &&
         a.pms_used_timeline == b.pms_used_timeline &&
         a.migrations_per_slot == b.migrations_per_slot &&
         a.events.size() == b.events.size() && a.pm_cvr == b.pm_cvr &&
         a.pm_windowed_cvr_end == b.pm_windowed_cvr_end &&
         a.mean_cvr == b.mean_cvr && a.max_cvr == b.max_cvr &&
         a.energy_wh == b.energy_wh;
}

struct PrimitiveCost {
  std::string name;
  double ns_per_op{0.0};
};

}  // namespace

int main(int argc, char** argv) {
  using burstq::bench::banner;

  ArgParser args("obs_overhead",
                 "telemetry hot-path cost and scrape-perturbation check");
  args.add_flag("smoke", "tiny run for CI smoke tests");
  args.add_option("vms", "number of VMs in the slot-loop instance", "400");
  args.add_option("slots", "simulated slots per run", "600");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage();
    return 2;
  }
  const bool smoke = args.flag("smoke");
  const std::size_t n_vms =
      smoke ? 60 : static_cast<std::size_t>(args.get_int("vms"));
  const std::size_t slots =
      smoke ? 80 : static_cast<std::size_t>(args.get_int("slots"));
  const std::size_t prim_iters = smoke ? 200'000 : 2'000'000;

  banner("telemetry primitives (" + std::to_string(prim_iters) + " ops)");
  std::vector<PrimitiveCost> prims;
  const auto prim = [&](const std::string& name, auto&& body) {
    const double s = time_s([&] {
      for (std::size_t i = 0; i < prim_iters; ++i) body(i);
    });
    prims.push_back({name, s * 1e9 / static_cast<double>(prim_iters)});
  };
  prim("counter.add", [](std::size_t) { BURSTQ_COUNT("bench.count", 1); });
  prim("gauge.set", [](std::size_t i) {
    BURSTQ_GAUGE("bench.gauge", static_cast<double>(i));
  });
  prim("hist.record", [](std::size_t i) {
    BURSTQ_HIST("bench.hist", static_cast<std::uint64_t>(i));
  });
  prim("span.enter_exit", [](std::size_t) { BURSTQ_SPAN("bench.span"); });

  // Scrape + render cost over whatever the primitive loops left behind.
  const std::size_t scrape_iters = smoke ? 200 : 2'000;
  obs::MetricsSnapshot last;
  const double scrape_s = time_s([&] {
    for (std::size_t i = 0; i < scrape_iters; ++i)
      last = obs::metrics().scrape();
  });
  prims.push_back(
      {"registry.scrape", scrape_s * 1e9 / static_cast<double>(scrape_iters)});
  std::string rendered;
  const double render_s = time_s([&] {
    for (std::size_t i = 0; i < scrape_iters; ++i)
      rendered = obs::render_prometheus(last);
  });
  prims.push_back(
      {"prometheus.render", render_s * 1e9 / static_cast<double>(scrape_iters)});

  ConsoleTable prim_table({"primitive", "ns/op"});
  for (const auto& p : prims)
    prim_table.add_row({p.name, ConsoleTable::num(p.ns_per_op, 1)});
  prim_table.print(std::cout);

  // ---- MapCal solve + incremental placement (the paper's hot path) ---
  banner("queuing FFD (MapCal + incremental placement, " +
         std::to_string(n_vms) + " VMs)");
  ProblemInstance ffd_inst;
  for (std::size_t i = 0; i < n_vms; ++i)
    ffd_inst.vms.push_back(VmSpec{OnOffParams{0.05, 0.2}, 1.0, 4.0});
  ffd_inst.pms.assign(n_vms / 2, PmSpec{20.0});
  mapcal_table_cache_clear();
  std::optional<QueuingFfdOutcome> cold_out;
  const double ffd_cold_s = time_s(
      [&] { cold_out.emplace(queuing_ffd(ffd_inst, QueuingFfdOptions{})); });
  std::optional<QueuingFfdOutcome> warm_out;
  const double ffd_warm_s = time_s(
      [&] { warm_out.emplace(queuing_ffd(ffd_inst, QueuingFfdOptions{})); });
  ConsoleTable ffd_table({"run", "seconds", "us/vm", "placed"});
  const double d_vms = static_cast<double>(n_vms);
  ffd_table.add_row(
      {"cold (MapCal build)", ConsoleTable::num(ffd_cold_s, 4),
       ConsoleTable::num(ffd_cold_s * 1e6 / d_vms, 1),
       std::to_string(n_vms - cold_out->result.unplaced.size())});
  ffd_table.add_row(
      {"warm (table cached)", ConsoleTable::num(ffd_warm_s, 4),
       ConsoleTable::num(ffd_warm_s * 1e6 / d_vms, 1),
       std::to_string(n_vms - warm_out->result.unplaced.size())});
  ffd_table.print(std::cout);

  // ---- slot loop: overcommitted instance with live SLO windows -------
  banner("simulator slot loop (" + std::to_string(n_vms) + " VMs, " +
         std::to_string(slots) + " slots)");
  ProblemInstance inst;
  for (std::size_t i = 0; i < n_vms; ++i)
    inst.vms.push_back(VmSpec{OnOffParams{0.05, 0.08}, 2.0, 6.0});
  inst.pms.assign(n_vms / 4, PmSpec{20.0});
  Placement placed(inst);
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    placed.assign(VmId{i}, PmId{i % inst.n_pms()});

  const auto run_once = [&](obs::SloTracker* slo) {
    SimConfig cfg;
    cfg.slots = slots;
    cfg.slo = slo;
    ClusterSimulator sim(inst, placed, cfg, Rng(42));
    return sim.run();
  };

  obs::SloOptions slo_opts;
  slo_opts.rho = 0.05;
  obs::SloTracker slo_a(inst.n_pms(), slo_opts);
  SimReport baseline;
  const double base_s = time_s([&] { baseline = run_once(&slo_a); });

  obs::SloTracker slo_b(inst.n_pms(), slo_opts);
  SimReport repeat;
  const double repeat_s = time_s([&] { repeat = run_once(&slo_b); });
  if (!reports_identical(baseline, repeat)) {
    std::cerr << "FATAL: same-seed runs diverged — instrumentation is "
                 "leaking into simulation results\n";
    return 1;
  }

  // Same run again while a scraper thread hammers the registry and the
  // SLO tracker, as a live /metrics endpoint would.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  obs::SloTracker slo_c(inst.n_pms(), slo_opts);
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text =
          obs::render_prometheus(obs::metrics().scrape());
      (void)slo_c.report().render();
      (void)text;
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  SimReport scraped;
  const double scraped_s = time_s([&] { scraped = run_once(&slo_c); });
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  if (!reports_identical(baseline, scraped)) {
    std::cerr << "FATAL: a concurrent scraper changed the simulation "
                 "outcome — telemetry must be read-only\n";
    return 1;
  }

  const double d_slots = static_cast<double>(slots);
  ConsoleTable loop_table({"run", "seconds", "ns/slot", "identical"});
  loop_table.add_row({"baseline", ConsoleTable::num(base_s, 3),
                      ConsoleTable::num(base_s * 1e9 / d_slots, 0), "-"});
  loop_table.add_row({"repeat", ConsoleTable::num(repeat_s, 3),
                      ConsoleTable::num(repeat_s * 1e9 / d_slots, 0),
                      "yes"});
  loop_table.add_row({"under scrape", ConsoleTable::num(scraped_s, 3),
                      ConsoleTable::num(scraped_s * 1e9 / d_slots, 0),
                      "yes"});
  loop_table.set_title("same-seed determinism under load (scrapes=" +
                       std::to_string(scrapes.load()) + ")");
  loop_table.print(std::cout);

  // ---- span-event emission: off vs sampled vs full -------------------
  // The same slot loop with a detail-level BTRC sink open, at three
  // span-event sampling rates.  Row "off" prices the sink alone; the
  // deltas price span.begin/span.end emission.  Virtual clock keeps the
  // recorded trace deterministic (and its cost is the same atomic
  // fetch_add the wall path pays for ids anyway).
  struct SpanRow {
    std::string name;
    std::uint32_t every{0};
    double seconds{0.0};
    std::uint64_t emitted{0};
    std::uint64_t dropped{0};
  };
  std::vector<SpanRow> span_rows{
      {"off", 0}, {"sampled 1/64", 64}, {"full", 1}};
  if (obs::kEnabled) {
    banner("span events (slot loop + detail sink, " +
           std::to_string(slots) + " slots)");
    const auto counter_value = [](const char* name) -> std::uint64_t {
      const obs::MetricsSnapshot snap = obs::metrics().scrape();
      const obs::CounterSample* c = snap.counter(name);
      return c == nullptr ? 0 : c->value;
    };
    const std::string span_trace =
        burstq::bench::out_dir() + "/span_bench.btrc";
    for (auto& row : span_rows) {
      const std::uint64_t emitted0 =
          counter_value("obs.span.events_emitted");
      const std::uint64_t dropped0 =
          counter_value("obs.span.events_dropped");
      obs::set_span_events({row.every, /*virtual_clock=*/true});
      row.seconds = time_s([&] {
        obs::events().open(span_trace, obs::EventFormat::kBinary,
                           obs::EventLevel::kDetail, false);
        SimConfig cfg;
        cfg.slots = slots;
        ClusterSimulator sim(inst, placed, cfg, Rng(42));
        (void)sim.run();
        obs::events().close();
      });
      obs::set_span_events({});
      row.emitted = counter_value("obs.span.events_emitted") - emitted0;
      row.dropped = counter_value("obs.span.events_dropped") - dropped0;
    }
    ConsoleTable span_table(
        {"sampling", "seconds", "ns/slot", "events", "dropped"});
    for (const auto& row : span_rows)
      span_table.add_row(
          {row.name, ConsoleTable::num(row.seconds, 3),
           ConsoleTable::num(row.seconds * 1e9 / d_slots, 0),
           std::to_string(row.emitted), std::to_string(row.dropped)});
    span_table.set_title("span.begin/span.end emission cost");
    span_table.print(std::cout);
  }

  const std::string json_path =
      burstq::bench::out_dir() + "/BENCH_obs.json";
  {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"obs_overhead\",\n"
         << "  \"obs_enabled\": " << (obs::kEnabled ? "true" : "false")
         << ",\n  \"vms\": " << n_vms << ",\n  \"slots\": " << slots
         << ",\n  \"primitives_ns\": {\n";
    for (std::size_t i = 0; i < prims.size(); ++i)
      json << "    \"" << prims[i].name << "\": " << prims[i].ns_per_op
           << (i + 1 < prims.size() ? "," : "") << "\n";
    json << "  },\n  \"queuing_ffd\": {\n"
         << "    \"cold_seconds\": " << ffd_cold_s
         << ",\n    \"warm_seconds\": " << ffd_warm_s
         << ",\n    \"placed\": "
         << n_vms - cold_out->result.unplaced.size() << "\n  },\n"
         << "  \"slot_loop\": {\n"
         << "    \"baseline_ns_per_slot\": " << base_s * 1e9 / d_slots
         << ",\n    \"repeat_ns_per_slot\": " << repeat_s * 1e9 / d_slots
         << ",\n    \"scraped_ns_per_slot\": " << scraped_s * 1e9 / d_slots
         << ",\n    \"scrapes_during_run\": " << scrapes.load()
         << ",\n    \"deterministic\": true\n  },\n"
         << "  \"span_events\": {\n"
         << "    \"skipped\": " << (obs::kEnabled ? "false" : "true");
    if (obs::kEnabled) {
      json << ",\n    \"off_ns_per_slot\": "
           << span_rows[0].seconds * 1e9 / d_slots
           << ",\n    \"sampled64_ns_per_slot\": "
           << span_rows[1].seconds * 1e9 / d_slots
           << ",\n    \"full_ns_per_slot\": "
           << span_rows[2].seconds * 1e9 / d_slots
           << ",\n    \"sampled64_events\": " << span_rows[1].emitted
           << ",\n    \"full_events\": " << span_rows[2].emitted;
    }
    json << "\n  }\n}\n";
  }
  std::cout << "\nwrote " << json_path << "\n";

  // ---- flight recorder: plain vs LZ BTRC on a detail trace -----------
  banner("flight recorder (detail trace, " + std::to_string(slots) +
         " slots)");
  const std::string trace_json_path =
      burstq::bench::out_dir() + "/BENCH_trace.json";
  if (!obs::kEnabled) {
    // A stripped build emits no events; recording an empty trace would
    // produce meaningless ratios.  Leave a stub so CI artifact globs and
    // cross-build comparisons still find the file.
    std::ofstream json(trace_json_path);
    json << "{\n  \"bench\": \"obs_overhead.trace\",\n"
         << "  \"obs_enabled\": false,\n  \"skipped\": true\n}\n";
    std::cout << "flight recorder stripped (BURSTQ_NO_OBS); wrote stub "
              << trace_json_path << "\n";
  } else {
    struct FormatResult {
      std::string name;
      std::string path;
      bool compress{false};
      double write_s{0.0};
      double read_s{0.0};
      std::uint64_t bytes{0};
      std::size_t events{0};
    };
    std::vector<FormatResult> fmts{
        {"btrc", burstq::bench::out_dir() + "/trace_bench.btrc", false},
        {"btrc+lz", burstq::bench::out_dir() + "/trace_bench_lz.btrc",
         true}};
    for (auto& f : fmts) {
      f.write_s = time_s([&] {
        obs::events().open(f.path, obs::event_format_from_path(f.path),
                           obs::EventLevel::kDetail, f.compress);
        SimConfig cfg;
        cfg.slots = slots;
        ClusterSimulator sim(inst, placed, cfg, Rng(42));
        (void)sim.run();
        obs::events().close();
      });
      {
        std::ifstream in(f.path, std::ios::binary | std::ios::ate);
        f.bytes = static_cast<std::uint64_t>(in.tellg());
      }
      // Min-of-N read timing: a single cold read is dominated by page
      // cache and allocator warm-up noise; the minimum is the stable
      // decode cost the formats are actually being compared on.
      std::vector<obs::RecordedEvent> readback;
      f.read_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 5; ++rep) {
        const double s =
            time_s([&] { readback = obs::read_events_btrc(f.path); });
        f.read_s = std::min(f.read_s, s);
      }
      f.events = readback.size();
    }
    ConsoleTable trace_table(
        {"format", "bytes", "write s", "read s", "read Mev/s"});
    for (const auto& f : fmts)
      trace_table.add_row(
          {f.name, std::to_string(f.bytes), ConsoleTable::num(f.write_s, 3),
           ConsoleTable::num(f.read_s, 3),
           ConsoleTable::num(static_cast<double>(f.events) / f.read_s / 1e6,
                             2)});
    trace_table.set_title("BTRC, plain and LZ (" +
                          std::to_string(fmts[0].events) + " events)");
    trace_table.print(std::cout);

    std::ofstream json(trace_json_path);
    json << "{\n  \"bench\": \"obs_overhead.trace\",\n"
         << "  \"obs_enabled\": true,\n  \"slots\": " << slots
         << ",\n  \"events\": " << fmts[0].events << ",\n  \"formats\": {\n";
    for (std::size_t i = 0; i < fmts.size(); ++i) {
      const auto& f = fmts[i];
      json << "    \"" << f.name << "\": {\n"
           << "      \"bytes\": " << f.bytes
           << ",\n      \"write_seconds\": " << f.write_s
           << ",\n      \"read_seconds\": " << f.read_s
           << ",\n      \"read_events_per_second\": "
           << static_cast<double>(f.events) / f.read_s << "\n    }"
           << (i + 1 < fmts.size() ? "," : "") << "\n";
    }
    json << "  }\n}\n";
    std::cout << "wrote " << trace_json_path << "\n";
  }

  burstq::bench::emit_obs_summary("obs_overhead");
  return 0;
}

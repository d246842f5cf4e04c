// Shared helpers for the experiment harnesses.
//
// Every fig*/ablation* binary prints a paper-style console table and drops
// the same series as CSV into the output directory (bench_out/ by default,
// overridable via the BURSTQ_OUT_DIR environment variable) so the figures
// can be re-plotted.  Harnesses also drop a `<name>_obs.csv` metrics
// summary next to their data CSVs — see emit_obs_summary().

#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/csv.h"
#include "common/table.h"
#include "obs/obs.h"
#include "obs/summary.h"

namespace burstq::bench {

/// Directory for CSV dumps; created on first use.  Defaults to
/// "bench_out"; set BURSTQ_OUT_DIR to redirect (useful for CI artifact
/// collection and for keeping parallel runs apart).
inline std::string out_dir() {
  const char* env = std::getenv("BURSTQ_OUT_DIR");
  const std::string dir =
      (env != nullptr && *env != '\0') ? std::string(env) : "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Opens a CSV in the output directory.
inline CsvWriter open_csv(const std::string& name) {
  return CsvWriter(out_dir() + "/" + name);
}

/// Prints a banner separating experiment sections.
inline void banner(const std::string& text) {
  std::cout << "\n" << text << "\n"
            << std::string(text.size(), '-') << "\n";
}

/// Scrapes the metrics registry, prints the span/counter summary to
/// stdout and writes the full snapshot to `<out_dir>/<name>_obs.csv`.
/// The CSV leads with a `meta,trace_format,<fmt>` row naming the event
/// sink format the run recorded ("btrc", or "none" when no sink was
/// opened).
/// Call once at the end of a harness; a no-op table under BURSTQ_NO_OBS.
inline void emit_obs_summary(const std::string& name) {
  const obs::MetricsSnapshot snap = obs::metrics().scrape();
  obs::SummaryOptions opts;
  opts.title = name + " observability";
  obs::print_summary(std::cout, snap, opts);
  if (!snap.empty())
    obs::write_summary_csv(out_dir() + "/" + name + "_obs.csv", snap,
                           {{"trace_format", obs::events().sink_format_name()}});
}

}  // namespace burstq::bench

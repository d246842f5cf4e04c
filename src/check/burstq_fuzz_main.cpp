// burstq_fuzz — differential fuzzing of the solver stack.
//
//   burstq_fuzz --seed 1 --instances 1000          # the default sweep
//   burstq_fuzz --oracles stationary,cache         # subset of oracles
//   burstq_fuzz --replay 0x1b873593deadbeef        # one case, by seed
//   burstq_fuzz --obs-out fuzz.btrc                # machine-readable log
//
// Exit status 0 when every oracle agrees on every case, 1 on any
// discrepancy (each printed with its replayable case seed), 2 on usage
// errors.  Same seed => bit-identical run.

#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "check/fuzz.h"
#include "common/args.h"
#include "obs/obs.h"

namespace {

using burstq::check::FuzzOptions;
using burstq::check::FuzzSummary;

/// Parses "all" or a comma-separated subset of
/// stationary,cvr,placement,cache,recovery,durability into the option
/// booleans.
bool apply_oracle_selection(const std::string& text, FuzzOptions& options) {
  if (text == "all") return true;
  options.stationary = options.cvr = options.placement = options.cache =
      options.recovery = options.durability = false;
  std::istringstream iss(text);
  std::string name;
  while (std::getline(iss, name, ',')) {
    if (name == "stationary") {
      options.stationary = true;
    } else if (name == "cvr") {
      options.cvr = true;
    } else if (name == "placement") {
      options.placement = true;
    } else if (name == "cache") {
      options.cache = true;
    } else if (name == "recovery") {
      options.recovery = true;
    } else if (name == "durability") {
      options.durability = true;
    } else {
      std::fprintf(stderr, "unknown oracle '%s'\n", name.c_str());
      return false;
    }
  }
  return options.stationary || options.cvr || options.placement ||
         options.cache || options.recovery || options.durability;
}

void print_summary(const FuzzSummary& summary) {
  for (const auto& d : summary.discrepancies)
    std::fprintf(stderr,
                 "DISCREPANCY [%s] case %zu (replay with --replay "
                 "0x%llx): %s\n",
                 d.oracle.c_str(), d.index,
                 static_cast<unsigned long long>(d.case_seed),
                 d.detail.c_str());
  std::printf(
      "burstq_fuzz: %zu instance(s)%s, %zu oracle run(s), %zu skip(s), "
      "%zu discrepanc%s\n",
      summary.instances,
      summary.stopped_early ? " (stopped early: wall-clock budget)" : "",
      summary.oracle_runs, summary.oracle_skips,
      summary.discrepancies.size(),
      summary.discrepancies.size() == 1 ? "y" : "ies");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace burstq;

  ArgParser args("burstq_fuzz",
                 "differential fuzz oracle over the burstq solver stack");
  args.add_option("seed", "master seed; case i derives its own seed", "1");
  args.add_option("instances", "number of fuzz cases to run", "1000");
  args.add_option("oracles",
                  "'all' or comma list of stationary,cvr,placement,cache,"
                  "recovery,durability",
                  "all");
  args.add_option("max-seconds",
                  "wall-clock budget; the sweep stops cleanly at the next "
                  "case boundary and prints a partial summary (0 = off)",
                  "0");
  args.add_option("replay",
                  "run the single case with this seed (decimal or 0x hex) "
                  "instead of a sweep");
  args.add_option("obs-out",
                  "record fuzz.discrepancy/fuzz.summary events here "
                  "(.btrc; convert with 'burstq_cli trace tocsv')");
  args.add_option("obs-level", "event level: off | decisions | detail",
                  "decisions");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }

  try {
    FuzzOptions options;
    options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    options.instances =
        static_cast<std::size_t>(args.get_int("instances"));
    options.max_seconds = args.get_double("max-seconds");
    if (options.max_seconds < 0.0) {
      std::fprintf(stderr, "--max-seconds must be >= 0\n");
      return 2;
    }
    if (!apply_oracle_selection(args.get("oracles"), options)) return 2;

    if (args.has("obs-out")) {
      const std::string path = args.get("obs-out");
      obs::events().open(path, obs::event_format_from_path(path),
                         obs::parse_event_level(args.get("obs-level")));
    }

    FuzzSummary summary;
    if (args.has("replay")) {
      const std::uint64_t case_seed =
          std::stoull(args.get("replay"), nullptr, 0);
      summary = check::replay_case(case_seed, options);
    } else {
      summary = check::run_fuzz(options);
    }

    if (args.has("obs-out")) obs::events().close();
    print_summary(summary);
    return summary.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "burstq_fuzz: fatal: %s\n", e.what());
    return 2;
  }
}

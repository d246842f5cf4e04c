// Figure 6 — runtime performance (capacity violation ratio) of each
// placement, without live migration: only local resizing, rectangular
// ON-OFF demand.
//
// The paper plots per-PM CVRs for QUEUE and RB placements (RP is omitted:
// it never violates).  QUEUE must stay bounded by rho = 0.01 with only "a
// few PMs slightly higher", while RB is "disastrous".  Beyond the paper,
// the table also reports violation *episode* structure (runs of
// consecutive violated slots) and carries the SBP related-work baseline:
// SBP's amplitude-only model concentrates violations into long episodes
// even where its CVR looks moderate.
//
// With --obs-out the run doubles as the flight-recorder acceptance test:
// every pattern/strategy simulation is recorded as a labelled log segment,
// then replayed through sim/flight.h and checked for *exact* agreement
// with the live CVR bookkeeping.

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "common/args.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/scenario.h"
#include "placement/baselines.h"
#include "placement/queuing_ffd.h"
#include "placement/sbp.h"
#include "sim/cluster_sim.h"
#include "sim/flight.h"
#include "sim/metrics.h"

namespace {

using namespace burstq;

struct CvrSummary {
  double mean = 0, max = 0, p95 = 0;
  double frac_over_rho = 0;
  std::size_t pms = 0;
  double mean_episode_len = 0;
  std::size_t longest_episode = 0;
};

CvrSummary summarize(const ProblemInstance& inst, const Placement& placement,
                     const std::vector<std::vector<bool>>& violations,
                     double rho) {
  SampleSet cvrs;
  double episode_len_sum = 0.0;
  std::size_t episode_count = 0;
  CvrSummary s;
  for (std::size_t j = 0; j < inst.n_pms(); ++j) {
    if (placement.count_on(PmId{j}) == 0) continue;
    const auto& row = violations[j];
    const auto episodes = violation_episodes(row);
    const double cvr = static_cast<double>(episodes.violated_slots) /
                       static_cast<double>(row.size());
    cvrs.add(cvr);
    episode_len_sum += episodes.mean_length *
                       static_cast<double>(episodes.episodes);
    episode_count += episodes.episodes;
    s.longest_episode = std::max(s.longest_episode, episodes.longest);
  }
  s.pms = cvrs.count();
  s.mean = cvrs.mean();
  s.max = cvrs.max();
  s.p95 = cvrs.quantile(0.95);
  std::size_t over = 0;
  for (double c : cvrs.values())
    if (c > rho) ++over;
  s.frac_over_rho =
      static_cast<double>(over) / static_cast<double>(cvrs.count());
  s.mean_episode_len = episode_count == 0
                           ? 0.0
                           : episode_len_sum /
                                 static_cast<double>(episode_count);
  return s;
}

/// Ground truth for the replay cross-check: re-drives a CvrTracker from
/// the live violation matrix in exactly the order record_violation_trace
/// fed its flight recorder (slot-major, ascending active PM).
struct ExpectedSegment {
  std::string label;
  CvrTracker tracker;
};

ExpectedSegment expected_from_trace(
    std::string label, const ProblemInstance& inst,
    const Placement& placement,
    const std::vector<std::vector<bool>>& violations, std::size_t slots) {
  ExpectedSegment e{std::move(label), CvrTracker(inst.n_pms(), slots)};
  for (std::size_t t = 0; t < slots; ++t)
    for (std::size_t j = 0; j < inst.n_pms(); ++j) {
      if (placement.count_on(PmId{j}) == 0) continue;
      e.tracker.record(PmId{j}, violations[j][t]);
    }
  return e;
}

/// Exact comparison of a replayed segment against the live bookkeeping.
/// Returns the number of mismatches (0 = bit-for-bit agreement).
std::size_t check_segment(const ExpectedSegment& want,
                          const FlightReplaySegment& got) {
  std::size_t bad = 0;
  const auto complain = [&](const std::string& what) {
    std::cerr << "[fig6][obs] MISMATCH " << want.label << ": " << what
              << "\n";
    ++bad;
  };
  if (got.label != want.label) complain("segment label " + got.label);
  if (got.n_pms != want.tracker.n_pms()) complain("PM count");
  if (got.tracker.mean_cvr() != want.tracker.mean_cvr())
    complain("mean CVR " + std::to_string(got.tracker.mean_cvr()) +
             " != " + std::to_string(want.tracker.mean_cvr()));
  if (got.tracker.max_cvr() != want.tracker.max_cvr()) complain("max CVR");
  for (std::size_t j = 0; j < want.tracker.n_pms(); ++j) {
    const PmId pm{j};
    if (got.tracker.cvr(pm) != want.tracker.cvr(pm) ||
        got.tracker.windowed_cvr(pm) != want.tracker.windowed_cvr(pm)) {
      complain("per-PM CVR, pm " + std::to_string(j));
      break;
    }
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  using burstq::bench::banner;
  using burstq::bench::open_csv;

  ArgParser args("fig6_cvr", "Figure 6 CVR experiment + flight recorder");
  args.add_option("slots", "slots to simulate per strategy", "20000");
  args.add_option("obs-out",
                  "record a flight log here (.btrc) and self-verify the "
                  "replay");
  args.add_option("obs-level", "event level: off|decisions|detail",
                  "detail");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage();
    return 2;
  }

  const double kRho = 0.01;
  const std::size_t kVms = 300;
  const std::size_t kSlots = static_cast<std::size_t>(args.get_int("slots"));

  const bool recording = args.has("obs-out");
  const std::string obs_path = recording ? args.get("obs-out") : "";
  obs::EventLevel obs_level = obs::EventLevel::kDetail;
  try {
    obs_level = obs::parse_event_level(args.get("obs-level"));
    if (recording)
      obs::events().open(obs_path, obs::event_format_from_path(obs_path),
                         obs_level);
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << "\n" << args.usage();
    return 2;
  }
  // Replay needs the per-slot detail stream.
  const bool verifying = recording &&
                         obs_level >= obs::EventLevel::kDetail &&
                         obs::kEnabled;
  std::vector<ExpectedSegment> expected;

  auto csv = open_csv("fig6_cvr.csv");
  csv.row({"pattern", "strategy", "pms_used", "mean_cvr", "p95_cvr",
           "max_cvr", "frac_pms_over_rho", "mean_episode_len",
           "longest_episode"});

  for (const auto pattern : all_patterns()) {
    Rng rng(2024 + static_cast<std::uint64_t>(pattern));
    const auto inst =
        pattern_instance(pattern, kVms, kVms, paper_onoff_params(), rng);
    const auto queue = queuing_ffd(inst);
    const auto rb = ffd_by_normal(inst);
    const auto sbp = sbp_normal(inst, kRho);

    const Rng sim_seed = rng.split();
    banner("Figure 6 (" + pattern_name(pattern) + ") — CVR over " +
           std::to_string(kSlots) + " slots, rho = 0.01");
    ConsoleTable table({"strategy", "PMs", "mean CVR", "p95 CVR", "max CVR",
                        "PMs over rho", "mean episode", "longest"});
    const auto add = [&](const char* name, const Placement& placement) {
      const std::string label = pattern_name(pattern) + "/" + name;
      obs::events().set_run_label(label);
      const auto violations =
          record_violation_trace(inst, placement, kSlots, sim_seed);
      if (verifying)
        expected.push_back(expected_from_trace(label, inst, placement,
                                               violations, kSlots));
      const CvrSummary s = summarize(inst, placement, violations, kRho);
      table.add_row({name, std::to_string(s.pms),
                     ConsoleTable::num(s.mean, 4),
                     ConsoleTable::num(s.p95, 4),
                     ConsoleTable::num(s.max, 4),
                     ConsoleTable::percent(s.frac_over_rho),
                     ConsoleTable::num(s.mean_episode_len, 1),
                     std::to_string(s.longest_episode)});
      csv.begin_row();
      csv.field(pattern_name(pattern))
          .field(name)
          .field(s.pms)
          .field(s.mean)
          .field(s.p95)
          .field(s.max)
          .field(s.frac_over_rho)
          .field(s.mean_episode_len)
          .field(s.longest_episode);
      csv.end_row();
    };
    add("QUEUE", queue.result.placement);
    add("RB", rb.placement);
    add("SBP", sbp.placement);
    table.print(std::cout);
  }
  csv.flush();
  burstq::bench::emit_obs_summary("fig6_cvr");
  std::cout << "\n[fig6] RP is omitted (CVR identically zero, as in the "
               "paper).  SBP is an extension column: note its episode "
               "lengths — amplitude-only packing clusters violations.  "
               "CSV: " +
                   burstq::bench::out_dir() + "/fig6_cvr.csv\n";

  if (recording) {
    obs::events().close();
    std::cout << "[fig6] flight log: " << obs_path << "\n";
  }
  if (verifying) {
    const auto segments = replay_flight_log(obs_path);
    std::size_t mismatches = 0;
    if (segments.size() != expected.size()) {
      std::cerr << "[fig6][obs] MISMATCH: " << segments.size()
                << " replayed segments, expected " << expected.size()
                << "\n";
      ++mismatches;
    } else {
      for (std::size_t i = 0; i < segments.size(); ++i)
        mismatches += check_segment(expected[i], segments[i]);
    }
    if (mismatches != 0) {
      std::cerr << "[fig6][obs] replay verification FAILED ("
                << mismatches << " mismatches)\n";
      return 1;
    }
    std::cout << "[fig6][obs] replay verified: " << segments.size()
              << " segments reproduce live CVR exactly\n";
  }
  return 0;
}

// The harness runner: drives ClusterSimulator from a parsed Scenario and
// emits one JSON verdict per invariant (harness/report.h), plus the
// flight-recorder trace the verdicts point into.
//
// Determinism contract: a scenario runs bit-identically from its seed —
// instance generation, workload, faults, and the trace and report bytes.
// Two same-seed runs in different output directories produce
// byte-identical reports (traces are referenced by basename).
//
// Abort safety: when the run dies mid-flight (a BURSTQ_REQUIRE tripping
// inside the simulator, a placement that cannot complete), the runner
// catches the exception, CLOSES the event log so the partial trace is
// flushed and finalized (the BTRC trace gets its last block), evaluates the invariants over the slots that did complete, and
// writes a status="abort" report whose trace pointers still resolve.
// A crash must never leave a truncated trace and no report.

#pragma once

#include <string>

#include "harness/report.h"
#include "harness/scenario.h"
#include "obs/event_log.h"

namespace burstq::harness {

struct HarnessOptions {
  std::string out_dir{"."};  ///< reports and traces land here
  bool compress{false};      ///< LZ-compress the trace's BTRC blocks
};

struct RunSummary {
  ScenarioReport report;
  std::string report_path;
  std::string trace_path;
};

/// Runs one scenario end to end: places the fleet, simulates, evaluates
/// every declared invariant, scans the finalized trace for violation
/// pointers, and writes `<out_dir>/<name>.report.json` next to
/// `<out_dir>/<name>.trace.btrc`.
///
/// Owns the global event log for the duration of the call (it reopens
/// obs::events() onto the scenario's trace file at detail level and
/// closes it before returning — including on abort).  Does not throw on
/// simulation aborts (they become status="abort" reports); does throw
/// InvalidArgument when the output directory is unwritable.
RunSummary run_scenario(const Scenario& scenario,
                        const HarnessOptions& options);

}  // namespace burstq::harness

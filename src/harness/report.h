// Machine-readable harness reports: one JSON document per scenario run,
// one entry per invariant.
//
// The format is deliberately boring and deterministic: fixed field
// order, csv_format doubles (round-trippable shortest form), no
// wall-clock timestamps, and the trace referenced by basename only — so
// two same-seed runs produce byte-identical reports wherever the output
// directory lives, and CI can diff them directly.
//
// Schema (burstq.harness.report/v1):
//
//   {
//     "schema": "burstq.harness.report/v1",
//     "scenario": "flash_crowd",
//     "seed": 42, "slots": 200, "slots_completed": 200,
//     "status": "pass" | "fail" | "abort",
//     "abort_reason": "...",                      // abort only
//     "trace": {"file": "flash_crowd.trace.btrc", "format": "btrc",
//               "events": 412},
//     "invariants": [
//       {"name": "cluster_cvr", "op": "<=", "threshold": 0.02,
//        "pass": false, "worst": 0.031, "worst_slot": 57,
//        "window": {"begin": 50, "end": 70},      // null when no breach
//        "trace_pointer": {"offset": 12345, "event_index": 67,
//                          "slot": 50}}           // null when no window
//     ]
//   }
//
// `trace_pointer.event_index` resolves with
// `burstq_cli trace head --log TRACE --at-event EVENT_INDEX`;
// `offset` is the byte offset of the BTRC block holding that event.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/invariants.h"

namespace burstq::harness {

inline constexpr std::string_view kReportSchema =
    "burstq.harness.report/v1";

struct ScenarioReport {
  std::string scenario;
  std::uint64_t seed{0};
  std::size_t slots{0};            ///< configured horizon
  std::size_t slots_completed{0};  ///< < slots when the run aborted
  std::string status;              ///< "pass" | "fail" | "abort"
  std::string abort_reason;        ///< empty unless status == "abort"
  std::string trace_file;          ///< basename, next to the report
  std::string trace_format;        ///< "btrc"
  std::uint64_t trace_events{0};   ///< events finalized into the trace
  std::vector<InvariantResult> invariants;

  [[nodiscard]] bool all_pass() const;
};

/// Renders the report as JSON (trailing newline included).
std::string render_report_json(const ScenarioReport& report);

/// Writes render_report_json to `path` (truncating).  Throws
/// InvalidArgument when the file cannot be opened.
void write_report(const ScenarioReport& report, const std::string& path);

/// Parses a report back.  `source` labels error messages.  Throws
/// InvalidArgument on malformed JSON, a wrong schema tag, or unknown
/// invariant/op names.
ScenarioReport parse_report_json(std::string_view text,
                                 const std::string& source);

/// Reads and parses a report file.
ScenarioReport load_report(const std::string& path);

}  // namespace burstq::harness

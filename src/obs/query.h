// Trace query engine: a small filter-expression language over recorded
// events, plus the streaming scan that powers it.
//
// Expression grammar (comma = AND):
//
//   kind=slot.obs, t>=57, t<=70        # slot range of a breach window
//   kind=migration, ok=true
//   kind=span.end, t_ns>1000
//
// Each clause is `key op value` with op one of = != < <= > >=.  `kind`
// matches the event kind (equality only); any other key names a field.
// Values that parse as numbers compare numerically (bools count as
// 0/1, string fields that parse as numbers are coerced); anything else
// compares as text with =/!= only.  A clause naming an absent field
// never matches — `kind=slot.obs, viol=` is not expressible and does
// not need to be.
//
// scan_events() is the one streaming walk over a recorded trace shared
// by the query CLI, the profiler (obs/profile.h), `slo explain`, and
// the harness invariant runner: JSONL line-by-line, BTRC block-by-block
// (never the whole file in memory), each event delivered with the
// byte-offset pointer `trace head|tail --at-offset` can resolve — the
// start of its JSONL line, or its containing BTRC block's boundary.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/jsonl.h"

namespace burstq::obs {

enum class QueryOp { kEq, kNe, kLt, kLe, kGt, kGe };

struct QueryClause {
  std::string key;
  QueryOp op{QueryOp::kEq};
  std::string text;    ///< raw value text
  double num{0.0};     ///< numeric value when `numeric`
  bool numeric{false};
};

/// A parsed conjunction of clauses.  Default-constructed = match all.
struct Query {
  std::vector<QueryClause> clauses;

  /// Parses a comma-separated clause list; throws InvalidArgument on an
  /// empty clause, a missing operator, or an ordering operator applied
  /// to `kind`.
  static Query parse(std::string_view expr);

  [[nodiscard]] bool matches(const RecordedEvent& ev) const;
  [[nodiscard]] bool empty() const { return clauses.empty(); }
};

/// Visitor for scan_events: (event, byte offset, global event index).
/// Return false to stop the scan early.
using EventScanFn =
    std::function<bool(const RecordedEvent&, std::uint64_t, std::uint64_t)>;

/// Streams a recorded trace in whatever format it actually is, calling
/// `fn` once per event in file order.  Offsets are resolvable pointers
/// for JSONL (line start) and BTRC (containing block's boundary).
/// Returns the number of events visited.  Throws InvalidArgument on
/// unreadable or corrupt input.
std::uint64_t scan_events(const std::string& path, const EventScanFn& fn);

}  // namespace burstq::obs

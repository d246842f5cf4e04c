// Offline span-tree analytics over recorded traces.
//
// SpanTreeBuilder consumes a recorded event stream (span.begin/span.end
// plus the surrounding simulation events) in file order and
// reconstructs the sampled call tree:
//
//   - inclusive/exclusive nanoseconds per span name,
//   - per-slot attribution: a span belongs to the simulation slot that
//     was being processed when it began (the slot after the last
//     `slot.obs`; -1 = before the segment's `sim.config`, i.e. setup),
//   - the critical path per slot: for each slot's most expensive root
//     span, the greedy max-inclusive-time descent through its children,
//   - collapsed stacks ("a;b;c <exclusive_ns>") for flamegraph.pl and
//     the built-in SVG renderer.
//
// Everything is a single streaming pass (scan_events) — BTRC traces are
// processed block-by-block, never fully decoded into memory.  All
// output orderings are total, so the same trace renders byte-identical
// reports; with the virtual span clock (obs/span.h) two same-seed runs
// do too.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace burstq::obs {

struct SpanNameRow {
  std::string name;
  std::uint64_t calls{0};
  std::uint64_t incl_ns{0};  ///< wall time, children included
  std::uint64_t excl_ns{0};  ///< self time
  std::uint64_t max_incl_ns{0};
};

struct SlotProfileRow {
  std::int64_t slot{-1};  ///< -1 = segment setup (before sim.config ends)
  std::uint64_t spans{0};
  std::uint64_t root_incl_ns{0};  ///< summed inclusive time of root spans
  std::uint64_t critical_ns{0};   ///< most expensive root span
  std::string critical_path;      ///< its greedy max-child descent, ";"-joined
};

struct CollapsedStack {
  std::string stack;  ///< "root;child;leaf"
  std::uint64_t self_ns{0};
};

struct SpanProfileOptions {
  std::size_t top{24};  ///< rows rendered in the name and slot tables
};

struct SpanProfile {
  std::uint64_t events{0};          ///< all trace events consumed
  std::uint64_t span_events{0};     ///< span.begin + span.end among them
  std::uint64_t spans{0};           ///< completed (begin+end matched)
  std::uint64_t unmatched_ends{0};  ///< span.end with no open begin
  std::uint64_t unclosed{0};        ///< span.begin with no end (truncation)
  std::vector<SpanNameRow> by_name;       ///< excl_ns desc, then name asc
  std::vector<SlotProfileRow> slots;      ///< slot asc
  std::vector<CollapsedStack> collapsed;  ///< stack asc

  /// Deterministic plain-text report (the `trace profile` output).
  [[nodiscard]] std::string render(const SpanProfileOptions& opt = {}) const;
  /// flamegraph.pl input: one "stack self_ns" line per collapsed stack.
  [[nodiscard]] std::string render_collapsed() const;
};

/// Streaming builder; feed every event in file order, then finish().
class SpanTreeBuilder {
 public:
  /// Optional per-completed-span callback — `slo explain` aggregates
  /// spans into breach windows with this without a second pass.
  using SpanHook = std::function<void(std::string_view name,
                                      std::int64_t slot,
                                      std::uint64_t incl_ns,
                                      std::uint64_t excl_ns)>;

  void set_hook(SpanHook hook) { hook_ = std::move(hook); }

  void add(const RecordedEvent& ev);

  /// Finalizes counters and sorted tables.  The builder is spent.
  [[nodiscard]] SpanProfile finish();

 private:
  struct Frame {
    std::string name;
    std::uint64_t begin_t{0};
    std::int64_t slot{-1};
    std::uint64_t parent{0};
    std::uint64_t child_ns{0};
    std::uint64_t best_child_incl{0};
    std::string best_child_path;
    std::string stack;
  };

  struct NameAgg {
    std::uint64_t calls{0};
    std::uint64_t incl_ns{0};
    std::uint64_t excl_ns{0};
    std::uint64_t max_incl_ns{0};
  };

  std::unordered_map<std::uint64_t, Frame> open_;
  std::unordered_map<std::string, NameAgg> names_;
  std::unordered_map<std::int64_t, SlotProfileRow> slots_;
  std::unordered_map<std::string, std::uint64_t> collapsed_;
  SpanHook hook_;
  std::int64_t cur_slot_{-1};
  std::uint64_t events_{0};
  std::uint64_t span_events_{0};
  std::uint64_t spans_{0};
  std::uint64_t unmatched_ends_{0};
};

/// One-call convenience: streaming scan + SpanTreeBuilder.
SpanProfile profile_trace(const std::string& path);

/// Renders collapsed stacks as a self-contained SVG flame graph
/// (icicle layout, deterministic output).  `title` is shown in the
/// header row; pass the trace name.
std::string render_flame_svg(const std::vector<CollapsedStack>& stacks,
                             const std::string& title);

}  // namespace burstq::obs

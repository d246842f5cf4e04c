// Shared plumbing of the burstq end-to-end benchmark: command-line
// arguments, the counting allocator, benchmark-side spans, order
// statistics, and the result ledger every workload fills.
//
// Layers are measured from outside: the benchmark times its own calls
// into each module's public functions and reads the library's existing
// obs counters.  Nothing here reaches into src/ internals.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Scratch directory for WAL/snapshot state, traces and span dumps.
  std::string work_dir;
};

/// Heap allocations (operator new calls) made by the whole process so
/// far.  Supplied by the counting allocator linked into this binary only.
[[nodiscard]] std::uint64_t alloc_count();

/// Worker threads the library may use: min(4, hardware threads).
[[nodiscard]] std::size_t bench_threads();

/// Mixes a workload seed with a stream tag so every generated input
/// (fleet, trace, churn stream, fault plan) draws from its own stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

// ---------------------------------------------------------------------
// Benchmark-side spans (traced mode only).  Names must be string
// literals: recording a span never allocates beyond the reserved buffer.

struct SpanRecord {
  const char* name{nullptr};
  std::uint64_t id{0};   ///< round, slot or op number
  std::int64_t parent{-1};
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  std::uint64_t allocs{0};  ///< heap allocations inside the span
};

class SpanLog {
 public:
  /// Disabled logs record nothing and cost one branch per call.
  explicit SpanLog(bool enabled, std::size_t reserve = 0);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; its parent is the innermost open span.
  std::size_t begin(const char* name, std::uint64_t id);
  /// Closes span `index`, recording the heap allocations made inside it.
  void end(std::size_t index, std::uint64_t allocs = 0);
  /// Records an already-finished interval as a child of the open span.
  void add(const char* name, std::uint64_t id, Clock::time_point start,
           Clock::time_point end, std::uint64_t allocs);

  struct Totals {
    std::uint64_t calls{0};
    double total_s{0.0};
    double self_s{0.0};  ///< duration minus time covered by children
    std::uint64_t allocs{0};
  };
  /// Per-name inclusive / exclusive totals.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Durations (seconds) of every span with this name.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  /// Writes one JSON object per span (name, id, parent, start/end ns
  /// relative to the log's creation, allocs).
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::uint64_t now_ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span that is a no-op on a disabled log.
class Span {
 public:
  Span(SpanLog& log, const char* name, std::uint64_t id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  std::size_t index_{0};
  std::uint64_t allocs0_{0};
};

// ---------------------------------------------------------------------
// Order statistics.

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// The highest percentile that still has 10 samples beyond it: the 11th
/// largest sample, labelled 100 * (n - 10) / n.  Needs n >= 11.
struct Tail {
  double value{0.0};
  double percentile{0.0};
  std::size_t beyond{0};
};
[[nodiscard]] Tail tail_with_ten_beyond(std::vector<double> v);

/// Timed seconds of the untraced and traced runs of the traced mode's
/// overhead loop.
struct Overhead {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  /// Median traced / median untraced time - 1.
  [[nodiscard]] double ratio() const {
    return median(traced_s) / median(untraced_s) - 1.0;
  }
};

/// The traced mode's overhead loop: runs one unit of the workload's work
/// untraced, then traced, alternately, until `budget_s` has passed and
/// each has run at least twice.  `unit(log, first)` runs one unit
/// recording into `log` (disabled for the untraced runs) and returns its
/// timed seconds.  The first traced run (`first` true) records into
/// `spans`, which the ledger reports; later traced runs record into a
/// fresh log with room for `reserve` spans, so each pays the same cost.
template <class Unit>
Overhead alternate_traced(double budget_s, SpanLog& spans,
                          std::size_t reserve, Unit&& unit) {
  Overhead o;
  SpanLog off(false);
  const auto start = Clock::now();
  while (o.untraced_s.size() < 2 || seconds_since(start) < budget_s) {
    o.untraced_s.push_back(unit(off, false));
    const bool first = o.traced_s.empty();
    SpanLog again(true, first ? 0 : reserve);
    o.traced_s.push_back(unit(first ? spans : again, first));
  }
  return o;
}

// ---------------------------------------------------------------------
// Results.

struct Metric {
  double value{0.0};
  std::string unit;
  std::size_t samples{0};
  std::string note;  ///< printed beside the value, never in the JSON
};

struct Result {
  std::size_t attempted{0};
  std::size_t failed{0};
  std::vector<std::string> errors;  ///< one line per failed check
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;  ///< extra ledger lines (input sizes, ...)

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples, std::string note = {});
  /// Records a failed correctness check; `units` are the attempted work
  /// units it invalidates.
  void fail(std::string what, std::size_t units = 1);
};

/// Adds one ledger line per span name (calls, inclusive and self time,
/// allocations) to `r` and writes every span to <work_dir>/spans.jsonl.
void report_spans(const SpanLog& spans, const std::string& work_dir,
                  Result& r);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Total size in bytes of the regular files under `dir` (recursive).
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

/// Removes and recreates `dir`.
void fresh_dir(const std::string& dir);

// Workload entry points (one translation unit each).
Result run_plan(const Args& args);
Result run_sim(const Args& args);  // steady | flash_crowd
Result run_control_plane(const Args& args);

}  // namespace perfbench

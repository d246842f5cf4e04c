// Structured event log — the write side of the flight recorder.
//
// Events are append-only records (a kind plus flat key/value fields)
// streamed to one BTRC file (the binary columnar format, obs/trace.h);
// `burstq_cli trace tocsv` renders a trace as long CSV for spreadsheets.
// Emission is gated twice: a cheap atomic level check first (so a closed
// or coarse log costs one relaxed load per call site), then a mutex only
// when an event is actually written.  Events carry no wall-clock
// timestamps: a recorded run replays deterministically and diffs cleanly
// across machines; wall time lives in the metrics registry instead.

#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

namespace burstq::obs {

class Counter;
class TraceWriter;

/// How much a sink records.  kDecisions captures scheduling outcomes
/// (placements, MapCal results, migrations); kDetail additionally records
/// per-slot observations — everything replay needs to re-derive CVR.
enum class EventLevel : int { kOff = 0, kDecisions = 1, kDetail = 2 };

/// The sink format.  BTRC (obs/trace.h) is the only one; the enum and
/// EventLog::open's format argument remain because the end-to-end
/// benchmark driver (perfbench/src/sim.cpp) names them, and can go when
/// that driver changes.
enum class EventFormat { kBinary };

/// Canonical short name for a sink format: "btrc".
std::string_view format_name(EventFormat format) noexcept;

/// Checks a sink path: a `.btrc` path gives kBinary.  Throws
/// InvalidArgument for any other path (`.jsonl`, `.csv`, ...): there is
/// only the BTRC sink, and `burstq_cli trace tocsv` converts it to text.
EventFormat event_format_from_path(std::string_view path);

/// Parses "off" | "decisions" | "detail" (or "0" | "1" | "2");
/// throws InvalidArgument otherwise.
EventLevel parse_event_level(std::string_view text);

/// One key/value pair of an event.  Implicitly constructible from the
/// field types instrumentation uses so call sites can write
/// {"slot", t}, {"rho", 0.01}, {"ok", true}, {"label", name}.
struct Field {
  enum class Tag { kInt, kUint, kDouble, kBool, kString };

  std::string_view key;
  Tag tag{Tag::kInt};
  long long i{0};
  unsigned long long u{0};
  double d{0.0};
  bool b{false};
  std::string_view s{};

  template <typename T>
    requires(std::is_integral_v<T> && std::is_signed_v<T> &&
             !std::is_same_v<T, bool>)
  Field(std::string_view k, T v)
      : key(k), tag(Tag::kInt), i(static_cast<long long>(v)) {}

  template <typename T>
    requires(std::is_integral_v<T> && std::is_unsigned_v<T> &&
             !std::is_same_v<T, bool>)
  Field(std::string_view k, T v)
      : key(k), tag(Tag::kUint), u(static_cast<unsigned long long>(v)) {}

  Field(std::string_view k, bool v) : key(k), tag(Tag::kBool), b(v) {}
  Field(std::string_view k, double v) : key(k), tag(Tag::kDouble), d(v) {}
  Field(std::string_view k, std::string_view v)
      : key(k), tag(Tag::kString), s(v) {}
  Field(std::string_view k, const char* v)
      : key(k), tag(Tag::kString), s(v) {}
};

/// Append-only structured event sink.  Thread-safe.
class EventLog {
 public:
  // Both out of line: TraceWriter is incomplete here, and the defaulted
  // constructor needs the member unique_ptr's deleter for cleanup paths.
  EventLog();
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Opens `path` for writing (truncating) and starts accepting events at
  /// or below `level`.  Throws InvalidArgument when the file cannot be
  /// opened.  Reopening closes the previous sink.  `compress` enables
  /// per-block LZ compression.
  void open(const std::string& path, EventFormat format,
            EventLevel level = EventLevel::kDetail, bool compress = false);

  /// Flushes and stops accepting events.
  void close();

  void flush();

  /// True when an event of `level` would be recorded.  One relaxed load.
  [[nodiscard]] bool enabled(EventLevel level) const noexcept {
    return level_.load(std::memory_order_relaxed) >= static_cast<int>(level);
  }

  /// Appends one event; no-op unless enabled(level).
  void emit(EventLevel level, std::string_view kind,
            std::initializer_list<Field> fields);

  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return written_.load(std::memory_order_relaxed);
  }

  /// Free-form tag recorded into subsequent `sim.config` events so a
  /// multi-run log (e.g. fig6's pattern x strategy grid) stays
  /// segmentable.  Empty by default.
  void set_run_label(std::string label);
  [[nodiscard]] std::string run_label() const;

  /// Short name of the most recently opened sink format ("btrc"), or
  /// "none" before the first open.  Sticky across close() so post-run
  /// artifact writers (bench obs summaries) can label output.
  [[nodiscard]] std::string sink_format_name() const;

  /// fsync() the sink file on every flush()/close() (the --obs-fsync
  /// knob): flight-recorder traces get the same power-loss durability
  /// as the WAL.  Takes effect at the next flush; counted as
  /// `obs.trace.fsyncs`.
  void set_fsync(bool on);

  /// A durable rewind point in the open sink: everything the log has
  /// flushed so far.  Captured by checkpoint() (which flushes first, so
  /// `bytes` is a block boundary), consumed by rewind().
  struct Checkpoint {
    bool valid{false};  ///< false when no sink was open — rewind no-ops
    std::string path;
    std::uint64_t bytes{0};
    std::uint64_t events{0};
    std::uint64_t blocks{0};
  };

  [[nodiscard]] Checkpoint checkpoint();

  /// Truncates the open sink back to `cp`: events emitted after the
  /// checkpoint vanish from the file, and subsequent emits append as if
  /// they never happened.  This is how a durable restore discards the
  /// killed run's partial tail while keeping one continuous, eventually
  /// byte-identical trace.  No-op when `cp.valid` is false; requires the
  /// same sink to still be open otherwise.
  void rewind(const Checkpoint& cp);

 private:
  void sync_trace_counters_locked();
  void fsync_locked();

  mutable std::mutex mu_;
  std::unique_ptr<TraceWriter> writer_;  // null while closed
  std::atomic<int> level_{static_cast<int>(EventLevel::kOff)};
  std::atomic<std::uint64_t> written_{0};
  std::string run_label_;
  std::string path_;
  std::string sink_format_name_{"none"};
  bool fsync_{false};
  std::uint64_t fsyncs_{0};
  // Recorder self-metrics (obs.trace.*) for the current sink, plus the
  // last writer totals already mirrored into them.
  Counter* bytes_counter_{nullptr};
  Counter* events_counter_{nullptr};
  Counter* blocks_counter_{nullptr};
  std::uint64_t synced_bytes_{0};
  std::uint64_t synced_blocks_{0};
};

/// Process-wide event log used by the BURSTQ_EVENT macro.
EventLog& events();

}  // namespace burstq::obs

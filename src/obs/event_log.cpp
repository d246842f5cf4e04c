#include "obs/event_log.h"

#include <filesystem>

#include "common/error.h"
#include "obs/registry.h"
#include "obs/trace.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace burstq::obs {

EventLevel parse_event_level(std::string_view text) {
  if (text == "off" || text == "0") return EventLevel::kOff;
  if (text == "decisions" || text == "1") return EventLevel::kDecisions;
  if (text == "detail" || text == "2") return EventLevel::kDetail;
  throw InvalidArgument("unknown event level: " + std::string(text) +
                        " (expected off|decisions|detail)");
}

std::string_view format_name(EventFormat /*format*/) noexcept {
  return "btrc";
}

EventFormat event_format_from_path(std::string_view path) {
  if (path.ends_with(".btrc")) return EventFormat::kBinary;
  throw InvalidArgument(
      "cannot record an event log to " + std::string(path) +
      ": the flight recorder writes BTRC only; name the file .btrc and "
      "convert it with `burstq_cli trace tocsv`");
}

EventLog::EventLog() = default;

EventLog::~EventLog() { close(); }

void EventLog::open(const std::string& path, EventFormat format,
                    EventLevel level, bool compress) {
  const std::scoped_lock lock(mu_);
  if (writer_ != nullptr) {
    writer_->close();
    sync_trace_counters_locked();
    writer_.reset();
  }
  TraceWriteOptions opts;
  opts.compress = compress;
  writer_ = std::make_unique<TraceWriter>(path, opts);
  written_.store(0, std::memory_order_relaxed);
  path_ = path;

  // Recorder self-metrics: obs.trace.{bytes_written,events_written,
  // blocks_flushed}.btrc.
  sink_format_name_ = std::string(format_name(format));
  bytes_counter_ =
      &metrics().counter("obs.trace.bytes_written." + sink_format_name_);
  events_counter_ =
      &metrics().counter("obs.trace.events_written." + sink_format_name_);
  blocks_counter_ =
      &metrics().counter("obs.trace.blocks_flushed." + sink_format_name_);
  synced_bytes_ = 0;
  synced_blocks_ = 0;
  sync_trace_counters_locked();

  level_.store(static_cast<int>(level), std::memory_order_release);
}

// Mirrors the TraceWriter's running totals into the obs.trace.* counters
// (delta since the last sync, so reopen/close never double-counts).
void EventLog::sync_trace_counters_locked() {
  if (writer_ == nullptr || bytes_counter_ == nullptr) return;
  const std::uint64_t bytes = writer_->bytes_written();
  const std::uint64_t blocks = writer_->blocks_flushed();
  if (bytes > synced_bytes_) bytes_counter_->add(bytes - synced_bytes_);
  if (blocks > synced_blocks_) blocks_counter_->add(blocks - synced_blocks_);
  synced_bytes_ = bytes;
  synced_blocks_ = blocks;
}

void EventLog::close() {
  const std::scoped_lock lock(mu_);
  level_.store(static_cast<int>(EventLevel::kOff),
               std::memory_order_release);
  if (writer_ != nullptr) {
    writer_->flush();
    fsync_locked();
    writer_->close();
    sync_trace_counters_locked();
    writer_.reset();
  }
}

void EventLog::flush() {
  const std::scoped_lock lock(mu_);
  if (writer_ == nullptr) return;
  writer_->flush();
  sync_trace_counters_locked();
  fsync_locked();
}

void EventLog::set_fsync(bool on) {
  const std::scoped_lock lock(mu_);
  fsync_ = on;
}

// Durability for the trace itself (--obs-fsync): the C++ stream has no
// portable fd, so sync through a short-lived side descriptor on the same
// path.  Only runs on explicit flush()/close(), which are rare.
void EventLog::fsync_locked() {
#if !defined(_WIN32)
  if (!fsync_ || path_.empty()) return;
  const int fd = ::open(path_.c_str(), O_WRONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
  ++fsyncs_;
  metrics().counter("obs.trace.fsyncs").add(1);
#endif
}

EventLog::Checkpoint EventLog::checkpoint() {
  const std::scoped_lock lock(mu_);
  Checkpoint cp;
  if (writer_ == nullptr) return cp;  // callers treat it as absent
  writer_->flush();  // a block boundary: everything on disk, not buffered
  sync_trace_counters_locked();
  cp.valid = true;
  cp.path = path_;
  cp.bytes = writer_->bytes_written();
  cp.blocks = writer_->blocks_flushed();
  cp.events = written_.load(std::memory_order_relaxed);
  return cp;
}

void EventLog::rewind(const Checkpoint& cp) {
  const std::scoped_lock lock(mu_);
  if (!cp.valid) return;
  BURSTQ_REQUIRE(cp.path == path_,
                 "rewind target is not the open sink: " + cp.path);
  BURSTQ_REQUIRE(writer_ != nullptr, "rewind: no BTRC writer open");
  const TraceWriteOptions opts = writer_->options();
  writer_->abandon();  // buffered tail is exactly what we are discarding
  writer_.reset();
  std::filesystem::resize_file(path_, cp.bytes);
  writer_ = std::make_unique<TraceWriter>(path_, opts, TraceWriter::kResume);
  synced_bytes_ = writer_->bytes_written();
  synced_blocks_ = writer_->blocks_flushed();
  written_.store(cp.events, std::memory_order_relaxed);
  metrics().counter("obs.trace.rewinds").add(1);
}

void EventLog::emit(EventLevel level, std::string_view kind,
                    std::initializer_list<Field> fields) {
  if (!enabled(level)) return;
  const std::scoped_lock lock(mu_);
  if (writer_ == nullptr) return;
  writer_->append(kind, fields);
  sync_trace_counters_locked();
  events_counter_->add(1);
  written_.fetch_add(1, std::memory_order_relaxed);
}

void EventLog::set_run_label(std::string label) {
  const std::scoped_lock lock(mu_);
  run_label_ = std::move(label);
}

std::string EventLog::run_label() const {
  const std::scoped_lock lock(mu_);
  return run_label_;
}

std::string EventLog::sink_format_name() const {
  const std::scoped_lock lock(mu_);
  return sink_format_name_;
}

EventLog& events() {
  static EventLog* instance = new EventLog();  // never freed
  return *instance;
}

}  // namespace burstq::obs

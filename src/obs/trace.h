// BTRC — the binary columnar flight-recorder format.
//
// The JSONL event sink (obs/event_log.h) spends most of their bytes
// repeating key names and most of their read time in strtod; at
// million-VM, multi-simulated-day scale the recorder becomes the I/O
// bottleneck.  BTRC stores the same event stream columnar: events are
// grouped by kind inside fixed-size blocks, each field becomes a typed
// column (delta+varint integers, bit-packed bools, raw IEEE-754 doubles,
// per-block dictionaries for repeated strings), and a run-length order
// stream preserves the exact global event interleaving so a BTRC trace
// replays bit-identically to the JSONL recording of the same run.
//
// The schema is self-describing: kind and column names travel in schema
// blocks ahead of the first data block that uses them, so any BTRC file
// is inspectable without out-of-band knowledge (`burstq_cli trace
// header|head|tail|tocsv`).  Every block carries a CRC-32; a truncated
// or corrupted file fails loudly with the offset of the last valid
// block.  Optional per-block LZ compression sits behind a flag that is
// safe to flip run-to-run — readers auto-detect per block.
//
// On-disk layout: docs/TRACE_FORMAT.md.  This header compiles (and the
// reader works) in -DBURSTQ_NO_OBS builds too — the kill switch strips
// instrumentation macros, not the replay tooling.

#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/jsonl.h"

namespace burstq::obs {

inline constexpr std::string_view kTraceMagic = "BTRC";
inline constexpr std::uint8_t kTraceVersion = 1;

// ---- write side ------------------------------------------------------

struct TraceWriteOptions {
  /// LZ-compress blocks when it shrinks them.  Off by default (the
  /// columnar encodings already carry the size win); safe to flip at any
  /// time — the reader auto-detects per block.
  bool compress{false};
  /// Flush a block once it buffers this many events ...
  std::size_t block_events{8192};
  /// ... or roughly this many payload bytes, whichever comes first.
  std::size_t block_bytes{1u << 20};
};

/// Streams events into a BTRC file.  Not thread-safe — EventLog
/// serializes access under its own mutex.  Deterministic: the same event
/// sequence yields a byte-identical file.
class TraceWriter {
 public:
  /// Opens `path` (truncating) and writes the file header.  Throws
  /// InvalidArgument when the file cannot be opened.
  explicit TraceWriter(const std::string& path, TraceWriteOptions opts = {});

  /// Tag type selecting the resume constructor below.
  struct ResumeTag {};
  static constexpr ResumeTag kResume{};

  /// Reopens an existing BTRC file for appending.  The file must end on
  /// a block boundary (flush() guarantees one; the durable layer rewinds
  /// by truncating to a checkpointed boundary).  The file is rescanned to
  /// rebuild the announced schema and running totals, so appended blocks
  /// reference kind/column ids consistently and the resumed byte stream
  /// is identical to one written without the interruption.
  TraceWriter(const std::string& path, TraceWriteOptions opts, ResumeTag);

  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(std::string_view kind, std::initializer_list<Field> fields);
  void append(std::string_view kind, const std::vector<Field>& fields);

  /// Writes the buffered partial block (if any) so the on-disk file is
  /// complete up to the last appended event.
  void flush();
  void close();

  /// Closes the output stream WITHOUT flushing buffered rows — used when
  /// the buffered tail is being deliberately discarded (durable rewind
  /// truncates the file right after).
  void abandon();

  [[nodiscard]] const TraceWriteOptions& options() const { return opts_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }
  [[nodiscard]] std::uint64_t events_written() const { return events_; }
  [[nodiscard]] std::uint64_t blocks_flushed() const { return blocks_; }

 private:
  struct ColumnBuf;
  struct KindBuf;

  void append_fields(std::string_view kind, const Field* data,
                     std::size_t count);
  void flush_block();
  void write_block(std::uint8_t type, const std::string& payload);

  std::ofstream out_;
  std::string path_;
  TraceWriteOptions opts_;
  std::vector<KindBuf> kinds_;                     // by kind id
  std::vector<std::pair<std::uint32_t, std::uint64_t>> order_;  // RLE runs
  std::size_t buffered_events_{0};
  std::size_t buffered_bytes_{0};
  std::uint64_t bytes_{0};
  std::uint64_t events_{0};
  std::uint64_t blocks_{0};
};

// ---- read side -------------------------------------------------------

struct TraceColumnInfo {
  std::string name;
  Field::Tag type{Field::Tag::kInt};
  [[nodiscard]] std::string_view type_name() const;
};

struct TraceKindInfo {
  std::uint32_t id{0};
  std::string name;
  std::vector<TraceColumnInfo> columns;
  std::uint64_t rows{0};  ///< rows seen in the blocks scanned so far
};

struct TraceFileInfo {
  std::uint8_t version{0};
  bool compressed{false};   ///< any scanned block was stored compressed
  std::uint64_t events{0};  ///< events in the blocks scanned so far
  std::uint64_t data_blocks{0};
  std::uint64_t schema_blocks{0};
  std::vector<TraceKindInfo> kinds;  // kind-id order
};

/// Streaming BTRC reader: one data block of events per pull, so `head`
/// stops early and `tail` holds only a bounded window.  Throws
/// InvalidArgument on a bad magic/version, on a CRC mismatch, and on
/// truncation — the message names the offset where the last valid block
/// ends.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  /// Appends the next data block's events to `out` (intervening schema
  /// blocks are absorbed silently).  Returns false on clean end of file.
  /// When `decode` is false the block is integrity-checked and counted
  /// in info() but its columns are not materialized (fast header scans).
  bool next_block(std::vector<RecordedEvent>& out, bool decode = true);

  /// Schema and counts accumulated over the blocks read so far.
  [[nodiscard]] const TraceFileInfo& info() const { return info_; }

  /// File offset one past the last successfully validated block.
  [[nodiscard]] std::uint64_t valid_offset() const { return valid_offset_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::ifstream in_;
  std::string path_;
  TraceFileInfo info_;
  std::uint64_t offset_{0};        // bytes consumed so far
  std::uint64_t valid_offset_{0};  // end of the last validated block
};

/// Reads a whole BTRC file.  Throws like TraceReader.
std::vector<RecordedEvent> read_events_btrc(const std::string& path);

/// Scans every block (integrity check + schema + counts) without
/// materializing events.  Throws like TraceReader.
TraceFileInfo read_trace_info(const std::string& path);

// ---- format dispatch -------------------------------------------------

/// Sniffs the on-disk format from content, not extension: the BTRC magic,
/// else JSONL.  Throws InvalidArgument when the file cannot be opened, or
/// when its first line is the long-CSV header `id,kind,key,value`: that
/// string-typed dump (`burstq_cli trace tocsv`) is an export, not a trace.
/// This is the one place every reader below refuses it.
EventFormat sniff_event_format(const std::string& path);

/// Reads a recorded event stream in whatever format the file actually is
/// (JSONL or BTRC).
std::vector<RecordedEvent> read_events_auto(const std::string& path);

/// Resolves a trace pointer (as emitted in harness invariant reports):
/// reads up to `max_events` events starting at byte `offset` of the
/// trace.  For BTRC files the offset must be a block boundary — the
/// start of a schema or data block, i.e. a value TraceReader reports as
/// valid_offset(); for JSONL it must be the start of a line.  Throws
/// InvalidArgument when the offset lands mid-block/mid-line or points past
/// the end of the file.
std::vector<RecordedEvent> read_events_at_offset(const std::string& path,
                                                 std::uint64_t offset,
                                                 std::size_t max_events);

}  // namespace burstq::obs

// BTRC — the binary columnar flight-recorder format, and the only
// format the event log writes and its readers accept.
//
// A text event log spends most of its bytes repeating key names and most
// of its read time in strtod; at million-VM, multi-simulated-day scale
// the recorder becomes the I/O bottleneck.  BTRC stores the event stream
// columnar: events are grouped by kind inside fixed-size blocks, each
// field becomes a typed column (delta+varint integers, bit-packed bools,
// raw IEEE-754 doubles, per-block dictionaries for repeated strings),
// and a run-length order stream preserves the exact global event
// interleaving, so a replay sees the events in emission order with the
// emitted values bit for bit.
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
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event_log.h"

namespace burstq::obs {

inline constexpr std::string_view kTraceMagic = "BTRC";
inline constexpr std::uint8_t kTraceVersion = 1;

// ---- decoded events ----------------------------------------------------

/// One decoded field value.  Members are ordered so the two one-byte
/// discriminants pack into the same word (48 bytes instead of 56 —
/// readers materialise millions of these).
struct EventValue {
  enum class Tag : std::uint8_t { kNumber, kString, kBool, kNull };
  double num{0.0};
  std::string str;
  Tag tag{Tag::kNull};
  bool b{false};
};

/// Small-vector of (key, value) pairs backing RecordedEvent::fields:
/// contiguous storage with inline capacity for the common case (no
/// recorder kind today carries more than five fields), spilling to the
/// heap beyond that.  The readers construct one RecordedEvent per trace
/// event, so skipping the per-event heap allocation is what keeps
/// replay decode-bound rather than allocator-bound.  Deliberately
/// minimal: just the vector surface the readers, replay, and trace
/// tools use.
class FieldVec {
 public:
  using value_type = std::pair<std::string, EventValue>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  FieldVec() noexcept : data_(inline_data()) {}
  FieldVec(const FieldVec& other) : FieldVec() {
    reserve(other.size_);
    for (const value_type& v : other) emplace_back(v.first, v.second);
  }
  FieldVec(FieldVec&& other) noexcept : FieldVec() { take(other); }
  FieldVec& operator=(const FieldVec& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      for (const value_type& v : other) emplace_back(v.first, v.second);
    }
    return *this;
  }
  FieldVec& operator=(FieldVec&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~FieldVec() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }
  [[nodiscard]] value_type& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const value_type& operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] value_type& back() { return data_[size_ - 1]; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  template <typename... Args>
  value_type& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(cap_ * 2);
    value_type* slot = ::new (static_cast<void*>(data_ + size_))
        value_type(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void clear() noexcept {
    for (std::size_t i = size_; i > 0; --i) data_[i - 1].~value_type();
    size_ = 0;
  }

 private:
  static constexpr std::size_t kInlineCapacity = 2;

  [[nodiscard]] value_type* inline_data() noexcept {
    return reinterpret_cast<value_type*>(inline_);
  }
  [[nodiscard]] bool spilled() const noexcept {
    return data_ != reinterpret_cast<const value_type*>(inline_);
  }

  // Leaves `other` empty-and-inline; assumes *this* is empty-and-inline.
  void take(FieldVec& other) noexcept {
    if (other.spilled()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.cap_ = kInlineCapacity;
      other.size_ = 0;
    } else {
      for (std::size_t i = 0; i < other.size_; ++i)
        ::new (static_cast<void*>(data_ + i))
            value_type(std::move(other.data_[i]));
      size_ = other.size_;
      other.clear();
    }
  }

  void release() noexcept {
    clear();
    if (spilled()) {
      ::operator delete(static_cast<void*>(data_));
      data_ = inline_data();
      cap_ = kInlineCapacity;
    }
  }

  void grow(std::size_t n) {
    const std::size_t new_cap = n > cap_ * 2 ? n : cap_ * 2;
    auto* fresh = static_cast<value_type*>(
        ::operator new(new_cap * sizeof(value_type)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) value_type(std::move(data_[i]));
      data_[i].~value_type();
    }
    if (spilled()) ::operator delete(static_cast<void*>(data_));
    data_ = fresh;
    cap_ = new_cap;
  }

  alignas(value_type) unsigned char inline_[kInlineCapacity *
                                            sizeof(value_type)];
  value_type* data_;
  std::size_t size_{0};
  std::size_t cap_{kInlineCapacity};
};

/// One decoded event: its kind and fields in recorded order.
struct RecordedEvent {
  std::string kind;
  FieldVec fields;  // file order

  [[nodiscard]] const EventValue* find(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// Numeric field, or `fallback` when absent/non-numeric.
  [[nodiscard]] double num(std::string_view key, double fallback = 0.0) const;
  /// Numeric field rounded to integer.
  [[nodiscard]] std::int64_t integer(std::string_view key,
                                     std::int64_t fallback = 0) const;
  /// String field, or "" when absent/non-string.
  [[nodiscard]] std::string_view str(std::string_view key) const;
  /// Boolean field, or `fallback` when absent/non-bool.
  [[nodiscard]] bool boolean(std::string_view key, bool fallback = false)
      const;
};

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
/// InvalidArgument on a file that is not BTRC (sniff_event_format), a
/// bad version, a CRC mismatch, and on truncation — the message names
/// the offset where the last valid block ends.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  /// Appends the next data block's events to `out` (intervening schema
  /// blocks are absorbed silently).  Returns false on clean end of file.
  /// When `decode` is false the block is integrity-checked and counted
  /// in info() but its columns are not materialized (fast header scans).
  bool next_block(std::vector<RecordedEvent>& out, bool decode = true);

  /// Makes next_block() drop every event whose 0-based global index is
  /// below `n`: a block that ends before it is counted but not decoded,
  /// and the block holding it appends only its events from `n` on.
  /// Reaching the end of the file with fewer than `n` events throws
  /// InvalidArgument (the pointer is past the end).
  void skip_events_before(std::uint64_t n) { skip_before_ = n; }

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
  std::uint64_t skip_before_{0};   // skip_events_before()
};

/// Reads a whole BTRC file.  Throws like TraceReader.
std::vector<RecordedEvent> read_events_btrc(const std::string& path);

/// Scans every block (integrity check + schema + counts) without
/// materializing events.  Throws like TraceReader.
TraceFileInfo read_trace_info(const std::string& path);

// ---- format check and pointers --------------------------------------

/// Checks that `path` holds a BTRC trace (by content, not extension) and
/// returns EventFormat::kBinary.  This is the one place a reader refuses
/// any other file — a JSONL log from an older build, the long-CSV dump
/// `burstq_cli trace tocsv` prints — with an InvalidArgument that names
/// .btrc and `trace tocsv`; TraceReader calls it first.  Also throws
/// when the file cannot be opened.
EventFormat sniff_event_format(const std::string& path);

/// Resolves a trace pointer (as harness reports and `slo explain`
/// print it): reads up to `max_events` events starting exactly at the
/// 0-based global event index `first_event`.  Blocks before the one
/// holding that event are integrity-checked but not decoded.  Throws
/// InvalidArgument when the trace has fewer than `first_event` events
/// (an index equal to the event count reads nothing).
std::vector<RecordedEvent> read_events_from(const std::string& path,
                                            std::uint64_t first_event,
                                            std::size_t max_events);

}  // namespace burstq::obs

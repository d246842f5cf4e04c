#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <unordered_map>

#include "common/error.h"
#include "obs/trace.h"
#include "obs/trace_codec.h"

namespace burstq::obs {

using namespace trace_detail;

namespace {

// Block types.  A schema block announces kinds/columns; a data block
// carries the column batches for a contiguous run of events.
constexpr std::uint8_t kSchemaBlock = 1;
constexpr std::uint8_t kDataBlock = 2;

// All non-finite doubles are stored as this canonical quiet-NaN pattern
// and read back as null, so NaN and both infinities decode alike and
// the file bytes do not depend on the NaN payload.
constexpr std::uint64_t kNullBits = 0x7FF8000000000000ull;

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s.data(), s.size());
}

}  // namespace

/// One buffered column of the current block: the per-kind row indices
/// where the field was present, plus the values in one typed vector.
struct TraceWriter::ColumnBuf {
  std::string name;
  Field::Tag tag{Field::Tag::kInt};
  bool announced{false};
  std::vector<std::uint64_t> rows;
  std::vector<std::int64_t> ints;
  std::vector<std::uint64_t> uints;
  std::vector<double> doubles;
  std::vector<std::uint8_t> bools;
  std::vector<std::string> strings;

  void clear_values() {
    rows.clear();
    ints.clear();
    uints.clear();
    doubles.clear();
    bools.clear();
    strings.clear();
  }
};

struct TraceWriter::KindBuf {
  std::string name;
  bool announced{false};
  std::uint64_t rows{0};  // rows buffered in the current block
  std::vector<ColumnBuf> cols;
};

TraceWriter::TraceWriter(const std::string& path, TraceWriteOptions opts)
    : path_(path), opts_(opts) {
  out_.open(path, std::ios::out | std::ios::trunc | std::ios::binary);
  BURSTQ_REQUIRE(out_.is_open(), "cannot open trace file: " + path);
  std::string header(kTraceMagic);
  header.push_back(static_cast<char>(kTraceVersion));
  header.push_back(static_cast<char>(opts_.compress ? 1 : 0));
  header.push_back('\0');
  header.push_back('\0');
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  bytes_ += header.size();
}

TraceWriter::TraceWriter(const std::string& path, TraceWriteOptions opts,
                         ResumeTag)
    : path_(path), opts_(opts) {
  // Rescan the file (which must end on a block boundary) to rebuild the
  // announced schema in exact kind-id / column order — appended data
  // blocks must reference the same ids a continuous run would have used.
  const TraceFileInfo info = read_trace_info(path);
  for (const TraceKindInfo& k : info.kinds) {
    KindBuf kb;
    kb.name = k.name;
    kb.announced = true;
    for (const TraceColumnInfo& c : k.columns) {
      ColumnBuf col;
      col.name = c.name;
      col.tag = c.type;
      col.announced = true;
      kb.cols.push_back(std::move(col));
    }
    kinds_.push_back(std::move(kb));
  }
  events_ = info.events;
  blocks_ = info.data_blocks + info.schema_blocks;
  bytes_ = std::filesystem::file_size(path);
  out_.open(path, std::ios::out | std::ios::app | std::ios::binary);
  BURSTQ_REQUIRE(out_.is_open(),
                 "cannot reopen trace file for resume: " + path);
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::abandon() {
  if (out_.is_open()) out_.close();
}

void TraceWriter::append(std::string_view kind,
                         std::initializer_list<Field> fields) {
  append_fields(kind, fields.begin(), fields.size());
}

void TraceWriter::append(std::string_view kind,
                         const std::vector<Field>& fields) {
  append_fields(kind, fields.data(), fields.size());
}

void TraceWriter::append_fields(std::string_view kind, const Field* data,
                                std::size_t count) {
  if (!out_.is_open()) return;

  std::uint32_t kind_id = 0;
  for (; kind_id < kinds_.size(); ++kind_id)
    if (kinds_[kind_id].name == kind) break;
  if (kind_id == kinds_.size()) {
    kinds_.push_back(KindBuf{std::string(kind), false, 0, {}});
    buffered_bytes_ += kind.size() + 8;
  }
  KindBuf& kb = kinds_[kind_id];

  if (!order_.empty() && order_.back().first == kind_id)
    ++order_.back().second;
  else
    order_.emplace_back(kind_id, 1);

  const std::uint64_t row = kb.rows++;
  for (std::size_t i = 0; i < count; ++i) {
    const Field& f = data[i];
    // First column matching (name, tag) that has no value for this row
    // yet — duplicate keys within one event land in sibling columns.
    ColumnBuf* col = nullptr;
    for (ColumnBuf& c : kb.cols)
      if (c.tag == f.tag && c.name == f.key &&
          (c.rows.empty() || c.rows.back() != row)) {
        col = &c;
        break;
      }
    if (col == nullptr) {
      kb.cols.push_back(ColumnBuf{});
      col = &kb.cols.back();
      col->name = std::string(f.key);
      col->tag = f.tag;
      buffered_bytes_ += f.key.size() + 8;
    }
    col->rows.push_back(row);
    switch (f.tag) {
      case Field::Tag::kInt:
        col->ints.push_back(f.i);
        buffered_bytes_ += 4;
        break;
      case Field::Tag::kUint:
        col->uints.push_back(f.u);
        buffered_bytes_ += 4;
        break;
      case Field::Tag::kDouble:
        col->doubles.push_back(f.d);
        buffered_bytes_ += 8;
        break;
      case Field::Tag::kBool:
        col->bools.push_back(f.b ? 1 : 0);
        buffered_bytes_ += 1;
        break;
      case Field::Tag::kString:
        col->strings.emplace_back(f.s);
        buffered_bytes_ += f.s.size() + 2;
        break;
    }
  }
  ++buffered_events_;
  ++events_;
  if (buffered_events_ >= opts_.block_events ||
      buffered_bytes_ >= opts_.block_bytes)
    flush_block();
}

void TraceWriter::flush_block() {
  if (buffered_events_ == 0) return;

  // Schema deltas first, so a reader always knows every name a data
  // block references before it reaches the block.
  std::string schema;
  std::uint64_t new_kinds = 0;
  for (const KindBuf& kb : kinds_) new_kinds += kb.announced ? 0 : 1;
  put_varint(schema, new_kinds);
  for (std::uint32_t id = 0; id < kinds_.size(); ++id) {
    if (kinds_[id].announced) continue;
    put_varint(schema, id);
    put_string(schema, kinds_[id].name);
    kinds_[id].announced = true;
  }
  std::uint64_t new_cols = 0;
  for (const KindBuf& kb : kinds_)
    for (const ColumnBuf& c : kb.cols) new_cols += c.announced ? 0 : 1;
  put_varint(schema, new_cols);
  for (std::uint32_t id = 0; id < kinds_.size(); ++id)
    for (std::size_t ci = 0; ci < kinds_[id].cols.size(); ++ci) {
      ColumnBuf& c = kinds_[id].cols[ci];
      if (c.announced) continue;
      put_varint(schema, id);
      put_varint(schema, ci);
      schema.push_back(static_cast<char>(c.tag));
      put_string(schema, c.name);
      c.announced = true;
    }
  if (new_kinds != 0 || new_cols != 0) write_block(kSchemaBlock, schema);

  std::string payload;
  put_varint(payload, buffered_events_);
  put_varint(payload, order_.size());
  for (const auto& [kind_id, run] : order_) {
    put_varint(payload, kind_id);
    put_varint(payload, run);
  }

  std::uint64_t n_batches = 0;
  for (const KindBuf& kb : kinds_) n_batches += kb.rows != 0 ? 1 : 0;
  put_varint(payload, n_batches);

  std::string batch;  // reused per kind
  for (std::uint32_t id = 0; id < kinds_.size(); ++id) {
    KindBuf& kb = kinds_[id];
    if (kb.rows == 0) continue;
    batch.clear();
    for (const ColumnBuf& c : kb.cols) {
      const std::size_t present = c.rows.size();
      if (present == 0) {
        batch.push_back(0);  // column absent from every row of the block
        continue;
      }
      if (present == kb.rows) {
        batch.push_back(2);  // present in every row — no bitmap
      } else {
        batch.push_back(1);
        std::string bitmap((kb.rows + 7) / 8, '\0');
        for (const std::uint64_t r : c.rows)
          bitmap[r / 8] |= static_cast<char>(1u << (r % 8));
        batch += bitmap;
      }
      switch (c.tag) {
        case Field::Tag::kInt: {
          batch.push_back(0);  // encoding: zigzag(delta) varints
          std::int64_t prev = 0;
          for (const std::int64_t v : c.ints) {
            const auto delta = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(v) -
                static_cast<std::uint64_t>(prev));
            put_varint(batch, zigzag(delta));
            prev = v;
          }
          break;
        }
        case Field::Tag::kUint: {
          batch.push_back(0);
          std::uint64_t prev = 0;
          for (const std::uint64_t v : c.uints) {
            put_varint(batch,
                       zigzag(static_cast<std::int64_t>(v - prev)));
            prev = v;
          }
          break;
        }
        case Field::Tag::kDouble: {
          // Non-finite canonicalizes to the null pattern.
          const auto bits_of = [](double v) {
            return std::isfinite(v) ? std::bit_cast<std::uint64_t>(v)
                                    : kNullBits;
          };
          const std::uint64_t first = bits_of(c.doubles.front());
          const bool constant =
              std::all_of(c.doubles.begin(), c.doubles.end(),
                          [&](double v) { return bits_of(v) == first; });
          if (constant) {
            batch.push_back(1);  // encoding: one value for every row
            put_u64(batch, first);
          } else {
            batch.push_back(0);  // encoding: raw 8-byte values
            for (const double v : c.doubles) put_u64(batch, bits_of(v));
          }
          break;
        }
        case Field::Tag::kBool: {
          batch.push_back(0);  // encoding: bit-packed
          std::string bits((present + 7) / 8, '\0');
          for (std::size_t i = 0; i < present; ++i)
            if (c.bools[i] != 0)
              bits[i / 8] |= static_cast<char>(1u << (i % 8));
          batch += bits;
          break;
        }
        case Field::Tag::kString: {
          std::unordered_map<std::string_view, std::uint64_t> dict;
          std::vector<std::string_view> entries;
          for (const std::string& s : c.strings)
            if (dict.emplace(s, entries.size()).second)
              entries.push_back(s);
          if (entries.size() < present) {
            batch.push_back(1);  // encoding: per-block dictionary
            put_varint(batch, entries.size());
            for (const std::string_view s : entries) put_string(batch, s);
            for (const std::string& s : c.strings)
              put_varint(batch, dict.at(s));
          } else {
            batch.push_back(0);  // encoding: raw length-prefixed
            for (const std::string& s : c.strings) put_string(batch, s);
          }
          break;
        }
      }
    }
    put_varint(payload, id);
    put_varint(payload, kb.rows);
    put_varint(payload, batch.size());
    payload += batch;
  }
  write_block(kDataBlock, payload);

  for (KindBuf& kb : kinds_) {
    kb.rows = 0;
    for (ColumnBuf& c : kb.cols) c.clear_values();
  }
  order_.clear();
  buffered_events_ = 0;
  buffered_bytes_ = 0;
}

void TraceWriter::write_block(std::uint8_t type,
                              const std::string& payload) {
  const std::string* stored = &payload;
  std::string compressed;
  std::uint8_t flags = 0;
  if (opts_.compress) {
    compressed = lz_compress(payload);
    if (compressed.size() < payload.size()) {
      stored = &compressed;
      flags = 1;
    }
  }
  std::string header;
  header.push_back(static_cast<char>(type));
  header.push_back(static_cast<char>(flags));
  put_u32(header, static_cast<std::uint32_t>(payload.size()));
  put_u32(header, static_cast<std::uint32_t>(stored->size()));
  put_u32(header, crc32(*stored));
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.write(stored->data(), static_cast<std::streamsize>(stored->size()));
  bytes_ += header.size() + stored->size();
  ++blocks_;
}

void TraceWriter::flush() {
  if (!out_.is_open()) return;
  flush_block();
  out_.flush();
}

void TraceWriter::close() {
  if (!out_.is_open()) return;
  flush_block();
  out_.flush();
  out_.close();
}

}  // namespace burstq::obs

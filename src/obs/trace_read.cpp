#include <bit>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/error.h"
#include "obs/trace.h"
#include "obs/trace_codec.h"

namespace burstq::obs {

using namespace trace_detail;

namespace {

constexpr std::uint8_t kSchemaBlock = 1;
constexpr std::uint8_t kDataBlock = 2;
constexpr std::size_t kFileHeaderSize = 8;
constexpr std::size_t kBlockHeaderSize = 14;
// A block payload is bounded by the writer's flush thresholds; anything
// wildly larger means a corrupt length field, not a big block.
constexpr std::uint32_t kMaxBlockLen = 1u << 28;

}  // namespace

std::string_view TraceColumnInfo::type_name() const {
  switch (type) {
    case Field::Tag::kInt:
      return "int";
    case Field::Tag::kUint:
      return "uint";
    case Field::Tag::kDouble:
      return "double";
    case Field::Tag::kBool:
      return "bool";
    case Field::Tag::kString:
      return "string";
  }
  return "?";
}

TraceReader::TraceReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::in | std::ios::binary);
  BURSTQ_REQUIRE(in_.is_open(), "cannot open trace file: " + path);
  char header[kFileHeaderSize] = {};
  in_.read(header, kFileHeaderSize);
  if (in_.gcount() != kFileHeaderSize ||
      std::string_view(header, kTraceMagic.size()) != kTraceMagic)
    fail("not a BTRC trace (bad magic)");
  const auto version = static_cast<std::uint8_t>(header[4]);
  if (version != kTraceVersion)
    fail("unsupported BTRC version " + std::to_string(version) +
         " (reader supports " + std::to_string(kTraceVersion) + ")");
  info_.version = version;
  offset_ = kFileHeaderSize;
  valid_offset_ = kFileHeaderSize;
}

void TraceReader::fail(const std::string& what) const {
  throw InvalidArgument(path_ + ": " + what + "; last valid block ends at " +
                        "byte offset " + std::to_string(valid_offset_));
}

bool TraceReader::next_block(std::vector<RecordedEvent>& out, bool decode) {
  while (true) {
    char header[kBlockHeaderSize] = {};
    in_.read(header, kBlockHeaderSize);
    const auto got = static_cast<std::size_t>(in_.gcount());
    if (got == 0) return false;  // clean end of file
    if (got < kBlockHeaderSize)
      fail("truncated block header (" + std::to_string(got) + " of " +
           std::to_string(kBlockHeaderSize) + " bytes)");

    const auto type = static_cast<std::uint8_t>(header[0]);
    const auto flags = static_cast<std::uint8_t>(header[1]);
    std::string_view hv(header, kBlockHeaderSize);
    std::size_t hpos = 2;
    std::uint32_t raw_len = 0;
    std::uint32_t stored_len = 0;
    std::uint32_t crc = 0;
    get_u32(hv, hpos, raw_len);
    get_u32(hv, hpos, stored_len);
    get_u32(hv, hpos, crc);
    if ((type != kSchemaBlock && type != kDataBlock) ||
        raw_len > kMaxBlockLen || stored_len > kMaxBlockLen)
      fail("corrupt block header");

    std::string stored(stored_len, '\0');
    in_.read(stored.data(), static_cast<std::streamsize>(stored_len));
    if (static_cast<std::uint32_t>(in_.gcount()) != stored_len)
      fail("truncated block payload (" + std::to_string(in_.gcount()) +
           " of " + std::to_string(stored_len) + " bytes)");
    if (crc32(stored) != crc) fail("block CRC mismatch");

    std::string inflated;
    const std::string* payload = &stored;
    if ((flags & 1) != 0) {
      if (!lz_decompress(stored, raw_len, inflated))
        fail("corrupt compressed block");
      payload = &inflated;
      info_.compressed = true;
    } else if (raw_len != stored_len) {
      fail("corrupt block header (length mismatch on uncompressed block)");
    }

    offset_ += kBlockHeaderSize + stored_len;
    valid_offset_ = offset_;

    std::string_view p(*payload);
    std::size_t pos = 0;
    const auto need_varint = [&](std::uint64_t& v) {
      if (!get_varint(p, pos, v)) fail("malformed block payload");
    };

    if (type == kSchemaBlock) {
      ++info_.schema_blocks;
      std::uint64_t new_kinds = 0;
      need_varint(new_kinds);
      for (std::uint64_t i = 0; i < new_kinds; ++i) {
        std::uint64_t id = 0;
        std::uint64_t len = 0;
        need_varint(id);
        need_varint(len);
        if (id != info_.kinds.size() || len > p.size() - pos)
          fail("malformed schema block");
        TraceKindInfo kind;
        kind.id = static_cast<std::uint32_t>(id);
        kind.name.assign(p.data() + pos, static_cast<std::size_t>(len));
        pos += static_cast<std::size_t>(len);
        info_.kinds.push_back(std::move(kind));
      }
      std::uint64_t new_cols = 0;
      need_varint(new_cols);
      for (std::uint64_t i = 0; i < new_cols; ++i) {
        std::uint64_t kind_id = 0;
        std::uint64_t col_index = 0;
        need_varint(kind_id);
        need_varint(col_index);
        if (pos >= p.size()) fail("malformed schema block");
        const auto tag = static_cast<std::uint8_t>(p[pos++]);
        std::uint64_t len = 0;
        need_varint(len);
        if (kind_id >= info_.kinds.size() ||
            col_index != info_.kinds[kind_id].columns.size() ||
            tag > static_cast<std::uint8_t>(Field::Tag::kString) ||
            len > p.size() - pos)
          fail("malformed schema block");
        TraceColumnInfo col;
        col.name.assign(p.data() + pos, static_cast<std::size_t>(len));
        pos += static_cast<std::size_t>(len);
        col.type = static_cast<Field::Tag>(tag);
        info_.kinds[kind_id].columns.push_back(std::move(col));
      }
      if (pos != p.size()) fail("malformed schema block");
      continue;  // schema absorbed; keep going until a data block
    }

    // ---- data block --------------------------------------------------
    ++info_.data_blocks;
    std::uint64_t event_count = 0;
    need_varint(event_count);
    std::uint64_t n_runs = 0;
    need_varint(n_runs);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> runs;
    runs.reserve(static_cast<std::size_t>(n_runs));
    std::uint64_t run_total = 0;
    for (std::uint64_t i = 0; i < n_runs; ++i) {
      std::uint64_t kind_id = 0;
      std::uint64_t len = 0;
      need_varint(kind_id);
      need_varint(len);
      if (kind_id >= info_.kinds.size() || len == 0)
        fail("malformed data block (bad order run)");
      runs.emplace_back(static_cast<std::uint32_t>(kind_id), len);
      run_total += len;
    }
    if (run_total != event_count)
      fail("malformed data block (order runs disagree with event count)");
    info_.events += event_count;

    std::uint64_t n_batches = 0;
    need_varint(n_batches);
    // Batches decode their columns into compact per-column scalar
    // arrays; the events are then assembled by one pass that follows
    // the global order runs, so the output vector is written strictly
    // sequentially.  The pivot is deliberate: materialising fields
    // column-by-column straight into the interleaved output strides
    // every column pass across the whole output, and those cache
    // misses dominate decode time.
    struct DecodedColumn {
      const std::string* name{nullptr};
      Field::Tag type{Field::Tag::kInt};
      bool all_present{false};
      std::vector<std::size_t> present;  // batch rows, when !all_present
      std::size_t next{0};               // assembly cursor into present
      std::vector<double> nums;          // kInt / kUint
      std::vector<std::uint64_t> bits;   // kDouble (raw IEEE-754 bits)
      std::vector<unsigned char> bools;  // kBool
      std::vector<std::string> strs;     // kString
    };
    struct DecodedBatch {
      std::vector<DecodedColumn> cols;
      std::size_t rows{0};
      std::size_t next_row{0};  // assembly cursor
    };
    const std::size_t base_out = out.size();
    std::vector<std::uint64_t> kind_counts(info_.kinds.size(), 0);
    std::vector<std::uint64_t> decoded_rows(info_.kinds.size(), 0);
    std::vector<std::vector<DecodedBatch>> pending(info_.kinds.size());
    if (decode) {
      out.resize(base_out + static_cast<std::size_t>(event_count));
      for (const auto& [kind_id, len] : runs) kind_counts[kind_id] += len;
    }
    // A malformed payload must not leave half-filled placeholder events
    // in the caller's output: on an exception mid-decode, everything
    // before this block stays and this block's rows vanish.
    struct Rollback {
      std::vector<RecordedEvent>& out;
      std::size_t base;
      bool armed{true};
      ~Rollback() {
        if (armed) out.resize(base);
      }
    } rollback{out, base_out};
    for (std::uint64_t bi = 0; bi < n_batches; ++bi) {
      std::uint64_t kind_id = 0;
      std::uint64_t rows = 0;
      std::uint64_t batch_len = 0;
      need_varint(kind_id);
      need_varint(rows);
      need_varint(batch_len);
      if (kind_id >= info_.kinds.size() || batch_len > p.size() - pos)
        fail("malformed data block (bad batch header)");
      TraceKindInfo& kinfo = info_.kinds[kind_id];
      kinfo.rows += rows;
      if (!decode) {
        pos += static_cast<std::size_t>(batch_len);
        continue;
      }

      std::string_view b = p.substr(pos, static_cast<std::size_t>(batch_len));
      pos += static_cast<std::size_t>(batch_len);
      std::size_t bp = 0;
      const auto batch_varint = [&](std::uint64_t& v) {
        if (!get_varint(b, bp, v)) fail("malformed column batch");
      };

      if (decoded_rows[kind_id] + rows > kind_counts[kind_id])
        fail("malformed data block (batch rows exceed order runs)");
      decoded_rows[kind_id] += rows;
      const auto nrows = static_cast<std::size_t>(rows);

      DecodedBatch batch;
      batch.rows = nrows;
      batch.cols.reserve(kinfo.columns.size());
      for (const TraceColumnInfo& col : kinfo.columns) {
        if (bp >= b.size()) fail("malformed column batch");
        const auto presence = static_cast<std::uint8_t>(b[bp++]);
        if (presence == 0) continue;
        if (presence != 1 && presence != 2)
          fail("malformed column batch (bad presence marker)");

        DecodedColumn& cv = batch.cols.emplace_back();
        cv.name = &col.name;
        cv.type = col.type;
        cv.all_present = presence == 2;
        std::size_t n_present = nrows;
        if (!cv.all_present) {
          const std::size_t bitmap_len = (nrows + 7) / 8;
          if (bitmap_len > b.size() - bp) fail("malformed column batch");
          for (std::size_t r = 0; r < nrows; ++r)
            if ((static_cast<unsigned char>(b[bp + r / 8]) >> (r % 8) & 1) !=
                0)
              cv.present.push_back(r);
          bp += bitmap_len;
          n_present = cv.present.size();
        }

        if (bp >= b.size()) fail("malformed column batch");
        const auto encoding = static_cast<std::uint8_t>(b[bp++]);
        switch (col.type) {
          case Field::Tag::kInt: {
            if (encoding != 0) fail("malformed column batch (int encoding)");
            cv.nums.resize(n_present);
            std::int64_t prev = 0;
            for (double& d : cv.nums) {
              std::uint64_t zz = 0;
              batch_varint(zz);
              prev = static_cast<std::int64_t>(
                  static_cast<std::uint64_t>(prev) +
                  static_cast<std::uint64_t>(unzigzag(zz)));
              d = static_cast<double>(prev);
            }
            break;
          }
          case Field::Tag::kUint: {
            if (encoding != 0) fail("malformed column batch (uint encoding)");
            cv.nums.resize(n_present);
            std::uint64_t prev = 0;
            for (double& d : cv.nums) {
              std::uint64_t zz = 0;
              batch_varint(zz);
              prev += static_cast<std::uint64_t>(unzigzag(zz));
              d = static_cast<double>(prev);
            }
            break;
          }
          case Field::Tag::kDouble: {
            if (encoding == 1) {  // one value for every present row
              std::uint64_t bits = 0;
              if (!get_u64(b, bp, bits)) fail("malformed column batch");
              cv.bits.assign(n_present, bits);
            } else if (encoding == 0) {
              cv.bits.resize(n_present);
              for (std::uint64_t& bits : cv.bits)
                if (!get_u64(b, bp, bits)) fail("malformed column batch");
            } else {
              fail("malformed column batch (double encoding)");
            }
            break;
          }
          case Field::Tag::kBool: {
            if (encoding != 0) fail("malformed column batch (bool encoding)");
            const std::size_t bits_len = (n_present + 7) / 8;
            if (bits_len > b.size() - bp) fail("malformed column batch");
            cv.bools.resize(n_present);
            for (std::size_t i = 0; i < n_present; ++i)
              cv.bools[i] =
                  static_cast<unsigned char>(b[bp + i / 8]) >> (i % 8) & 1;
            bp += bits_len;
            break;
          }
          case Field::Tag::kString: {
            const auto read_str = [&](std::string& s) {
              std::uint64_t len = 0;
              batch_varint(len);
              if (len > b.size() - bp) fail("malformed column batch");
              s.assign(b.data() + bp, static_cast<std::size_t>(len));
              bp += static_cast<std::size_t>(len);
            };
            cv.strs.resize(n_present);
            if (encoding == 1) {  // per-block dictionary
              std::uint64_t dict_size = 0;
              batch_varint(dict_size);
              if (dict_size > n_present)
                fail("malformed column batch (dictionary)");
              std::vector<std::string> dict(
                  static_cast<std::size_t>(dict_size));
              for (std::string& s : dict) read_str(s);
              for (std::string& s : cv.strs) {
                std::uint64_t idx = 0;
                batch_varint(idx);
                if (idx >= dict.size())
                  fail("malformed column batch (dictionary index)");
                s = dict[static_cast<std::size_t>(idx)];
              }
            } else if (encoding == 0) {
              for (std::string& s : cv.strs) read_str(s);
            } else {
              fail("malformed column batch (string encoding)");
            }
            break;
          }
        }
      }
      if (bp != b.size()) fail("malformed column batch (trailing bytes)");
      pending[kind_id].push_back(std::move(batch));
    }
    if (pos != p.size()) fail("malformed data block (trailing bytes)");

    if (decode) {
      for (std::size_t k = 0; k < kind_counts.size(); ++k)
        if (decoded_rows[k] != kind_counts[k])
          fail("malformed data block (order runs disagree with batch rows)");
      // Assembly: walk the order runs, consuming each kind's decoded
      // batches FIFO; the output vector is written front to back.
      std::vector<std::size_t> front(info_.kinds.size(), 0);
      std::size_t out_idx = base_out;
      for (const auto& [kind_id, len] : runs) {
        auto& queue = pending[kind_id];
        std::size_t& f = front[kind_id];
        const std::string& kind_name = info_.kinds[kind_id].name;
        for (std::uint64_t i = 0; i < len; ++i) {
          while (f < queue.size() && queue[f].next_row == queue[f].rows) ++f;
          // Row totals were validated above, so a batch always remains.
          DecodedBatch& db = queue[f];
          const std::size_t r = db.next_row++;
          RecordedEvent& ev = out[out_idx++];
          ev.kind = kind_name;
          ev.fields.reserve(db.cols.size());
          for (DecodedColumn& cv : db.cols) {
            std::size_t idx = r;
            if (!cv.all_present) {
              if (cv.next >= cv.present.size() || cv.present[cv.next] != r)
                continue;
              idx = cv.next++;
            }
            auto& field = ev.fields.emplace_back();
            field.first = *cv.name;
            EventValue& v = field.second;
            switch (cv.type) {
              case Field::Tag::kInt:
              case Field::Tag::kUint:
                v.tag = EventValue::Tag::kNumber;
                v.num = cv.nums[idx];
                break;
              case Field::Tag::kDouble: {
                const double d = std::bit_cast<double>(cv.bits[idx]);
                if (std::isfinite(d)) {  // non-finite stays null, like JSONL
                  v.tag = EventValue::Tag::kNumber;
                  v.num = d;
                }
                break;
              }
              case Field::Tag::kBool:
                v.tag = EventValue::Tag::kBool;
                v.b = cv.bools[idx] != 0;
                break;
              case Field::Tag::kString:
                v.tag = EventValue::Tag::kString;
                v.str = std::move(cv.strs[idx]);
                break;
            }
          }
        }
      }
    }
    rollback.armed = false;
    return true;
  }
}

namespace {

// Exact event count for pre-sizing read_events_btrc's output: walks
// block headers, reads only the leading event_count varint of each
// data block, and seeks past everything else.  Best effort — any
// irregularity just ends the count early, and compressed data blocks
// return nullopt (their count lives inside the compressed payload);
// the decoding pass owns validation and error reporting.
std::optional<std::uint64_t> count_events_fast(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::streamoff file_size = in.tellg();
  if (file_size < static_cast<std::streamoff>(kFileHeaderSize))
    return std::nullopt;
  in.seekg(static_cast<std::streamoff>(kFileHeaderSize));
  std::uint64_t total = 0;
  auto at = static_cast<std::streamoff>(kFileHeaderSize);
  while (in) {
    char header[kBlockHeaderSize] = {};
    in.read(header, kBlockHeaderSize);
    if (in.gcount() < static_cast<std::streamsize>(kBlockHeaderSize)) break;
    const auto type = static_cast<std::uint8_t>(header[0]);
    const auto flags = static_cast<std::uint8_t>(header[1]);
    std::string_view hv(header, kBlockHeaderSize);
    std::size_t hpos = 2;
    std::uint32_t raw_len = 0;
    std::uint32_t stored_len = 0;
    std::uint32_t crc = 0;
    get_u32(hv, hpos, raw_len);
    get_u32(hv, hpos, stored_len);
    get_u32(hv, hpos, crc);
    if (stored_len > kMaxBlockLen) break;
    at += static_cast<std::streamoff>(kBlockHeaderSize) + stored_len;
    if (type == kDataBlock) {
      if ((flags & 1) != 0) return std::nullopt;  // compressed
      char lead[10] = {};
      const std::size_t lead_len = stored_len < 10 ? stored_len : 10;
      in.read(lead, static_cast<std::streamsize>(lead_len));
      if (in.gcount() < static_cast<std::streamsize>(lead_len)) break;
      std::size_t lpos = 0;
      std::uint64_t n = 0;
      if (!get_varint(std::string_view(lead, lead_len), lpos, n)) break;
      total += n;
    }
    in.seekg(at);
  }
  // A corrupt count field must not drive a huge allocation: one event
  // costs at least a byte on disk, so the file size bounds the count.
  const auto bound = static_cast<std::uint64_t>(file_size);
  return total < bound ? total : bound;
}

}  // namespace

std::vector<RecordedEvent> read_events_btrc(const std::string& path) {
  std::vector<RecordedEvent> out;
  // Pre-size the output so decoded events are never moved by vector
  // reallocation; decoding validates the real counts.
  if (const auto n = count_events_fast(path))
    out.reserve(static_cast<std::size_t>(*n));
  TraceReader reader(path);
  while (reader.next_block(out)) {
  }
  return out;
}

TraceFileInfo read_trace_info(const std::string& path) {
  TraceReader reader(path);
  std::vector<RecordedEvent> scratch;
  while (reader.next_block(scratch, /*decode=*/false)) {
  }
  return reader.info();
}

EventFormat sniff_event_format(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  BURSTQ_REQUIRE(in.is_open(), "cannot open event file: " + path);
  char magic[4] = {};
  in.read(magic, 4);
  if (in.gcount() == 4 && std::string_view(magic, 4) == kTraceMagic)
    return EventFormat::kBinary;
  in.clear();
  in.seekg(0);
  std::string first_line;
  std::getline(in, first_line);
  if (!first_line.empty() && first_line.back() == '\r') first_line.pop_back();
  if (first_line == "id,kind,key,value")
    throw InvalidArgument(
        path +
        ": long-CSV event logs are lossy (string-typed) and cannot be read "
        "back; record .jsonl or .btrc and convert with `burstq_cli trace "
        "tocsv`");
  return EventFormat::kJsonl;
}

namespace {

std::vector<RecordedEvent> read_at_offset_btrc(const std::string& path,
                                               std::uint64_t offset,
                                               std::size_t max_events) {
  TraceReader reader(path);
  std::vector<RecordedEvent> out;
  // Skip (integrity-checked, schema absorbed) until the target block.
  while (reader.valid_offset() < offset) {
    if (!reader.next_block(out, /*decode=*/false))
      throw InvalidArgument(path + ": trace pointer offset " +
                            std::to_string(offset) +
                            " is past the end of the trace (last block "
                            "ends at byte " +
                            std::to_string(reader.valid_offset()) + ")");
  }
  if (reader.valid_offset() != offset)
    throw InvalidArgument(path + ": trace pointer offset " +
                          std::to_string(offset) +
                          " is not a block boundary (nearest boundary is "
                          "byte " +
                          std::to_string(reader.valid_offset()) + ")");
  while (out.size() < max_events && reader.next_block(out)) {
  }
  if (out.size() > max_events) out.resize(max_events);
  return out;
}

std::vector<RecordedEvent> read_at_offset_jsonl(const std::string& path,
                                                std::uint64_t offset,
                                                std::size_t max_events) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  BURSTQ_REQUIRE(in.is_open(), "cannot open event file: " + path);
  if (offset > 0) {
    // A valid pointer lands just after a newline; anything else is a
    // mid-line (or past-the-end) offset and would parse garbage.
    in.seekg(static_cast<std::streamoff>(offset - 1));
    char prev = '\0';
    if (!in.read(&prev, 1))
      throw InvalidArgument(path + ": trace pointer offset " +
                            std::to_string(offset) +
                            " is past the end of the trace");
    if (prev != '\n')
      throw InvalidArgument(path + ": trace pointer offset " +
                            std::to_string(offset) +
                            " is not the start of a JSONL line");
  }
  std::vector<RecordedEvent> out;
  std::string line;
  while (out.size() < max_events && std::getline(in, line)) {
    std::string error;
    auto event = parse_event_line(line, &error);
    if (!event) {
      if (error.empty()) continue;  // blank line
      throw InvalidArgument(path + ": malformed event line after offset " +
                            std::to_string(offset) + ": " + error);
    }
    out.push_back(std::move(*event));
  }
  return out;
}

}  // namespace

std::vector<RecordedEvent> read_events_at_offset(const std::string& path,
                                                 std::uint64_t offset,
                                                 std::size_t max_events) {
  if (sniff_event_format(path) == EventFormat::kBinary)
    return read_at_offset_btrc(path, offset, max_events);
  return read_at_offset_jsonl(path, offset, max_events);
}

std::vector<RecordedEvent> read_events_auto(const std::string& path) {
  if (sniff_event_format(path) == EventFormat::kBinary)
    return read_events_btrc(path);
  return read_events_jsonl(path);
}

}  // namespace burstq::obs

// BTRC trace format tests: codec primitives, columnar write -> read
// round trips, decode parity with the emitted field values (the
// bit-identity contract replay relies on), exact event-index pointers,
// loud failure on truncation/corruption and on non-BTRC files,
// compression, and the recorder self-metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "obs/event_log.h"
#include "obs/query.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_codec.h"
#include "placement/baselines.h"
#include "placement/queuing_ffd.h"
#include "sim/cluster_sim.h"
#include "sim/flight.h"

namespace burstq::obs {
namespace {

using namespace trace_detail;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- codec primitives ------------------------------------------------

TEST(TraceCodec, VarintRoundTrip) {
  const std::uint64_t cases[] = {0,       1,        127,        128,
                                 129,     16383,    16384,      (1u << 21) - 1,
                                 1u << 21, UINT32_MAX, UINT64_MAX};
  for (const std::uint64_t v : cases) {
    std::string buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    ASSERT_TRUE(get_varint(buf, pos, back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(TraceCodec, VarintRejectsTruncationAndOverlength) {
  std::string buf;
  put_varint(buf, UINT64_MAX);
  buf.pop_back();  // drop the terminating byte
  std::size_t pos = 0;
  std::uint64_t v = 0;
  EXPECT_FALSE(get_varint(buf, pos, v));
  const std::string eleven(11, '\x80');
  pos = 0;
  EXPECT_FALSE(get_varint(eleven, pos, v));
}

TEST(TraceCodec, ZigzagRoundTrip) {
  const std::int64_t cases[] = {0,  -1, 1,  -2, 2, INT64_MAX, INT64_MIN,
                                42, -42};
  for (const std::int64_t v : cases) EXPECT_EQ(unzigzag(zigzag(v)), v);
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

TEST(TraceCodec, Crc32KnownVector) {
  // The standard CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(TraceCodec, LzRoundTripRepetitiveAndRandom) {
  std::string repetitive;
  for (int i = 0; i < 500; ++i) repetitive += "slot.obs t=123 rho=0.0100 ";
  Rng rng(7);
  std::string random;
  for (int i = 0; i < 4096; ++i)
    random.push_back(static_cast<char>(rng.next_u64() & 0xFF));

  for (const std::string& raw : {repetitive, random, std::string{}}) {
    const std::string packed = lz_compress(raw);
    std::string back;
    ASSERT_TRUE(lz_decompress(packed, raw.size(), back));
    EXPECT_EQ(back, raw);
  }
  // The repetitive stream must actually shrink.
  EXPECT_LT(lz_compress(repetitive).size(), repetitive.size() / 2);
}

TEST(TraceCodec, LzDecompressRejectsCorruptStreams) {
  const std::string packed = lz_compress("abcdabcdabcdabcd");
  std::string out;
  EXPECT_FALSE(lz_decompress(packed, 99, out));  // wrong raw size
  std::string clipped = packed.substr(0, packed.size() - 1);
  EXPECT_FALSE(lz_decompress(clipped, 16, out));
}

// ---- write -> read round trips ---------------------------------------

TEST(TraceRoundTrip, MixedKindsTypesAndPresence) {
  const std::string path = temp_path("mixed.btrc");
  {
    TraceWriter w(path);
    w.append("alpha", {{"i", -5}, {"d", 0.25}, {"s", "hello"}});
    w.append("beta", {{"u", std::size_t{99}}, {"flag", true}});
    w.append("alpha", {{"i", -4}, {"s", "hello"}});  // d absent this row
    w.append("alpha", {{"i", 1000000}, {"d", -1.5}, {"s", "world"}});
    w.append("beta", {{"u", std::size_t{100}}, {"flag", false}});
  }
  const auto events = read_events_btrc(path);
  ASSERT_EQ(events.size(), 5u);
  // Global interleaving is preserved exactly.
  EXPECT_EQ(events[0].kind, "alpha");
  EXPECT_EQ(events[1].kind, "beta");
  EXPECT_EQ(events[2].kind, "alpha");
  EXPECT_EQ(events[3].kind, "alpha");
  EXPECT_EQ(events[4].kind, "beta");

  EXPECT_EQ(events[0].integer("i"), -5);
  EXPECT_DOUBLE_EQ(events[0].num("d"), 0.25);
  EXPECT_EQ(events[0].str("s"), "hello");
  EXPECT_EQ(events[2].integer("i"), -4);
  EXPECT_FALSE(events[2].has("d"));  // presence bitmap honoured
  EXPECT_EQ(events[3].integer("i"), 1000000);
  EXPECT_DOUBLE_EQ(events[3].num("d"), -1.5);
  EXPECT_EQ(events[3].str("s"), "world");
  EXPECT_EQ(events[1].integer("u"), 99);
  EXPECT_TRUE(events[1].boolean("flag"));
  EXPECT_EQ(events[4].integer("u"), 100);
  EXPECT_FALSE(events[4].boolean("flag", true));
}

TEST(TraceRoundTrip, MultiBlockWithEvolvingSchema) {
  const std::string path = temp_path("multiblock.btrc");
  TraceWriteOptions opts;
  opts.block_events = 16;  // force many blocks
  {
    TraceWriter w(path, opts);
    for (int i = 0; i < 200; ++i)
      w.append("tick", {{"t", i}, {"rho", 0.01 * i}});
    // A kind (and columns) first seen long after the first block.
    for (int i = 0; i < 50; ++i)
      w.append("late", {{"name", i % 2 == 0 ? "even" : "odd"}, {"n", i}});
    EXPECT_EQ(w.events_written(), 250u);
  }
  const auto events = read_events_btrc(path);
  ASSERT_EQ(events.size(), 250u);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(events[i].kind, "tick");
    EXPECT_EQ(events[i].integer("t"), static_cast<std::int64_t>(i));
    EXPECT_DOUBLE_EQ(events[i].num("rho"), 0.01 * static_cast<double>(i));
  }
  EXPECT_EQ(events[200].kind, "late");
  EXPECT_EQ(events[249].str("name"), "odd");

  const TraceFileInfo info = read_trace_info(path);
  EXPECT_EQ(info.events, 250u);
  EXPECT_GE(info.data_blocks, 2u);
  ASSERT_EQ(info.kinds.size(), 2u);
  EXPECT_EQ(info.kinds[0].name, "tick");
  EXPECT_EQ(info.kinds[0].rows, 200u);
  EXPECT_EQ(info.kinds[1].name, "late");
  EXPECT_EQ(info.kinds[1].rows, 50u);
  ASSERT_EQ(info.kinds[0].columns.size(), 2u);
  EXPECT_EQ(info.kinds[0].columns[0].name, "t");
  EXPECT_EQ(info.kinds[0].columns[0].type_name(), "int");
  EXPECT_EQ(info.kinds[0].columns[1].type_name(), "double");
}

TEST(TraceRoundTrip, DeterministicBytes) {
  const std::string a = temp_path("det_a.btrc");
  const std::string b = temp_path("det_b.btrc");
  for (const std::string& path : {a, b}) {
    TraceWriter w(path);
    for (int i = 0; i < 100; ++i)
      w.append("e", {{"i", i * 7}, {"s", i % 3 == 0 ? "fizz" : "x"}});
  }
  EXPECT_EQ(slurp(a), slurp(b));
}

TEST(TraceRoundTrip, NonFiniteDoublesDecodeAsNullLikeJsonl) {
  const std::string path = temp_path("nonfinite.btrc");
  {
    TraceWriter w(path);
    w.append("v", {{"nan", std::numeric_limits<double>::quiet_NaN()},
                   {"inf", std::numeric_limits<double>::infinity()},
                   {"ok", 1.5}});
  }
  const auto events = read_events_btrc(path);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_NE(events[0].find("nan"), nullptr);
  EXPECT_EQ(events[0].find("nan")->tag, EventValue::Tag::kNull);
  ASSERT_NE(events[0].find("inf"), nullptr);
  EXPECT_EQ(events[0].find("inf")->tag, EventValue::Tag::kNull);
  EXPECT_DOUBLE_EQ(events[0].num("ok"), 1.5);
}

TEST(TraceRoundTrip, CompressionPreservesContentAndShrinksFile) {
  const std::string raw_path = temp_path("comp_off.btrc");
  const std::string lz_path = temp_path("comp_on.btrc");
  TraceWriteOptions lz;
  lz.compress = true;
  const auto fill = [](TraceWriter& w) {
    for (int i = 0; i < 2000; ++i)
      w.append("slot.obs",
               {{"t", i}, {"active", "0 1 2 3 4 5 6 7"}, {"viol", ""}});
  };
  {
    TraceWriter w(raw_path);
    fill(w);
  }
  {
    TraceWriter w(lz_path, lz);
    fill(w);
  }
  const auto raw_events = read_events_btrc(raw_path);
  const auto lz_events = read_events_btrc(lz_path);
  ASSERT_EQ(raw_events.size(), lz_events.size());
  for (std::size_t i = 0; i < raw_events.size(); ++i) {
    EXPECT_EQ(raw_events[i].kind, lz_events[i].kind);
    ASSERT_EQ(raw_events[i].fields.size(), lz_events[i].fields.size());
  }
  EXPECT_LT(slurp(lz_path).size(), slurp(raw_path).size());
  EXPECT_TRUE(read_trace_info(lz_path).compressed);
  EXPECT_FALSE(read_trace_info(raw_path).compressed);
}

// Decoding a BTRC recording must yield exactly the values the emits
// carried — integers and doubles bit for bit, in emission order — the
// contract that makes replay reproduce a live run.
TEST(TraceParity, MatchesJsonlDecodeExactly) {
  const std::string path = temp_path("parity.btrc");
  EventLog log;
  log.open(path, EventFormat::kBinary, EventLevel::kDetail);

  // What each emit carried, as the reader must decode it: an integer
  // becomes a kNumber holding its exact double value.
  struct Expected {
    std::string kind;
    std::vector<std::pair<std::string, EventValue>> fields;
  };
  const auto number = [](double v) {
    EventValue ev;
    ev.tag = EventValue::Tag::kNumber;
    ev.num = v;
    return ev;
  };
  const auto text = [](const std::string& s) {
    EventValue ev;
    ev.tag = EventValue::Tag::kString;
    ev.str = s;
    return ev;
  };
  const auto boolean = [](bool b) {
    EventValue ev;
    ev.tag = EventValue::Tag::kBool;
    ev.b = b;
    return ev;
  };
  std::vector<Expected> expected;

  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const double d = static_cast<double>(rng.next_u64() % 100000) / 997.0;
    const int sign = (rng.next_u64() & 1) != 0 ? -1 : 1;
    const long long iv = sign * static_cast<long long>(rng.next_u64() %
                                                       (1ull << 50));
    const std::size_t uv = rng.next_u64() % (1ull << 50);
    const bool flag = (rng.next_u64() & 1) != 0;
    const std::string s = "pm-" + std::to_string(rng.next_u64() % 8);
    switch (i % 3) {
      case 0:
        log.emit(EventLevel::kDetail, "mix",
                 {{"i", iv}, {"u", uv}, {"d", d}, {"b", flag}, {"s", s}});
        expected.push_back({"mix",
                            {{"i", number(static_cast<double>(iv))},
                             {"u", number(static_cast<double>(uv))},
                             {"d", number(d)},
                             {"b", boolean(flag)},
                             {"s", text(s)}}});
        break;
      case 1:
        if (flag) {
          log.emit(EventLevel::kDetail, "sparse", {{"d", d}});
          expected.push_back({"sparse", {{"d", number(d)}}});
        } else {
          log.emit(EventLevel::kDetail, "sparse", {{"i", iv}, {"s", s}});
          expected.push_back(
              {"sparse",
               {{"i", number(static_cast<double>(iv))}, {"s", text(s)}}});
        }
        break;
      default:
        log.emit(EventLevel::kDetail, "text", {{"s", s}, {"t", i}});
        expected.push_back(
            {"text", {{"s", text(s)}, {"t", number(static_cast<double>(i))}}});
    }
  }
  log.close();

  const auto got = read_events_btrc(path);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, expected[i].kind) << i;
    ASSERT_EQ(got[i].fields.size(), expected[i].fields.size()) << i;
    for (std::size_t f = 0; f < got[i].fields.size(); ++f) {
      const auto& [key, want] = expected[i].fields[f];
      EXPECT_EQ(got[i].fields[f].first, key) << i;
      const EventValue& v = got[i].fields[f].second;
      ASSERT_EQ(v.tag, want.tag) << i << "/" << key;
      switch (want.tag) {
        case EventValue::Tag::kNumber:
          // Bit-identical, not approximately equal.
          EXPECT_EQ(v.num, want.num) << i << "/" << key;
          break;
        case EventValue::Tag::kString:
          EXPECT_EQ(v.str, want.str);
          break;
        case EventValue::Tag::kBool:
          EXPECT_EQ(v.b, want.b);
          break;
        case EventValue::Tag::kNull:
          break;
      }
    }
  }
}

// ---- exact event pointers --------------------------------------------

// read_events_from resolves an event index exactly, wherever it falls
// relative to block and schema boundaries; an index equal to the event
// count reads nothing and one past it throws.
TEST(TracePointer, ReadEventsFromStartsAtTheExactEvent) {
  const std::string path = temp_path("pointer.btrc");
  TraceWriteOptions opts;
  opts.block_events = 16;  // 250 events over 16 data blocks
  {
    TraceWriter w(path, opts);
    for (int i = 0; i < 200; ++i) w.append("tick", {{"t", i}});
    // A kind first announced mid-file: its schema block precedes block 13.
    for (int i = 200; i < 250; ++i) w.append("late", {{"t", i}});
  }
  for (const std::uint64_t first : {0u, 1u, 15u, 16u, 17u, 199u, 200u,
                                    208u, 249u}) {
    const auto events = read_events_from(path, first, 5);
    const std::size_t want = std::min<std::uint64_t>(5, 250 - first);
    ASSERT_EQ(events.size(), want) << first;
    for (std::size_t k = 0; k < events.size(); ++k) {
      EXPECT_EQ(events[k].integer("t"), static_cast<std::int64_t>(first + k))
          << first;
      EXPECT_EQ(events[k].kind, first + k < 200 ? "tick" : "late");
    }
  }
  // A pointer may cross many blocks in one read.
  const auto rest = read_events_from(path, 10, 1000);
  ASSERT_EQ(rest.size(), 240u);
  EXPECT_EQ(rest.back().integer("t"), 249);

  EXPECT_TRUE(read_events_from(path, 250, 5).empty());
  try {
    (void)read_events_from(path, 251, 5);
    FAIL() << "a pointer past the end must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("past the end"), std::string::npos)
        << e.what();
  }
}

// ---- corruption and truncation ---------------------------------------

TEST(TraceCorruption, TruncatedFileFailsLoudlyWithOffset) {
  const std::string path = temp_path("trunc.btrc");
  TraceWriteOptions opts;
  opts.block_events = 32;
  {
    TraceWriter w(path, opts);
    for (int i = 0; i < 100; ++i) w.append("e", {{"t", i}});
  }
  const std::string whole = slurp(path);
  // Chop mid-way through the final block's payload.
  const std::string clipped_path = temp_path("trunc_clipped.btrc");
  spit(clipped_path, whole.substr(0, whole.size() - 7));
  try {
    read_events_btrc(clipped_path);
    FAIL() << "truncated file must throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("last valid block"), std::string::npos) << what;
  }
  // Earlier intact blocks stay readable via the streaming reader.
  TraceReader reader(clipped_path);
  std::vector<RecordedEvent> events;
  EXPECT_TRUE(reader.next_block(events));
  EXPECT_FALSE(events.empty());
  EXPECT_GT(reader.valid_offset(), 8u);
}

TEST(TraceCorruption, FlippedByteFailsCrc) {
  const std::string path = temp_path("crc.btrc");
  {
    TraceWriter w(path);
    for (int i = 0; i < 10; ++i) w.append("e", {{"t", i}});
  }
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] =
      static_cast<char>(~static_cast<unsigned char>(bytes[bytes.size() / 2]));
  const std::string bad = temp_path("crc_bad.btrc");
  spit(bad, bytes);
  try {
    read_events_btrc(bad);
    FAIL() << "corrupt file must throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(TraceCorruption, BadMagicAndVersionRejected) {
  const std::string path = temp_path("magic.btrc");
  spit(path, std::string("NOPE\x01\x00\x00\x00", 8));
  EXPECT_THROW(read_events_btrc(path), InvalidArgument);
  std::string versioned = "BTRC";
  versioned += '\x63';  // version 99
  versioned += std::string("\x00\x00\x00", 3);
  spit(path, versioned);
  EXPECT_THROW(read_events_btrc(path), InvalidArgument);
}

// ---- degenerate files ------------------------------------------------

TEST(TraceDegenerate, ZeroEventFileReadsBackEmpty) {
  const std::string path = temp_path("zero.btrc");
  {
    TraceWriter w(path);
    EXPECT_EQ(w.events_written(), 0u);
  }
  EXPECT_TRUE(read_events_btrc(path).empty());
  const TraceFileInfo info = read_trace_info(path);
  EXPECT_EQ(info.events, 0u);
  EXPECT_EQ(info.data_blocks, 0u);
  EXPECT_TRUE(info.kinds.empty());
}

TEST(TraceDegenerate, HeaderOnlyFileIsEmptyNotAnError) {
  // The 8-byte header with nothing after it — what a process killed
  // right after open() leaves behind.
  const std::string path = temp_path("header_only.btrc");
  std::string header = "BTRC";
  header += '\x01';
  header += std::string("\x00\x00\x00", 3);
  spit(path, header);
  EXPECT_TRUE(read_events_btrc(path).empty());
  TraceReader reader(path);
  std::vector<RecordedEvent> events;
  EXPECT_FALSE(reader.next_block(events));
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(reader.valid_offset(), 8u);
}

TEST(TraceDegenerate, SinglePartialBlockYieldsNoEventsAndNamesHeader) {
  // A file whose ONLY block is torn (killed mid first flush): the
  // streaming reader — the path `trace tail` walks — must surface zero
  // events and report the header end (offset 8) as the last valid byte.
  const std::string path = temp_path("one_block.btrc");
  {
    TraceWriter w(path);
    for (int i = 0; i < 20; ++i) w.append("e", {{"t", i}});
  }
  const std::string whole = slurp(path);
  ASSERT_GT(whole.size(), 12u);
  const std::string torn = temp_path("one_block_torn.btrc");
  spit(torn, whole.substr(0, 12));  // header + 4 stray bytes

  TraceReader reader(torn);
  std::vector<RecordedEvent> events;
  EXPECT_THROW(reader.next_block(events), InvalidArgument);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(reader.valid_offset(), 8u);
  try {
    read_events_btrc(torn);
    FAIL() << "torn single-block file must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

// ---- format dispatch -------------------------------------------------

TEST(FormatDispatch, SniffsBothFormats) {
  const std::string btrc = temp_path("sniff.btrc_actually_other_name");
  {
    TraceWriter w(btrc);
    w.append("k", {{"a", 1}});
  }
  EXPECT_EQ(sniff_event_format(btrc), EventFormat::kBinary);
  const auto events = read_events_btrc(btrc);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].integer("a"), 1);

  // A JSONL log (what older builds recorded) is recognised as not BTRC.
  const std::string jsonl = temp_path("sniff.jsonl");
  spit(jsonl, "{\"kind\":\"k\",\"a\":1}\n");
  EXPECT_THROW((void)sniff_event_format(jsonl), InvalidArgument);
}

TEST(FormatDispatch, PathExtensionMapping) {
  EXPECT_EQ(event_format_from_path("x.btrc"), EventFormat::kBinary);
  EXPECT_EQ(event_format_from_path("dir.d/run.trace.btrc"),
            EventFormat::kBinary);
  EXPECT_THROW((void)event_format_from_path("x.log"), InvalidArgument);
  EXPECT_THROW((void)event_format_from_path("x.btrc.gz"), InvalidArgument);
  EXPECT_EQ(format_name(EventFormat::kBinary), "btrc");
}

/// Expects `call` to throw InvalidArgument naming .btrc and the
/// `trace tocsv` converter.
template <typename F>
void expect_btrc_hint(const F& call) {
  try {
    call();
    ADD_FAILURE() << "must be rejected";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace tocsv"), std::string::npos) << what;
    EXPECT_NE(what.find(".btrc"), std::string::npos) << what;
  }
}

// Long CSV is an export (`trace tocsv`), not a recording format: a .csv
// sink path and a file starting with the long-CSV header both throw, and
// the message points at the converter.
TEST(FormatDispatch, LongCsvIsRejectedNamingTraceTocsv) {
  expect_btrc_hint([] { (void)event_format_from_path("x.csv"); });

  const std::string csv = temp_path("sniff.csv");
  spit(csv, "id,kind,key,value\n0,k,,\n0,k,a,1\n");
  expect_btrc_hint([&] { (void)sniff_event_format(csv); });
  expect_btrc_hint([&] { (void)read_events_btrc(csv); });
  expect_btrc_hint([&] { (void)read_events_from(csv, 0, 1); });
}

// BTRC is the only recording format: a .jsonl sink path is refused
// (every --obs-out goes through event_format_from_path), and a JSONL
// file is refused by every reader, each with the message naming .btrc
// and `trace tocsv`.
TEST(FormatDispatch, JsonlSinkAndFileAreRefused) {
  expect_btrc_hint([] { (void)event_format_from_path("run.jsonl"); });

  const std::string jsonl = temp_path("refused_file.jsonl");
  spit(jsonl, "{\"kind\":\"sim.config\",\"n_pms\":4}\n");
  expect_btrc_hint([&] { (void)sniff_event_format(jsonl); });
  expect_btrc_hint([&] { (void)read_events_btrc(jsonl); });
  expect_btrc_hint([&] { (void)read_trace_info(jsonl); });
  expect_btrc_hint([&] { (void)read_events_from(jsonl, 0, 1); });
  expect_btrc_hint([&] {
    (void)scan_events(jsonl, [](const RecordedEvent&, std::uint64_t,
                                std::uint64_t) { return true; });
  });
}

// ---- EventLog integration --------------------------------------------

TEST(EventLogBinary, LevelGatingUnchanged) {
  const std::string path = temp_path("gating.btrc");
  EventLog log;
  log.open(path, EventFormat::kBinary, EventLevel::kDecisions);
  EXPECT_TRUE(log.enabled(EventLevel::kDecisions));
  EXPECT_FALSE(log.enabled(EventLevel::kDetail));
  log.emit(EventLevel::kDecisions, "kept", {{"x", 1}});
  log.emit(EventLevel::kDetail, "dropped", {{"x", 2}});
  log.close();
  EXPECT_EQ(log.events_written(), 1u);
  const auto events = read_events_btrc(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "kept");
}

TEST(EventLogBinary, SelfMetricsCountBytesEventsBlocks) {
  const std::string path = temp_path("metrics.btrc");
  const std::uint64_t bytes0 =
      metrics().counter("obs.trace.bytes_written.btrc").value();
  const std::uint64_t events0 =
      metrics().counter("obs.trace.events_written.btrc").value();
  const std::uint64_t blocks0 =
      metrics().counter("obs.trace.blocks_flushed.btrc").value();
  EventLog log;
  log.open(path, EventFormat::kBinary, EventLevel::kDetail);
  for (int i = 0; i < 100; ++i)
    log.emit(EventLevel::kDetail, "m", {{"t", i}});
  log.close();
  EXPECT_EQ(metrics().counter("obs.trace.events_written.btrc").value(),
            events0 + 100);
  const std::uint64_t bytes =
      metrics().counter("obs.trace.bytes_written.btrc").value() - bytes0;
  EXPECT_EQ(bytes, slurp(path).size());
  EXPECT_GE(metrics().counter("obs.trace.blocks_flushed.btrc").value(),
            blocks0 + 1);
  EXPECT_EQ(log.sink_format_name(), "btrc");
}

// ---- replay bit-identity ---------------------------------------------

#ifndef BURSTQ_NO_OBS

/// Records one simulator run into `path` at detail level; closes the
/// global log before returning.
SimReport record_run(const std::string& path, const ProblemInstance& inst,
                     const Placement& placement, const SimConfig& cfg,
                     std::uint64_t seed) {
  events().open(path, event_format_from_path(path), EventLevel::kDetail);
  events().set_run_label("trace-parity");
  ClusterSimulator sim(inst, placement, cfg, Rng(seed));
  SimReport report = sim.run();
  events().close();
  events().set_run_label("");
  return report;
}

// Replaying a BTRC recording re-derives the live run's CvrTracker (every
// PM's cumulative and windowed CVR, bit for bit), its migration count
// and its live SloTracker report, down to every digit.
TEST(TraceReplay, BtrcReplayBitIdenticalToJsonl) {
  Rng rng(99);
  const OnOffParams p{0.01, 0.09};
  const auto inst = random_instance(40, 40, p, InstanceRanges{}, rng);
  const auto placed = queuing_ffd(inst);
  ASSERT_TRUE(placed.result.complete());
  SloOptions slo;
  SloTracker live_slo(inst.n_pms(), slo);
  SimConfig cfg;
  cfg.slots = 400;
  cfg.slo = &live_slo;

  const std::string path = temp_path("replay_parity.btrc");
  const SimReport live =
      record_run(path, inst, placed.result.placement, cfg, 4242);
  ASSERT_GT(live.total_migrations, 0u);  // the windowed path is exercised

  const auto seg = replay_flight_log(path, &slo);
  ASSERT_EQ(seg.size(), 1u);
  ASSERT_EQ(seg[0].n_pms, live.pm_cvr.size());
  for (std::size_t j = 0; j < seg[0].n_pms; ++j) {
    const PmId pm{j};
    EXPECT_EQ(seg[0].tracker.cvr(pm), live.pm_cvr[j]) << j;
    EXPECT_EQ(seg[0].tracker.windowed_cvr(pm), live.pm_windowed_cvr_end[j])
        << j;
  }
  EXPECT_EQ(seg[0].tracker.mean_cvr(), live.mean_cvr);
  EXPECT_EQ(seg[0].migrations, live.total_migrations);
  EXPECT_EQ(seg[0].slots_seen, cfg.slots);

  ASSERT_NE(seg[0].slo, nullptr);
  EXPECT_EQ(seg[0].slo->report().render(), live_slo.report().render());
}

TEST(TraceReplay, CsvLogsAreRejectedWithClearError) {
  Rng rng(11);
  const OnOffParams p{0.01, 0.09};
  const auto inst = random_instance(10, 10, p, InstanceRanges{}, rng);
  const auto placed = queuing_ffd(inst);
  SimConfig cfg;
  cfg.slots = 50;
  const std::string csv_path = temp_path("replay_reject.csv");
  // There is no CSV sink to record with, so write the long-CSV rows
  // `trace tocsv` would print for the run's first event.
  EXPECT_THROW(record_run(csv_path, inst, placed.result.placement, cfg, 1),
               InvalidArgument);
  spit(csv_path,
       "id,kind,key,value\n0,sim.config,,\n0,sim.config,n_pms,10\n");
  try {
    replay_flight_log(csv_path, nullptr);
    FAIL() << "CSV replay must be rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("lossy"), std::string::npos)
        << e.what();
  }
}

#endif  // BURSTQ_NO_OBS

}  // namespace
}  // namespace burstq::obs

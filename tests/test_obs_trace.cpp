// BTRC trace format tests: codec primitives, columnar write -> read
// round trips, decode parity with the JSONL sink (the bit-identity
// contract replay relies on), loud failure on truncation/corruption,
// compression, and the recorder self-metrics.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "obs/event_log.h"
#include "obs/jsonl.h"
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

// Decoding a BTRC recording must yield the same RecordedEvent stream as
// the JSONL sink fed the same emits — the contract that makes replay
// format-agnostic.
TEST(TraceParity, MatchesJsonlDecodeExactly) {
  const std::string jsonl_path = temp_path("parity.jsonl");
  const std::string btrc_path = temp_path("parity.btrc");
  EventLog jl;
  jl.open(jsonl_path, EventFormat::kJsonl, EventLevel::kDetail);
  EventLog bl;
  bl.open(btrc_path, EventFormat::kBinary, EventLevel::kDetail);

  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const double d = static_cast<double>(rng.next_u64() % 100000) / 997.0;
    const int sign = (rng.next_u64() & 1) != 0 ? -1 : 1;
    const long long iv = sign * static_cast<long long>(rng.next_u64() %
                                                       (1ull << 50));
    const std::size_t uv = rng.next_u64() % (1ull << 50);
    const bool flag = (rng.next_u64() & 1) != 0;
    const std::string s = "pm-" + std::to_string(rng.next_u64() % 8);
    const auto emit = [&](EventLog& log) {
      switch (i % 3) {
        case 0:
          log.emit(EventLevel::kDetail, "mix",
                   {{"i", iv}, {"u", uv}, {"d", d}, {"b", flag}, {"s", s}});
          break;
        case 1:
          log.emit(EventLevel::kDetail, "sparse",
                   flag ? std::initializer_list<Field>{{"d", d}}
                        : std::initializer_list<Field>{{"i", iv}, {"s", s}});
          break;
        default:
          log.emit(EventLevel::kDetail, "text", {{"s", s}, {"t", i}});
      }
    };
    emit(jl);
    emit(bl);
  }
  jl.close();
  bl.close();

  const auto je = read_events_jsonl(jsonl_path);
  const auto be = read_events_btrc(btrc_path);
  ASSERT_EQ(je.size(), be.size());
  for (std::size_t i = 0; i < je.size(); ++i) {
    EXPECT_EQ(je[i].kind, be[i].kind) << i;
    ASSERT_EQ(je[i].fields.size(), be[i].fields.size()) << i;
    for (std::size_t f = 0; f < je[i].fields.size(); ++f) {
      EXPECT_EQ(je[i].fields[f].first, be[i].fields[f].first) << i;
      const EventValue& jv = je[i].fields[f].second;
      const EventValue& bv = be[i].fields[f].second;
      ASSERT_EQ(jv.tag, bv.tag) << i << "/" << je[i].fields[f].first;
      switch (jv.tag) {
        case EventValue::Tag::kNumber:
          // Bit-identical, not approximately equal.
          EXPECT_EQ(jv.num, bv.num) << i << "/" << je[i].fields[f].first;
          break;
        case EventValue::Tag::kString:
          EXPECT_EQ(jv.str, bv.str);
          break;
        case EventValue::Tag::kBool:
          EXPECT_EQ(jv.b, bv.b);
          break;
        case EventValue::Tag::kNull:
          break;
      }
    }
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
  const std::string btrc = temp_path("sniff.btrc_actually_jsonl_name");
  {
    TraceWriter w(btrc);
    w.append("k", {{"a", 1}});
  }
  EXPECT_EQ(sniff_event_format(btrc), EventFormat::kBinary);

  const std::string jsonl = temp_path("sniff.jsonl");
  spit(jsonl, "{\"kind\":\"k\",\"a\":1}\n");
  EXPECT_EQ(sniff_event_format(jsonl), EventFormat::kJsonl);

  const auto via_auto = read_events_auto(btrc);
  ASSERT_EQ(via_auto.size(), 1u);
  EXPECT_EQ(via_auto[0].integer("a"), 1);
}

TEST(FormatDispatch, PathExtensionMapping) {
  EXPECT_EQ(event_format_from_path("x.btrc"), EventFormat::kBinary);
  EXPECT_EQ(event_format_from_path("x.jsonl"), EventFormat::kJsonl);
  EXPECT_EQ(event_format_from_path("x.log"), EventFormat::kJsonl);
  EXPECT_EQ(format_name(EventFormat::kBinary), "btrc");
  EXPECT_EQ(format_name(EventFormat::kJsonl), "jsonl");
}

// Long CSV is an export (`trace tocsv`), not a recording format: a .csv
// sink path and a file starting with the long-CSV header both throw, and
// the message points at the converter.
TEST(FormatDispatch, LongCsvIsRejectedNamingTraceTocsv) {
  const auto expect_tocsv_hint = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "long CSV must be rejected";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("trace tocsv"), std::string::npos) << what;
      EXPECT_NE(what.find(".btrc"), std::string::npos) << what;
    }
  };
  expect_tocsv_hint([] { (void)event_format_from_path("x.csv"); });

  const std::string csv = temp_path("sniff.csv");
  spit(csv, "id,kind,key,value\n0,k,,\n0,k,a,1\n");
  expect_tocsv_hint([&] { (void)sniff_event_format(csv); });
  expect_tocsv_hint([&] { (void)read_events_auto(csv); });
  expect_tocsv_hint([&] { (void)read_events_at_offset(csv, 0, 1); });
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

TEST(EventLogText, SelfMetricsCountJsonlBytes) {
  const std::string path = temp_path("metrics.jsonl");
  const std::uint64_t bytes0 =
      metrics().counter("obs.trace.bytes_written.jsonl").value();
  const std::uint64_t events0 =
      metrics().counter("obs.trace.events_written.jsonl").value();
  EventLog log;
  log.open(path, EventFormat::kJsonl, EventLevel::kDetail);
  log.emit(EventLevel::kDecisions, "m", {{"t", 1}});
  log.close();
  EXPECT_EQ(metrics().counter("obs.trace.events_written.jsonl").value(),
            events0 + 1);
  EXPECT_EQ(metrics().counter("obs.trace.bytes_written.jsonl").value() -
                bytes0,
            slurp(path).size());
  EXPECT_EQ(log.sink_format_name(), "jsonl");
}

// ---- replay bit-identity ---------------------------------------------

#ifndef BURSTQ_NO_OBS

/// Records one simulator run into `path` (format from the extension) at
/// detail level; closes the global log before returning.
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

TEST(TraceReplay, BtrcReplayBitIdenticalToJsonl) {
  Rng rng(99);
  const OnOffParams p{0.01, 0.09};
  const auto inst = random_instance(40, 40, p, InstanceRanges{}, rng);
  const auto placed = queuing_ffd(inst);
  ASSERT_TRUE(placed.result.complete());
  SimConfig cfg;
  cfg.slots = 400;

  const std::string jsonl_path = temp_path("replay_parity.jsonl");
  const std::string btrc_path = temp_path("replay_parity.btrc");
  const SimReport live_j =
      record_run(jsonl_path, inst, placed.result.placement, cfg, 4242);
  const SimReport live_b =
      record_run(btrc_path, inst, placed.result.placement, cfg, 4242);
  ASSERT_EQ(live_j.mean_cvr, live_b.mean_cvr);  // same seed, same run

  SloOptions slo;
  const auto seg_j = replay_flight_log(jsonl_path, &slo);
  const auto seg_b = replay_flight_log(btrc_path, &slo);
  ASSERT_EQ(seg_j.size(), 1u);
  ASSERT_EQ(seg_b.size(), 1u);

  // CVR re-derivation: bit-for-bit across formats and vs the live run.
  ASSERT_EQ(seg_j[0].n_pms, seg_b[0].n_pms);
  for (std::size_t j = 0; j < seg_j[0].n_pms; ++j) {
    const PmId pm{j};
    EXPECT_EQ(seg_j[0].tracker.cvr(pm), seg_b[0].tracker.cvr(pm));
    EXPECT_EQ(seg_j[0].tracker.windowed_cvr(pm),
              seg_b[0].tracker.windowed_cvr(pm));
    EXPECT_EQ(seg_b[0].tracker.cvr(pm), live_b.pm_cvr[j]);
  }
  EXPECT_EQ(seg_j[0].migrations, seg_b[0].migrations);
  EXPECT_EQ(seg_j[0].slots_seen, seg_b[0].slots_seen);

  // SLO re-derivation: identical report text, down to every digit.
  ASSERT_NE(seg_j[0].slo, nullptr);
  ASSERT_NE(seg_b[0].slo, nullptr);
  EXPECT_EQ(seg_j[0].slo->report().render(), seg_b[0].slo->report().render());

  // And the binary file earns its keep on size.
  EXPECT_LT(slurp(btrc_path).size(), slurp(jsonl_path).size());
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
    EXPECT_NE(std::string(e.what()).find("lossy"), std::string::npos);
  }
}

#endif  // BURSTQ_NO_OBS

}  // namespace
}  // namespace burstq::obs

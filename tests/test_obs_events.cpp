// Tests for the structured event log and its JSONL reader: field typing,
// level gating, JSON escaping, and write -> parse round trips.

#include <gtest/gtest.h>

#include <limits>

#include "common/csv.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/event_log.h"
#include "obs/jsonl.h"

namespace burstq::obs {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(EventLevel, Parsing) {
  EXPECT_EQ(parse_event_level("off"), EventLevel::kOff);
  EXPECT_EQ(parse_event_level("decisions"), EventLevel::kDecisions);
  EXPECT_EQ(parse_event_level("detail"), EventLevel::kDetail);
  EXPECT_EQ(parse_event_level("0"), EventLevel::kOff);
  EXPECT_EQ(parse_event_level("2"), EventLevel::kDetail);
  EXPECT_THROW(parse_event_level("verbose"), InvalidArgument);
}

TEST(JsonEscape, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
}

TEST(EventLog, ClosedLogIsDisabledAndDropsEvents) {
  EventLog log;
  EXPECT_FALSE(log.enabled(EventLevel::kDecisions));
  log.emit(EventLevel::kDecisions, "dropped", {{"x", 1}});
  EXPECT_EQ(log.events_written(), 0u);
}

TEST(EventLog, LevelGating) {
  const std::string path = temp_path("gating.jsonl");
  EventLog log;
  log.open(path, EventFormat::kJsonl, EventLevel::kDecisions);
  EXPECT_TRUE(log.enabled(EventLevel::kDecisions));
  EXPECT_FALSE(log.enabled(EventLevel::kDetail));
  log.emit(EventLevel::kDecisions, "kept", {});
  log.emit(EventLevel::kDetail, "dropped", {});
  log.close();
  EXPECT_FALSE(log.enabled(EventLevel::kDecisions));
  const auto events = read_events_jsonl(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "kept");
}

TEST(EventLog, JsonlRoundTripPreservesTypesAndValues) {
  const std::string path = temp_path("roundtrip.jsonl");
  EventLog log;
  log.open(path, EventFormat::kJsonl, EventLevel::kDetail);
  log.emit(EventLevel::kDecisions, "mixed",
           {{"i", -42},
            {"u", std::size_t{7}},
            {"d", 0.125},
            {"yes", true},
            {"no", false},
            {"s", "a \"quoted\"\nstring"}});
  log.emit(EventLevel::kDetail, "tiny", {{"t", 0}});
  log.close();
  EXPECT_EQ(log.events_written(), 2u);

  const auto events = read_events_jsonl(path);
  ASSERT_EQ(events.size(), 2u);
  const RecordedEvent& e = events[0];
  EXPECT_EQ(e.kind, "mixed");
  EXPECT_EQ(e.integer("i"), -42);
  EXPECT_EQ(e.integer("u"), 7);
  EXPECT_DOUBLE_EQ(e.num("d"), 0.125);
  EXPECT_TRUE(e.boolean("yes"));
  EXPECT_FALSE(e.boolean("no", true));
  EXPECT_EQ(e.str("s"), "a \"quoted\"\nstring");
  EXPECT_FALSE(e.has("absent"));
  EXPECT_EQ(e.integer("absent", -1), -1);
  EXPECT_EQ(events[1].kind, "tiny");
}

TEST(EventLog, NonFiniteDoublesBecomeNull) {
  const std::string path = temp_path("nonfinite.jsonl");
  EventLog log;
  log.open(path, EventFormat::kJsonl, EventLevel::kDetail);
  log.emit(EventLevel::kDecisions, "nan",
           {{"v", std::numeric_limits<double>::quiet_NaN()}});
  log.close();
  const auto events = read_events_jsonl(path);
  ASSERT_EQ(events.size(), 1u);
  const EventValue* v = events[0].find("v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->tag, EventValue::Tag::kNull);
}

TEST(EventLog, RunLabelRoundTrip) {
  EventLog log;
  EXPECT_EQ(log.run_label(), "");
  log.set_run_label("fig6/QUEUE");
  EXPECT_EQ(log.run_label(), "fig6/QUEUE");
}

TEST(ParseEventLine, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_event_line("", &error).has_value());
  EXPECT_TRUE(error.empty());  // blank line is not an error
  EXPECT_FALSE(parse_event_line("not json", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_event_line("{\"kind\":\"x\",\"v\":[1]}", &error)
                   .has_value());
  EXPECT_FALSE(parse_event_line("{\"kind\":\"x\"", &error).has_value());
}

TEST(ParseEventLine, ParsesEscapesAndNumbers) {
  const auto e = parse_event_line(
      "{\"kind\":\"k\",\"s\":\"a\\u0041\\n\",\"n\":-1.5e2,\"b\":true,"
      "\"z\":null}");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, "k");
  EXPECT_EQ(e->str("s"), "aA\n");
  EXPECT_DOUBLE_EQ(e->num("n"), -150.0);
  EXPECT_TRUE(e->boolean("b"));
  ASSERT_NE(e->find("z"), nullptr);
  EXPECT_EQ(e->find("z")->tag, EventValue::Tag::kNull);
}

TEST(ReadEventsJsonl, MissingFileThrows) {
  EXPECT_THROW(read_events_jsonl(temp_path("does_not_exist.jsonl")),
               InvalidArgument);
}

// Seed-pure fuzz-style round trip: adversarial strings (unicode bytes,
// embedded quotes/backslashes/newlines/control bytes, empty values) must
// survive writer escaping and reader parsing.
namespace {

std::string fuzz_string(Rng& rng) {
  static const std::string_view pieces[] = {
      "",        "\"",      "\\",        "\\\\\"",   "\n",  "\r\n",
      "\t",      ",",       ",,",        "a,b\"c\n", "\x01", "\x1f",
      "héllo",   "Ω≈ç√∫",  "日本語",    "🌀🌀",     " ",   "null",
      "true",    "-1.5e3",  "0",         "id,kind",  "{}",  "}{",
      "end\\"};
  std::string out;
  const std::size_t parts = rng.next_u64() % 4;
  for (std::size_t i = 0; i <= parts; ++i)
    out += pieces[rng.next_u64() % std::size(pieces)];
  return out;
}

}  // namespace

TEST(EventLogFuzz, JsonlEscapingRoundTripsAdversarialStrings) {
  const std::string path = temp_path("fuzz.jsonl");
  Rng rng(20240809);  // seed-pure: same strings every run
  std::vector<std::pair<std::string, std::string>> emitted;  // key, value
  EventLog log;
  log.open(path, EventFormat::kJsonl, EventLevel::kDetail);
  for (int i = 0; i < 300; ++i) {
    std::string key = fuzz_string(rng);
    if (key == "kind" || key.empty()) key = "k" + key;
    const std::string value = fuzz_string(rng);
    log.emit(EventLevel::kDetail, "fuzz", {{key, std::string_view(value)}});
    emitted.emplace_back(std::move(key), value);
  }
  log.close();

  const auto events = read_events_jsonl(path);
  ASSERT_EQ(events.size(), emitted.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].fields.size(), 1u) << i;
    EXPECT_EQ(events[i].fields[0].first, emitted[i].first) << i;
    ASSERT_EQ(events[i].fields[0].second.tag, EventValue::Tag::kString);
    EXPECT_EQ(events[i].fields[0].second.str, emitted[i].second) << i;
  }
}

// RFC 4180 reference splitter: a whole document into records of fields.
// Quoted fields may embed commas, doubled quotes and line breaks.
std::vector<std::vector<std::string>> split_csv(std::string_view text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        fields.back() += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        fields.back() += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.emplace_back();
    } else if (c == '\n') {
      records.push_back(std::move(fields));
      fields.assign(1, std::string());
    } else {
      fields.back() += c;
    }
  }
  EXPECT_FALSE(quoted) << "unterminated quoted field";
  return records;
}

// The adversarial strings through csv_escape, the escaping `trace tocsv`
// writes its long-CSV rows with.
TEST(EventLogFuzz, CsvEscapingRoundTripsAdversarialStrings) {
  Rng rng(424242);
  std::vector<std::pair<std::string, std::string>> emitted;
  std::string text;
  for (int i = 0; i < 300; ++i) {
    std::string key = "k";  // (not "k" + …: GCC 12 -Wrestrict misfires)
    key += fuzz_string(rng);
    const std::string value = fuzz_string(rng);
    text += std::to_string(i) + ",fuzz," + csv_escape(key) + ',' +
            csv_escape(value) + '\n';
    emitted.emplace_back(key, value);
  }

  const auto records = split_csv(text);
  ASSERT_EQ(records.size(), emitted.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].size(), 4u) << i;
    EXPECT_EQ(records[i][0], std::to_string(i));
    EXPECT_EQ(records[i][1], "fuzz");
    EXPECT_EQ(records[i][2], emitted[i].first) << i;
    EXPECT_EQ(records[i][3], emitted[i].second) << i;
  }
}

}  // namespace
}  // namespace burstq::obs

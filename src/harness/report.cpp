#include "harness/report.h"

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/csv.h"
#include "common/error.h"

namespace burstq::harness {

bool ScenarioReport::all_pass() const {
  if (status != "pass") return false;
  for (const InvariantResult& inv : invariants)
    if (!inv.pass) return false;
  return true;
}

// ---- writing ---------------------------------------------------------

namespace {

/// Escapes a string for inclusion in a JSON string literal (no quotes
/// added): quotes, backslashes and control bytes.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

void append_number(std::string& out, double v) { out += csv_format(v); }

}  // namespace

std::string render_report_json(const ScenarioReport& report) {
  std::string out;
  out += "{\n  \"schema\": ";
  append_quoted(out, kReportSchema);
  out += ",\n  \"scenario\": ";
  append_quoted(out, report.scenario);
  out += ",\n  \"seed\": " + std::to_string(report.seed);
  out += ",\n  \"slots\": " + std::to_string(report.slots);
  out +=
      ",\n  \"slots_completed\": " + std::to_string(report.slots_completed);
  out += ",\n  \"status\": ";
  append_quoted(out, report.status);
  if (report.status == "abort") {
    out += ",\n  \"abort_reason\": ";
    append_quoted(out, report.abort_reason);
  }
  out += ",\n  \"trace\": {\"file\": ";
  append_quoted(out, report.trace_file);
  out += ", \"format\": ";
  append_quoted(out, report.trace_format);
  out += ", \"events\": " + std::to_string(report.trace_events) + "}";
  out += ",\n  \"invariants\": [";
  for (std::size_t i = 0; i < report.invariants.size(); ++i) {
    const InvariantResult& inv = report.invariants[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_quoted(out, invariant_name(inv.kind));
    out += ", \"op\": ";
    append_quoted(out, invariant_op_name(inv.op));
    out += ", \"threshold\": ";
    append_number(out, inv.threshold);
    out += ", \"pass\": ";
    out += inv.pass ? "true" : "false";
    out += ", \"worst\": ";
    append_number(out, inv.worst);
    out += ", \"worst_slot\": " + std::to_string(inv.worst_slot);
    out += ", \"window\": ";
    if (inv.window) {
      out += "{\"begin\": " + std::to_string(inv.window->first) +
             ", \"end\": " + std::to_string(inv.window->second) + "}";
    } else {
      out += "null";
    }
    out += ", \"trace_pointer\": ";
    if (inv.trace) {
      out += "{\"offset\": " + std::to_string(inv.trace->offset) +
             ", \"event_index\": " + std::to_string(inv.trace->event_index) +
             ", \"slot\": " + std::to_string(inv.trace->slot) + "}";
    } else {
      out += "null";
    }
    out += "}";
  }
  out += report.invariants.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void write_report(const ScenarioReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc |
                              std::ios::binary);
  BURSTQ_REQUIRE(out.is_open(), "cannot open report file: " + path);
  out << render_report_json(report);
  BURSTQ_REQUIRE(out.good(), "failed writing report file: " + path);
}

// ---- reading ---------------------------------------------------------
//
// A minimal recursive-descent JSON parser, just enough for the report
// schema (objects, arrays, strings, doubles, bools, null).  Deliberately
// local: burstq has no general JSON dependency.

namespace {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  enum class Tag { kNull, kBool, kNumber, kString, kObject, kArray };
  Tag tag{Tag::kNull};
  bool b{false};
  double num{0.0};
  std::string str;
  std::shared_ptr<JsonObject> object;
  std::shared_ptr<JsonArray> array;
};

class JsonParser {
 public:
  JsonParser(std::string_view text, const std::string& source)
      : text_(text), source_(source) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument(source_ + ": malformed report JSON at byte " +
                          std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // The writer only escapes control characters; encode the code
          // point as UTF-8 (BMP only — surrogate pairs never appear in
          // harness output and are rejected as unpaired).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string token(text_.substr(start, pos_ - start));
    try {
      std::size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) fail("bad number '" + token + "'");
      return v;
    } catch (const std::exception&) {
      fail("bad number '" + token + "'");
    }
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.tag = JsonValue::Tag::kObject;
      v.object = std::make_shared<JsonObject>();
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        (*v.object)[std::move(key)] = parse_value();
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.tag = JsonValue::Tag::kArray;
      v.array = std::make_shared<JsonArray>();
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array->push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.tag = JsonValue::Tag::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.tag = JsonValue::Tag::kBool;
      v.b = true;
      return v;
    }
    if (consume_literal("false")) {
      v.tag = JsonValue::Tag::kBool;
      v.b = false;
      return v;
    }
    if (consume_literal("null")) return v;
    v.tag = JsonValue::Tag::kNumber;
    v.num = parse_number();
    return v;
  }

  std::string_view text_;
  std::string source_;
  std::size_t pos_{0};
};

const JsonValue& require_key(const JsonValue& obj, std::string_view key,
                             const std::string& source) {
  BURSTQ_REQUIRE(obj.tag == JsonValue::Tag::kObject && obj.object,
                 source + ": report JSON: expected an object around '" +
                     std::string(key) + "'");
  const auto it = obj.object->find(key);
  BURSTQ_REQUIRE(it != obj.object->end(),
                 source + ": report JSON is missing '" + std::string(key) +
                     "'");
  return it->second;
}

std::string get_string(const JsonValue& obj, std::string_view key,
                       const std::string& source) {
  const JsonValue& v = require_key(obj, key, source);
  BURSTQ_REQUIRE(v.tag == JsonValue::Tag::kString,
                 source + ": report field '" + std::string(key) +
                     "' is not a string");
  return v.str;
}

double get_number(const JsonValue& obj, std::string_view key,
                  const std::string& source) {
  const JsonValue& v = require_key(obj, key, source);
  BURSTQ_REQUIRE(v.tag == JsonValue::Tag::kNumber,
                 source + ": report field '" + std::string(key) +
                     "' is not a number");
  return v.num;
}

std::uint64_t get_count(const JsonValue& obj, std::string_view key,
                        const std::string& source) {
  const double v = get_number(obj, key, source);
  BURSTQ_REQUIRE(v >= 0.0 && v == std::floor(v),
                 source + ": report field '" + std::string(key) +
                     "' is not a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

ScenarioReport parse_report_json(std::string_view text,
                                 const std::string& source) {
  JsonParser parser(text, source);
  const JsonValue doc = parser.parse_document();
  BURSTQ_REQUIRE(doc.tag == JsonValue::Tag::kObject,
                 source + ": report JSON is not an object");
  const std::string schema = get_string(doc, "schema", source);
  BURSTQ_REQUIRE(schema == kReportSchema,
                 source + ": unknown report schema '" + schema +
                     "' (expected " + std::string(kReportSchema) + ")");

  ScenarioReport report;
  report.scenario = get_string(doc, "scenario", source);
  report.seed = get_count(doc, "seed", source);
  report.slots = static_cast<std::size_t>(get_count(doc, "slots", source));
  report.slots_completed =
      static_cast<std::size_t>(get_count(doc, "slots_completed", source));
  report.status = get_string(doc, "status", source);
  BURSTQ_REQUIRE(report.status == "pass" || report.status == "fail" ||
                     report.status == "abort",
                 source + ": unknown report status '" + report.status + "'");
  if (report.status == "abort")
    report.abort_reason = get_string(doc, "abort_reason", source);

  const JsonValue& trace = require_key(doc, "trace", source);
  report.trace_file = get_string(trace, "file", source);
  report.trace_format = get_string(trace, "format", source);
  report.trace_events = get_count(trace, "events", source);

  const JsonValue& invs = require_key(doc, "invariants", source);
  BURSTQ_REQUIRE(invs.tag == JsonValue::Tag::kArray && invs.array,
                 source + ": report field 'invariants' is not an array");
  for (const JsonValue& entry : *invs.array) {
    InvariantResult inv;
    const std::string name = get_string(entry, "name", source);
    const auto kind = invariant_from_name(name);
    BURSTQ_REQUIRE(kind.has_value(),
                   source + ": unknown invariant '" + name + "' in report");
    inv.kind = *kind;
    const std::string op = get_string(entry, "op", source);
    const auto parsed_op = invariant_op_from_name(op);
    BURSTQ_REQUIRE(parsed_op.has_value(),
                   source + ": unknown invariant op '" + op + "' in report");
    inv.op = *parsed_op;
    inv.threshold = get_number(entry, "threshold", source);
    const JsonValue& pass = require_key(entry, "pass", source);
    BURSTQ_REQUIRE(pass.tag == JsonValue::Tag::kBool,
                   source + ": report field 'pass' is not a boolean");
    inv.pass = pass.b;
    inv.worst = get_number(entry, "worst", source);
    inv.worst_slot =
        static_cast<std::size_t>(get_count(entry, "worst_slot", source));
    const JsonValue& window = require_key(entry, "window", source);
    if (window.tag != JsonValue::Tag::kNull)
      inv.window = {
          static_cast<std::size_t>(get_count(window, "begin", source)),
          static_cast<std::size_t>(get_count(window, "end", source))};
    const JsonValue& pointer = require_key(entry, "trace_pointer", source);
    if (pointer.tag != JsonValue::Tag::kNull) {
      TracePointer tp;
      tp.offset = get_count(pointer, "offset", source);
      tp.event_index = get_count(pointer, "event_index", source);
      tp.slot =
          static_cast<std::size_t>(get_count(pointer, "slot", source));
      inv.trace = tp;
    }
    report.invariants.push_back(inv);
  }
  return report;
}

ScenarioReport load_report(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  BURSTQ_REQUIRE(in.is_open(), "cannot open report file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_report_json(buf.str(), path);
}

}  // namespace burstq::harness

#include "obs/query.h"

#include <cstdio>
#include <cstdlib>

#include "common/error.h"
#include "obs/trace.h"

namespace burstq::obs {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

bool parse_number(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool compare(double lhs, double rhs, QueryOp op) {
  switch (op) {
    case QueryOp::kEq: return lhs == rhs;
    case QueryOp::kNe: return lhs != rhs;
    case QueryOp::kLt: return lhs < rhs;
    case QueryOp::kLe: return lhs <= rhs;
    case QueryOp::kGt: return lhs > rhs;
    case QueryOp::kGe: return lhs >= rhs;
  }
  return false;
}

/// Text rendering used for string comparison.
std::string value_text(const EventValue& v) {
  switch (v.tag) {
    case EventValue::Tag::kString: return v.str;
    case EventValue::Tag::kBool: return v.b ? "true" : "false";
    case EventValue::Tag::kNull: return "null";
    case EventValue::Tag::kNumber: break;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v.num);
  return buf;
}

/// Numeric view of a field value; strings are coerced when they parse.
bool value_number(const EventValue& v, double* out) {
  switch (v.tag) {
    case EventValue::Tag::kNumber: *out = v.num; return true;
    case EventValue::Tag::kBool: *out = v.b ? 1.0 : 0.0; return true;
    case EventValue::Tag::kString: return parse_number(v.str, out);
    case EventValue::Tag::kNull: return false;
  }
  return false;
}

bool clause_matches(const QueryClause& c, const RecordedEvent& ev) {
  if (c.key == "kind") {
    const bool eq = ev.kind == c.text;
    return c.op == QueryOp::kEq ? eq : !eq;
  }
  const EventValue* v = ev.find(c.key);
  if (v == nullptr) return false;
  double field_num = 0.0;
  if (c.numeric && value_number(*v, &field_num))
    return compare(field_num, c.num, c.op);
  const std::string text = value_text(*v);
  switch (c.op) {
    case QueryOp::kEq: return text == c.text;
    case QueryOp::kNe: return text != c.text;
    default: return false;  // ordering on non-numeric values
  }
}

}  // namespace

Query Query::parse(std::string_view expr) {
  Query q;
  if (trim(expr).empty()) return q;
  std::size_t pos = 0;
  while (pos <= expr.size()) {
    std::size_t comma = expr.find(',', pos);
    if (comma == std::string_view::npos) comma = expr.size();
    const std::string_view clause = trim(expr.substr(pos, comma - pos));
    pos = comma + 1;
    BURSTQ_REQUIRE(!clause.empty(),
                   "query: empty clause in '" + std::string(expr) + "'");
    // Longest operator first so "<=" is not read as "<" + "=value".
    static constexpr struct {
      std::string_view token;
      QueryOp op;
    } kOps[] = {{"<=", QueryOp::kLe}, {">=", QueryOp::kGe},
                {"!=", QueryOp::kNe}, {"<", QueryOp::kLt},
                {">", QueryOp::kGt},  {"=", QueryOp::kEq}};
    std::size_t op_at = std::string_view::npos;
    std::size_t op_len = 0;
    QueryOp op = QueryOp::kEq;
    for (const auto& cand : kOps) {
      const std::size_t at = clause.find(cand.token);
      if (at != std::string_view::npos &&
          (op_at == std::string_view::npos || at < op_at ||
           (at == op_at && cand.token.size() > op_len))) {
        op_at = at;
        op_len = cand.token.size();
        op = cand.op;
      }
    }
    BURSTQ_REQUIRE(op_at != std::string_view::npos && op_at > 0,
                   "query: clause '" + std::string(clause) +
                       "' is not of the form key op value");
    QueryClause out;
    out.key = std::string(trim(clause.substr(0, op_at)));
    out.op = op;
    out.text = std::string(trim(clause.substr(op_at + op_len)));
    out.numeric = parse_number(out.text, &out.num);
    BURSTQ_REQUIRE(!out.key.empty(), "query: clause '" + std::string(clause) +
                                         "' has an empty key");
    BURSTQ_REQUIRE(
        out.key != "kind" || op == QueryOp::kEq || op == QueryOp::kNe,
        "query: kind supports only = and !=");
    q.clauses.push_back(std::move(out));
  }
  return q;
}

bool Query::matches(const RecordedEvent& ev) const {
  for (const QueryClause& c : clauses)
    if (!clause_matches(c, ev)) return false;
  return true;
}

std::uint64_t scan_events(const std::string& path, const EventScanFn& fn) {
  TraceReader reader(path);
  std::vector<RecordedEvent> block;
  std::uint64_t total = 0;
  while (true) {
    const std::uint64_t block_start = reader.valid_offset();
    block.clear();
    if (!reader.next_block(block)) break;
    for (std::size_t i = 0; i < block.size(); ++i)
      if (!fn(block[i], block_start, total + i)) return total + i + 1;
    total += block.size();
  }
  return total;
}

}  // namespace burstq::obs

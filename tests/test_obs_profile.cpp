// Trace analytics tests: the query expression engine, span-tree
// reconstruction (inclusive/exclusive time, slot attribution, critical
// paths, collapsed stacks), span-event emission, and the end-to-end
// determinism contracts — same-seed runs render byte-identical
// `trace profile` and `slo explain` reports, plain and LZ-compressed
// recordings agree, and explain pointers resolve exactly to the named
// breach window's first slot.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "obs/event_log.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/query.h"
#include "obs/trace.h"
#include "placement/placement.h"
#include "queuing/mapcal.h"
#include "sim/cluster_sim.h"
#include "sim/flight.h"

namespace burstq::obs {
namespace {

/// Builds an event as the BTRC reader decodes one: integers and doubles
/// become kNumber, fields stay in emission order.
RecordedEvent ev(std::string_view kind, std::initializer_list<Field> fields) {
  RecordedEvent out;
  out.kind = std::string(kind);
  for (const Field& f : fields) {
    auto& [key, v] = out.fields.emplace_back();
    key = std::string(f.key);
    switch (f.tag) {
      case Field::Tag::kInt:
        v.tag = EventValue::Tag::kNumber;
        v.num = static_cast<double>(f.i);
        break;
      case Field::Tag::kUint:
        v.tag = EventValue::Tag::kNumber;
        v.num = static_cast<double>(f.u);
        break;
      case Field::Tag::kDouble:
        v.tag = EventValue::Tag::kNumber;
        v.num = f.d;
        break;
      case Field::Tag::kBool:
        v.tag = EventValue::Tag::kBool;
        v.b = f.b;
        break;
      case Field::Tag::kString:
        v.tag = EventValue::Tag::kString;
        v.str = std::string(f.s);
        break;
    }
  }
  return out;
}

// ---- query expression engine ----------------------------------------

TEST(Query, EmptyExpressionMatchesEverything) {
  const Query q = Query::parse("   ");
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.matches(ev("slot.obs", {{"t", 3}})));
}

TEST(Query, KindAndNumericClausesAreAnded) {
  const Query q = Query::parse("kind=slot.obs, t>=3, t<5");
  EXPECT_TRUE(q.matches(ev("slot.obs", {{"t", 3}})));
  EXPECT_TRUE(q.matches(ev("slot.obs", {{"t", 4}})));
  EXPECT_FALSE(q.matches(ev("slot.obs", {{"t", 5}})));
  EXPECT_FALSE(q.matches(ev("migration", {{"t", 3}})));
}

TEST(Query, StringBoolAndMissingFieldSemantics) {
  EXPECT_TRUE(Query::parse("name=sim.slot")
                  .matches(ev("x", {{"name", "sim.slot"}})));
  EXPECT_TRUE(
      Query::parse("ok=true").matches(ev("x", {{"ok", true}})));
  // ok=true coerces bool->1 only for numeric text; "true" is a string
  // compare against the rendered value.
  EXPECT_FALSE(
      Query::parse("ok=true").matches(ev("x", {{"ok", false}})));
  // An absent field never matches, not even with !=.
  EXPECT_FALSE(
      Query::parse("t!=3").matches(ev("x", {{"u", 1}})));
}

TEST(Query, OrderingOnNonNumericValuesFails) {
  EXPECT_FALSE(Query::parse("name>a").matches(
      ev("x", {{"name", "zzz"}})));
}

TEST(Query, MalformedExpressionsThrow) {
  EXPECT_THROW(Query::parse("justakey"), InvalidArgument);
  EXPECT_THROW(Query::parse("=3"), InvalidArgument);
  EXPECT_THROW(Query::parse("a=1,,b=2"), InvalidArgument);
  EXPECT_THROW(Query::parse("kind<3"), InvalidArgument);
}

// ---- span-tree reconstruction ---------------------------------------

std::vector<RecordedEvent> nested_span_events() {
  return {
      ev("span.begin",
         {{"id", 1}, {"parent", 0}, {"thread", 0}, {"name", "root"},
          {"t_ns", 1}}),
      ev("span.begin",
         {{"id", 2}, {"parent", 1}, {"thread", 0}, {"name", "child"},
          {"t_ns", 2}}),
      ev("span.end", {{"id", 2}, {"t_ns", 5}}),
      ev("span.end", {{"id", 1}, {"t_ns", 10}}),
  };
}

SpanProfile build(const std::vector<RecordedEvent>& events) {
  SpanTreeBuilder builder;
  for (const RecordedEvent& e : events) builder.add(e);
  return builder.finish();
}

TEST(SpanTreeBuilder, NestedSpansSplitInclusiveFromExclusive) {
  const SpanProfile p = build(nested_span_events());
  EXPECT_EQ(p.events, 4u);
  EXPECT_EQ(p.span_events, 4u);
  EXPECT_EQ(p.spans, 2u);
  EXPECT_EQ(p.unmatched_ends, 0u);
  EXPECT_EQ(p.unclosed, 0u);
  ASSERT_EQ(p.by_name.size(), 2u);
  // root: incl 9, excl 9-3=6; child: incl=excl=3.  Sorted excl desc.
  EXPECT_EQ(p.by_name[0].name, "root");
  EXPECT_EQ(p.by_name[0].incl_ns, 9u);
  EXPECT_EQ(p.by_name[0].excl_ns, 6u);
  EXPECT_EQ(p.by_name[1].name, "child");
  EXPECT_EQ(p.by_name[1].incl_ns, 3u);
  EXPECT_EQ(p.by_name[1].excl_ns, 3u);
  ASSERT_EQ(p.collapsed.size(), 2u);
  EXPECT_EQ(p.collapsed[0].stack, "root");
  EXPECT_EQ(p.collapsed[0].self_ns, 6u);
  EXPECT_EQ(p.collapsed[1].stack, "root;child");
  EXPECT_EQ(p.collapsed[1].self_ns, 3u);
  // One slot row (-1 = setup); critical path descends into the child.
  ASSERT_EQ(p.slots.size(), 1u);
  EXPECT_EQ(p.slots[0].slot, -1);
  EXPECT_EQ(p.slots[0].root_incl_ns, 9u);
  EXPECT_EQ(p.slots[0].critical_ns, 9u);
  EXPECT_EQ(p.slots[0].critical_path, "root;child");
}

TEST(SpanTreeBuilder, SlotAttributionFollowsSlotObs) {
  // A span beginning after slot.obs(t) belongs to slot t+1; sim.config
  // moves setup (-1) to slot 0.
  const SpanProfile p = build({
      ev("span.begin",
         {{"id", 1}, {"parent", 0}, {"thread", 0}, {"name", "setup"},
          {"t_ns", 1}}),
      ev("span.end", {{"id", 1}, {"t_ns", 2}}),
      ev("sim.config",
         {{"label", "x"}, {"n_pms", 2}, {"slots", 4}, {"window", 5},
          {"rho", 0.01}}),
      ev("span.begin",
         {{"id", 2}, {"parent", 0}, {"thread", 0}, {"name", "slot0"},
          {"t_ns", 3}}),
      ev("span.end", {{"id", 2}, {"t_ns", 5}}),
      ev("slot.obs", {{"t", 0}, {"active", "0 1"}, {"viol", ""}}),
      ev("span.begin",
         {{"id", 3}, {"parent", 0}, {"thread", 0}, {"name", "slot1"},
          {"t_ns", 6}}),
      ev("span.end", {{"id", 3}, {"t_ns", 10}}),
  });
  ASSERT_EQ(p.slots.size(), 3u);
  EXPECT_EQ(p.slots[0].slot, -1);
  EXPECT_EQ(p.slots[0].critical_path, "setup");
  EXPECT_EQ(p.slots[1].slot, 0);
  EXPECT_EQ(p.slots[1].critical_path, "slot0");
  EXPECT_EQ(p.slots[2].slot, 1);
  EXPECT_EQ(p.slots[2].critical_path, "slot1");
  EXPECT_EQ(p.slots[2].critical_ns, 4u);
}

TEST(SpanTreeBuilder, UnmatchedEndsAndUnclosedBeginsAreCounted) {
  const SpanProfile p = build({
      ev("span.end", {{"id", 99}, {"t_ns", 4}}),
      ev("span.begin",
         {{"id", 7}, {"parent", 0}, {"thread", 0}, {"name", "truncated"},
          {"t_ns", 5}}),
  });
  EXPECT_EQ(p.unmatched_ends, 1u);
  EXPECT_EQ(p.unclosed, 1u);
  EXPECT_EQ(p.spans, 0u);
}

TEST(SpanProfile, RenderIsDeterministicAndCarriesSchema) {
  const SpanProfile p = build(nested_span_events());
  const std::string a = p.render();
  const std::string b = p.render();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("profile.schema=burstq.profile/v1"), std::string::npos);
  EXPECT_NE(a.find("root;child"), std::string::npos);
  const std::string collapsed = p.render_collapsed();
  EXPECT_EQ(collapsed, "root 6\nroot;child 3\n");
}

TEST(FlameSvg, DeterministicSelfContainedOutput) {
  const SpanProfile p = build(nested_span_events());
  const std::string a = render_flame_svg(p.collapsed, "t");
  EXPECT_EQ(a, render_flame_svg(p.collapsed, "t"));
  EXPECT_NE(a.find("<svg"), std::string::npos);
  EXPECT_NE(a.find("</svg>"), std::string::npos);
  EXPECT_NE(a.find("child"), std::string::npos);
  // Empty input still renders a valid document.
  EXPECT_NE(render_flame_svg({}, "empty").find("</svg>"),
            std::string::npos);
}

#ifndef BURSTQ_NO_OBS

// ---- span-event emission --------------------------------------------

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

void nested_named_spans(int repeats) {
  for (int i = 0; i < repeats; ++i) {
    BURSTQ_SPAN("test.outer");
    { BURSTQ_SPAN("test.inner"); }
  }
}

TEST(SpanEvents, EmitsPairedEventsWithParentLinks) {
  const std::string path = temp_path("span_pairs.btrc");
  events().open(path, EventFormat::kBinary, EventLevel::kDetail);
  set_span_events({1, true});
  nested_named_spans(3);
  set_span_events({});
  events().close();

  const auto recorded = read_events_btrc(path);
  std::map<std::int64_t, std::string> begin_name;
  std::map<std::int64_t, std::int64_t> parent;
  std::size_t ends = 0;
  for (const RecordedEvent& e : recorded) {
    if (e.kind == "span.begin") {
      const std::int64_t id = e.integer("id");
      EXPECT_EQ(begin_name.count(id), 0u) << "span ids must be unique";
      begin_name[id] = std::string(e.str("name"));
      parent[id] = e.integer("parent");
      EXPECT_TRUE(e.has("thread"));
      EXPECT_TRUE(e.has("t_ns"));
    } else if (e.kind == "span.end") {
      EXPECT_EQ(begin_name.count(e.integer("id")), 1u);
      ++ends;
    }
  }
  EXPECT_EQ(begin_name.size(), 6u);  // 3 x (outer + inner)
  EXPECT_EQ(ends, 6u);
  for (const auto& [id, name] : begin_name) {
    if (name == "test.inner") {
      ASSERT_EQ(begin_name.count(parent[id]), 1u);
      EXPECT_EQ(begin_name[parent[id]], "test.outer");
    } else {
      EXPECT_EQ(parent[id], 0) << "outer spans are roots";
    }
  }
}

TEST(SpanEvents, SamplingEmitsOneInNAndCountsDrops) {
  const std::string path = temp_path("span_sampled.btrc");
  const auto counter_value = [](const char* name) -> std::uint64_t {
    const MetricsSnapshot snap = metrics().scrape();
    const CounterSample* c = snap.counter(name);
    return c == nullptr ? 0 : c->value;
  };
  const std::uint64_t dropped0 =
      counter_value("obs.span.events_dropped");
  events().open(path, EventFormat::kBinary, EventLevel::kDetail);
  set_span_events({2, true});
  nested_named_spans(10);  // 20 named spans on this thread
  set_span_events({});
  events().close();

  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const RecordedEvent& e : read_events_btrc(path)) {
    begins += e.kind == "span.begin" ? 1u : 0u;
    ends += e.kind == "span.end" ? 1u : 0u;
  }
  EXPECT_EQ(begins, 10u);  // exactly one in two
  EXPECT_EQ(ends, begins) << "sampled spans always emit begin+end pairs";
  EXPECT_EQ(counter_value("obs.span.events_dropped"), dropped0 + 10u);
}

TEST(SpanEvents, SilentWithoutDetailSink) {
  const std::string path = temp_path("span_decisions.btrc");
  events().open(path, EventFormat::kBinary, EventLevel::kDecisions);
  set_span_events({1, true});
  nested_named_spans(2);
  set_span_events({});
  events().close();
  for (const RecordedEvent& e : read_events_btrc(path))
    EXPECT_NE(e.kind.substr(0, 5), "span.");
}

// ---- end-to-end determinism contracts -------------------------------

/// Overcommitted fleet: 8 bursty VMs per PM, so CVR violations (and,
/// replayed with short SLO windows, breach episodes) are guaranteed.
ProblemInstance overcommitted_instance() {
  ProblemInstance inst;
  for (std::size_t i = 0; i < 24; ++i)
    inst.vms.push_back(VmSpec{OnOffParams{0.05, 0.08}, 2.0, 6.0});
  inst.pms.assign(3, PmSpec{20.0});
  return inst;
}

/// Records one same-seed simulator run (full span sampling, virtual
/// clock) into `path`, with LZ-compressed blocks when `compress`.
void record_run(const std::string& path, bool compress = false) {
  ProblemInstance inst = overcommitted_instance();
  Placement placed(inst);
  for (std::size_t i = 0; i < inst.n_vms(); ++i)
    placed.assign(VmId{i}, PmId{i % inst.n_pms()});
  // A warm MapCal cache would swallow spans a cold run emits; every
  // recording must start cold for byte-identity across recordings.
  mapcal_table_cache_clear();
  events().open(path, event_format_from_path(path), EventLevel::kDetail,
                compress);
  set_span_events({1, true});
  SimConfig cfg;
  cfg.slots = 60;
  ClusterSimulator sim(inst, placed, cfg, Rng(1234));
  (void)sim.run();
  set_span_events({});
  events().close();
}

SloExplainOptions short_windows() {
  SloExplainOptions opt;
  opt.slo.fast_window = 6;
  opt.slo.slow_window = 12;
  return opt;
}

/// Drops the `trace_offset=` of every pointer line, the one field that
/// depends on the block layout, so plain and LZ-compressed recordings of
/// the same run can be compared.
std::string strip_offsets(const std::string& report) {
  std::istringstream in(report);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("pointer trace_offset=", 0) == 0)
      line = "pointer" + line.substr(line.find(' ', 8));
    out += line + "\n";
  }
  return out;
}

TEST(TraceProfileEndToEnd, SameSeedAndCrossFormatByteIdentity) {
  const std::string a = temp_path("prof_a.btrc");
  const std::string b = temp_path("prof_b.btrc");
  const std::string c = temp_path("prof_c.btrc");
  record_run(a);
  record_run(b);
  record_run(c, /*compress=*/true);
  const std::string report_a = profile_trace(a).render();
  EXPECT_GT(profile_trace(a).spans, 0u);
  EXPECT_EQ(report_a, profile_trace(b).render())
      << "same-seed profiles must be byte-identical";
  EXPECT_EQ(report_a, profile_trace(c).render())
      << "plain and LZ-compressed recordings of the same run must agree";
  EXPECT_NE(report_a.find("sim.slot"), std::string::npos);
}

TEST(SloExplainEndToEnd, SameSeedAndCrossFormatAgreement) {
  std::filesystem::create_directories(temp_path("expl_a"));
  std::filesystem::create_directories(temp_path("expl_b"));
  std::filesystem::create_directories(temp_path("expl_c"));
  const std::string a = temp_path("expl_a/run.btrc");
  const std::string b = temp_path("expl_b/run.btrc");
  const std::string c = temp_path("expl_c/run.btrc");
  record_run(a);
  record_run(b);
  record_run(c, /*compress=*/true);
  const std::string report_a = explain_slo_breaches(a, short_windows());
  EXPECT_NE(report_a.find("episode="), std::string::npos)
      << "the overcommitted fleet must produce at least one episode";
  EXPECT_EQ(report_a, explain_slo_breaches(b, short_windows()))
      << "same-seed explain reports must be byte-identical";
  // Compressed blocks can move the byte offsets; everything else
  // agrees, event indices included.
  ASSERT_TRUE(read_trace_info(c).compressed);
  EXPECT_EQ(strip_offsets(report_a),
            strip_offsets(explain_slo_breaches(c, short_windows())));
}

TEST(SloExplainEndToEnd, PointerResolvesIntoBreachWindow) {
  const std::string path = temp_path("expl_ptr.btrc");
  record_run(path);
  const std::string report = explain_slo_breaches(path, short_windows());

  // The first episode line names the window; its pointer line gives the
  // event index of the window's first slot.obs.
  long long begin_slot = -1;
  long long end_slot = -1;
  unsigned long long event_index = 0;
  long long ptr_slot = -1;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    if (begin_slot < 0 &&
        std::sscanf(line.c_str(), "episode=%*d window=%lld..%lld",
                    &begin_slot, &end_slot) == 2)
      continue;
    if (begin_slot >= 0 &&
        std::sscanf(line.c_str(),
                    "pointer trace_offset=%*u event_index=%llu slot=%lld",
                    &event_index, &ptr_slot) == 2)
      break;
  }
  ASSERT_GE(begin_slot, 0) << report;
  ASSERT_EQ(ptr_slot, begin_slot) << report;

  // Resolve the pointer as `trace head --at-event` does: the first
  // event there is the breach window's first slot.obs.
  const auto events_at = read_events_from(path, event_index, 1);
  ASSERT_EQ(events_at.size(), 1u);
  EXPECT_EQ(events_at[0].kind, "slot.obs");
  EXPECT_EQ(events_at[0].integer("t"), begin_slot)
      << "pointer must land on slot.obs t=" << begin_slot;
}

TEST(SloExplainEndToEnd, RejectsCsvTraces) {
  const std::string path = temp_path("expl_reject.csv");
  std::ofstream(path) << "id,kind,key,value\n0,slot.obs,,\n";
  EXPECT_THROW((void)explain_slo_breaches(path), InvalidArgument);
}

#endif  // BURSTQ_NO_OBS

}  // namespace
}  // namespace burstq::obs

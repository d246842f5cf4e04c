#include "sim/flight.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>

#include "common/error.h"
#include "obs/profile.h"
#include "obs/query.h"
#include "obs/trace.h"

namespace burstq {

namespace {

// Only the write side (compiled out under BURSTQ_NO_OBS) serializes.
[[maybe_unused]] std::string join_ids(const std::vector<std::size_t>& ids) {
  std::string out;
  for (std::size_t v : ids) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

std::vector<std::size_t> parse_id_list(std::string_view text) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) break;
    std::size_t value = 0;
    const auto [next, ec] =
        std::from_chars(text.data() + pos, text.data() + text.size(), value);
    BURSTQ_REQUIRE(ec == std::errc{} && next != text.data() + pos,
                   "malformed id list: " + std::string(text));
    out.push_back(value);
    pos = static_cast<std::size_t>(next - text.data());
  }
  return out;
}

#ifndef BURSTQ_NO_OBS

FlightSlotRecorder::FlightSlotRecorder(std::string_view default_label,
                                       std::size_t n_pms, std::size_t slots,
                                       std::size_t window, double rho)
    : enabled_(obs::events().enabled(obs::EventLevel::kDetail)) {
  if (!enabled_) return;
  const std::string run = obs::events().run_label();
  const std::string_view label = run.empty() ? default_label : run;
  obs::events().emit(obs::EventLevel::kDetail, "sim.config",
                     {{"label", label},
                      {"n_pms", n_pms},
                      {"slots", slots},
                      {"window", window},
                      {"rho", rho}});
}

void FlightSlotRecorder::slot(std::size_t t,
                              const std::vector<std::size_t>& active,
                              const std::vector<std::size_t>& violated) {
  if (!enabled_) return;
  const std::string viol = join_ids(violated);
  if (first_ || active != last_active_) {
    obs::events().emit(
        obs::EventLevel::kDetail, "slot.obs",
        {{"t", t}, {"active", join_ids(active)}, {"viol", viol}});
    last_active_ = active;
    first_ = false;
  } else {
    obs::events().emit(obs::EventLevel::kDetail, "slot.obs",
                       {{"t", t}, {"viol", viol}});
  }
}

#endif  // BURSTQ_NO_OBS

std::vector<FlightReplaySegment> replay_flight_log(
    const std::vector<obs::RecordedEvent>& events,
    const obs::SloOptions* slo) {
  std::vector<FlightReplaySegment> segments;
  std::vector<std::size_t> active;  // carried across delta-encoded slots

  const auto current = [&]() -> FlightReplaySegment& {
    BURSTQ_REQUIRE(!segments.empty(),
                   "flight log event precedes any sim.config header");
    return segments.back();
  };

  for (const obs::RecordedEvent& ev : events) {
    if (ev.kind == "sim.config") {
      const auto n_pms = static_cast<std::size_t>(ev.integer("n_pms"));
      auto window = static_cast<std::size_t>(ev.integer("window", 1));
      BURSTQ_REQUIRE(n_pms > 0, "sim.config without a positive n_pms");
      if (window == 0) window = 1;
      segments.emplace_back(std::string(ev.str("label")), n_pms, window,
                            static_cast<std::size_t>(ev.integer("slots")),
                            ev.num("rho"));
      if (slo != nullptr) {
        obs::SloOptions opts = *slo;
        // The recorded run's own budget is the objective being audited.
        if (segments.back().rho > 0.0) opts.rho = segments.back().rho;
        segments.back().slo =
            std::make_unique<obs::SloTracker>(n_pms, opts);
      }
      active.clear();
    } else if (ev.kind == "slot.obs") {
      FlightReplaySegment& seg = current();
      if (ev.has("active")) active = parse_id_list(ev.str("active"));
      const std::vector<std::size_t> violated =
          parse_id_list(ev.str("viol"));
      // Same order as the live run: ascending PM id, violation flag by
      // membership in the violated subset.
      auto vit = violated.begin();
      for (std::size_t pm : active) {
        BURSTQ_REQUIRE(pm < seg.n_pms, "slot.obs PM id out of range");
        while (vit != violated.end() && *vit < pm) ++vit;
        const bool hit = vit != violated.end() && *vit == pm;
        seg.tracker.record(PmId{pm}, hit);
        if (seg.slo) seg.slo->record(PmId{pm}, hit);
      }
      if (seg.slo) seg.slo->end_slot();
      ++seg.slots_seen;
    } else if (ev.kind == "window.reset") {
      FlightReplaySegment& seg = current();
      const auto pm = static_cast<std::size_t>(ev.integer("pm"));
      BURSTQ_REQUIRE(pm < seg.n_pms, "window.reset PM id out of range");
      seg.tracker.reset_window(PmId{pm});
      ++seg.window_resets;
    } else if (ev.kind == "migration") {
      FlightReplaySegment& seg = current();
      if (ev.boolean("ok"))
        ++seg.migrations;
      else
        ++seg.failed_migrations;
    }
    // Other kinds (place, mapcal, replan, ...) are not part of CVR replay.
  }
  return segments;
}

namespace {

std::string fmt6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Basename without its last extension ("dir/run.btrc" -> "run").
std::string trace_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || dot == 0) return base;
  return base.substr(0, dot);
}

}  // namespace

std::string explain_slo_breaches(const std::string& path,
                                 const SloExplainOptions& opt) {
  const obs::EventFormat format = obs::sniff_event_format(path);

  // Pass 1: the existing flight replay re-derives the SLO audit (and
  // with it the breach episodes) per recorded segment.
  const std::vector<FlightReplaySegment> segments =
      replay_flight_log(path, &opt.slo);

  struct SpanAgg {
    std::uint64_t calls{0};
    std::uint64_t incl_ns{0};
    std::uint64_t excl_ns{0};
  };
  struct EpisodeAgg {
    obs::SloEpisode ep;
    bool have_pointer{false};
    std::uint64_t offset{0};
    std::uint64_t event_index{0};
    std::map<std::string, std::uint64_t> kinds;
    std::map<std::string, SpanAgg> spans;
    /// pm -> (violations, observed) within the window
    std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> pms;
  };
  std::vector<std::vector<EpisodeAgg>> episodes(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (!segments[i].slo) continue;
    for (const obs::SloEpisode& ep : segments[i].slo->episodes()) {
      EpisodeAgg agg;
      agg.ep = ep;
      episodes[i].push_back(std::move(agg));
    }
  }

  // Pass 2: one streaming scan attributes events, spans, and per-PM
  // violations to each episode's slot window.  An event "belongs to"
  // the slot being processed when it was emitted: slot.obs carries its
  // own t; everything else gets the slot after the last slot.obs (the
  // same rule SpanTreeBuilder applies to span begins).
  std::size_t seg = static_cast<std::size_t>(-1);
  std::int64_t cur_slot = -1;
  std::vector<std::size_t> active;  // delta-decoded like replay
  obs::SpanTreeBuilder builder;
  builder.set_hook([&](std::string_view name, std::int64_t slot,
                       std::uint64_t incl_ns, std::uint64_t excl_ns) {
    if (seg >= episodes.size() || slot < 0) return;
    const auto s = static_cast<std::size_t>(slot);
    for (EpisodeAgg& agg : episodes[seg]) {
      if (s < agg.ep.begin_slot || s > agg.ep.end_slot) continue;
      SpanAgg& sa = agg.spans[std::string(name)];
      ++sa.calls;
      sa.incl_ns += incl_ns;
      sa.excl_ns += excl_ns;
    }
  });

  const std::uint64_t total = obs::scan_events(
      path, [&](const obs::RecordedEvent& ev, std::uint64_t offset,
                std::uint64_t index) {
        std::int64_t slot = cur_slot;
        if (ev.kind == "sim.config") {
          seg = seg == static_cast<std::size_t>(-1) ? 0 : seg + 1;
          cur_slot = 0;
          active.clear();
          slot = -1;  // headers belong to no window
        } else if (ev.kind == "slot.obs") {
          slot = ev.integer("t");
          cur_slot = slot + 1;
          if (ev.has("active")) active = parse_id_list(ev.str("active"));
        }
        builder.add(ev);
        if (seg < episodes.size() && slot >= 0 &&
            ev.kind != "span.begin" && ev.kind != "span.end") {
          const auto s = static_cast<std::size_t>(slot);
          for (EpisodeAgg& agg : episodes[seg]) {
            if (s < agg.ep.begin_slot || s > agg.ep.end_slot) continue;
            ++agg.kinds[ev.kind];
            if (ev.kind != "slot.obs") continue;
            if (!agg.have_pointer && s == agg.ep.begin_slot) {
              agg.have_pointer = true;
              agg.offset = offset;
              agg.event_index = index;
            }
            for (std::size_t pm : active) ++agg.pms[pm].second;
            for (std::size_t pm : parse_id_list(ev.str("viol")))
              ++agg.pms[pm].first;
          }
        }
        return true;
      });

  // Deterministic rendering: every list has a total order.
  std::string out;
  out += "slo.explain.schema=burstq.slo.explain/v1\n";
  out += "slo.explain.trace=" + trace_stem(path) + "\n";
  out += "slo.explain.format=" + std::string(obs::format_name(format)) +
         "\n";
  out += "slo.explain.events=" + std::to_string(total) + "\n";
  out += "slo.explain.fast_window=" + std::to_string(opt.slo.fast_window) +
         "\n";
  out += "slo.explain.slow_window=" + std::to_string(opt.slo.slow_window) +
         "\n";
  out += "slo.explain.breach_burn=" + fmt6(opt.slo.breach_burn) + "\n";
  out += "slo.explain.segments=" + std::to_string(segments.size()) + "\n";

  for (std::size_t i = 0; i < segments.size(); ++i) {
    const FlightReplaySegment& s = segments[i];
    const obs::SloReport report =
        s.slo ? s.slo->report() : obs::SloReport{};
    out += "segment=" + std::to_string(i) + " label=" + s.label +
           " rho=" + fmt6(s.rho) + " n_pms=" + std::to_string(s.n_pms) +
           " slots=" + std::to_string(s.slots_seen) +
           " migrations=" + std::to_string(s.migrations) +
           " breaches=" + std::to_string(report.breaches) +
           " verdict=" + report.verdict() + "\n";
    for (std::size_t k = 0; k < episodes[i].size(); ++k) {
      const EpisodeAgg& agg = episodes[i][k];
      const obs::SloEpisode& ep = agg.ep;
      out += "episode=" + std::to_string(k) + " window=" +
             std::to_string(ep.begin_slot) + ".." +
             std::to_string(ep.end_slot) + " slots=" +
             std::to_string(ep.end_slot - ep.begin_slot + 1) +
             " open=" + (ep.open ? "1" : "0") +
             " peak_fast_burn=" + fmt6(ep.peak_fast_burn) +
             " peak_slow_burn=" + fmt6(ep.peak_slow_burn) + "\n";
      if (opt.pointers && agg.have_pointer)
        out += "pointer trace_offset=" + std::to_string(agg.offset) +
               " event_index=" + std::to_string(agg.event_index) +
               " slot=" + std::to_string(ep.begin_slot) + "\n";

      std::vector<std::pair<std::string, std::uint64_t>> kinds(
          agg.kinds.begin(), agg.kinds.end());
      std::sort(kinds.begin(), kinds.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      for (std::size_t j = 0; j < std::min(opt.top, kinds.size()); ++j)
        out += "event kind=" + kinds[j].first +
               " count=" + std::to_string(kinds[j].second) + "\n";

      std::vector<std::pair<std::string, SpanAgg>> spans(
          agg.spans.begin(), agg.spans.end());
      std::sort(spans.begin(), spans.end(),
                [](const auto& a, const auto& b) {
                  if (a.second.incl_ns != b.second.incl_ns)
                    return a.second.incl_ns > b.second.incl_ns;
                  return a.first < b.first;
                });
      for (std::size_t j = 0; j < std::min(opt.top, spans.size()); ++j)
        out += "span name=" + spans[j].first +
               " calls=" + std::to_string(spans[j].second.calls) +
               " incl_ns=" + std::to_string(spans[j].second.incl_ns) +
               " excl_ns=" + std::to_string(spans[j].second.excl_ns) +
               "\n";

      std::vector<std::pair<std::size_t, std::pair<std::uint64_t,
                                                   std::uint64_t>>>
          pms;
      for (const auto& [pm, counts] : agg.pms)
        if (counts.first > 0) pms.push_back({pm, counts});
      std::sort(pms.begin(), pms.end(),
                [](const auto& a, const auto& b) {
                  if (a.second.first != b.second.first)
                    return a.second.first > b.second.first;
                  return a.first < b.first;
                });
      for (std::size_t j = 0; j < std::min(opt.top, pms.size()); ++j)
        out += "pm pm=" + std::to_string(pms[j].first) +
               " violations=" + std::to_string(pms[j].second.first) +
               " observed=" + std::to_string(pms[j].second.second) + "\n";
    }
  }
  return out;
}

std::vector<FlightReplaySegment> replay_flight_log(
    const std::string& path, const obs::SloOptions* slo) {
  return replay_flight_log(obs::read_events_btrc(path), slo);
}

}  // namespace burstq

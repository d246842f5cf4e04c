#include "sim/tracker_codec.h"

namespace burstq {

void write_cvr_tracker(durable::StateWriter& w, const CvrTracker& tracker) {
  const CvrTrackerState ts = tracker.export_state();
  w.varint(ts.pms.size());
  for (const auto& pm : ts.pms) {
    w.varint(pm.observed);
    w.varint(pm.violated);
    w.varint(pm.window.size());
    for (const std::uint8_t b : pm.window) w.u8(b);
  }
}

void read_cvr_tracker(durable::StateReader& r, CvrTracker& tracker) {
  CvrTrackerState ts;
  ts.pms.resize(r.varint());
  if (ts.pms.size() != tracker.n_pms())
    r.fail("CVR tracker PM count mismatch");
  for (auto& pm : ts.pms) {
    pm.observed = r.varint();
    pm.violated = r.varint();
    pm.window.resize(r.varint());
    for (std::uint8_t& b : pm.window) b = r.u8();
  }
  tracker.import_state(ts);
}

void write_slo_tracker(durable::StateWriter& w, const obs::SloTracker* slo) {
  w.boolean(slo != nullptr);
  if (slo == nullptr) return;
  const obs::SloTrackerState ss = slo->export_state();
  w.varint(ss.pms.size());
  for (const auto& pm : ss.pms) {
    w.varint(pm.observed);
    w.varint(pm.violated);
    w.varint(pm.ring.size());
    for (const std::uint8_t b : pm.ring) w.u8(b);
    w.varint(pm.ring_observed);
    w.varint(pm.ring_violated);
  }
  w.varint(ss.cur.size());
  for (const std::uint8_t b : ss.cur) w.u8(b);
  w.varint(ss.cluster_ring.size());
  for (const auto& [o, v] : ss.cluster_ring) {
    w.u32(o);
    w.u32(v);
  }
  w.varint(ss.slots);
  w.varint(ss.fast_obs);
  w.varint(ss.fast_viol);
  w.varint(ss.slow_obs);
  w.varint(ss.slow_viol);
  w.varint(ss.cum_obs);
  w.varint(ss.cum_viol);
  w.varint(ss.breaches);
  w.boolean(ss.breaching);
}

void read_slo_tracker(durable::StateReader& r, obs::SloTracker* slo) {
  if (r.boolean() != (slo != nullptr))
    r.fail("SLO tracker presence mismatch");
  if (slo == nullptr) return;
  obs::SloTrackerState ss;
  ss.pms.resize(r.varint());
  if (ss.pms.size() != slo->n_pms()) r.fail("SLO tracker PM count mismatch");
  for (auto& pm : ss.pms) {
    pm.observed = r.varint();
    pm.violated = r.varint();
    pm.ring.resize(r.varint());
    for (std::uint8_t& b : pm.ring) b = r.u8();
    pm.ring_observed = r.varint();
    pm.ring_violated = r.varint();
  }
  ss.cur.resize(r.varint());
  for (std::uint8_t& b : ss.cur) b = r.u8();
  ss.cluster_ring.resize(r.varint());
  for (auto& [o, v] : ss.cluster_ring) {
    o = r.u32();
    v = r.u32();
  }
  ss.slots = r.varint();
  ss.fast_obs = r.varint();
  ss.fast_viol = r.varint();
  ss.slow_obs = r.varint();
  ss.slow_viol = r.varint();
  ss.cum_obs = r.varint();
  ss.cum_viol = r.varint();
  ss.breaches = r.varint();
  ss.breaching = r.boolean();
  slo->import_state(ss);
}

}  // namespace burstq

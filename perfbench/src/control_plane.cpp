// Workload `control_plane`: a DurableController (WAL per op, a snapshot
// every 23 000 ops, fsync off) over 2x10^4 PMs, pre-filled with 6x10^4
// tenants during set-up.  A seeded op stream then arrives as an OPEN loop
// at a fixed offered rate: Poisson admits and resizes, departs at the end
// of exponential lifetimes, ticks on a fixed schedule (maintenance every
// 10 ticks), and a rare PM crash with a later recovery.  Each op is timed
// from its due time, so a tick or snapshot that stalls the controller
// shows up as waiting in the ops queued behind it.  Each open loop is
// followed by a CLOSED-loop pass of the same op sequence on an
// identically set-up controller, which gives the capacity (ctl_ops_per_s);
// these pairs repeat for the whole run, and every pass must end in
// byte-identical state.

#include <algorithm>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/controller.h"
#include "durable/controller_store.h"
#include "layers.h"

namespace perfbench {
namespace {

using namespace burstq;

constexpr std::size_t kPms = 20000;
constexpr std::size_t kPrefill = 60000;
// The stream's shape is set in ops, so it does not move when kRate is
// retuned for another host.  These shares and periods are assumptions
// picked to exercise every op kind, not figures from a trace study (see
// the README); only the tenant lifetime is derived (from kPrefill and
// kAdmitShare, so that the population stays at the pre-fill size).
constexpr double kOpsPerTick = 6000.0;     ///< non-tick ops per tick period
constexpr std::size_t kTicks = 40;         ///< tick periods in the stream
constexpr std::size_t kCrashEvery = 10;    ///< ticks between PM crashes
constexpr std::size_t kDownTicks = 3;      ///< ticks a crashed PM stays down
constexpr double kAdmitShare = 0.45;       ///< of the non-tick ops
constexpr double kResizeShare = 0.10;
constexpr double kJumboShare = 0.01;       ///< requests larger than any host
/// Offered rate of the open loop (non-tick ops/s).  It only maps the op
/// stream onto wall-clock due times.  It is about a third of the
/// closed-loop capacity measured on a 4-core x86 container (at a half the
/// backlog diverged; see the README).
constexpr double kRate = 60000.0;
constexpr double kStreamSeconds =
    static_cast<double>(kTicks) * kOpsPerTick / kRate;
/// Ops between snapshots.  Not a divisor of the maintenance period
/// (10 ticks = 60 000 ops), so snapshots meet successive maintenance
/// windows at different phases.  With a divisor the phase, and with it
/// the coinciding stalls that set op_p99_us, would be fixed by the seed.
constexpr std::size_t kSnapshotEvery = 23000;
constexpr std::size_t kMinUnits = 2;

enum class Kind : std::uint8_t { kAdmit, kDepart, kResize, kTick, kCrash,
                                 kRecover };
constexpr const char* kKindSpan[] = {"core.admit", "core.depart",
                                     "core.resize", "core.tick",
                                     "core.crash", "core.recover"};

struct Op {
  double due{0.0};  ///< virtual seconds after the stream starts
  Kind kind{Kind::kTick};
  std::uint32_t handle{0};  ///< admit order of the tenant (admit/depart/resize)
  std::uint32_t pm{0};      ///< crash / recover target
  VmSpec spec{};            ///< admit / resize
};

struct Inputs {
  std::vector<PmSpec> pms;
  std::vector<VmSpec> prefill;
  std::vector<Op> ops;
  std::size_t handles{0};
};

VmSpec draw_spec(Rng& rng) {
  VmSpec v;
  v.onoff = kBaseParams;
  v.rb = rng.uniform(2.0, 20.0);
  v.re = rng.uniform(2.0, 20.0);
  if (rng.next_double() < kJumboShare) v.rb = rng.uniform(110.0, 140.0);
  return v;
}

/// Generates the fleet, the pre-fill and the op stream from the seed.
Inputs generate(std::uint64_t seed) {
  Inputs in;
  in.pms = make_fleet(1, kPms, derive_seed(seed, 20)).pms;
  Rng rng(derive_seed(seed, 22));
  // Stream time is counted in non-tick ops offered (one per unit on
  // average: admits and resizes arrive as a Poisson process, and departs
  // balance admits); due times are stream time / kRate.
  const double arrival_rate = kAdmitShare + kResizeShare;
  const double lifetime = static_cast<double>(kPrefill) / kAdmitShare;
  const double stream_end = static_cast<double>(kTicks) * kOpsPerTick;

  using Departure = std::pair<double, std::uint32_t>;
  std::priority_queue<Departure, std::vector<Departure>,
                      std::greater<Departure>>
      departs;
  std::vector<std::uint32_t> live;             // handles, for resizes
  std::vector<std::size_t> live_pos;           // handle -> index in live
  const auto add_live = [&](std::uint32_t h, double now) {
    live_pos.resize(std::max<std::size_t>(live_pos.size(), h + 1));
    live_pos[h] = live.size();
    live.push_back(h);
    departs.emplace(now + rng.exponential(lifetime), h);
  };
  const auto drop_live = [&](std::uint32_t h) {
    const std::size_t i = live_pos[h];
    live[i] = live.back();
    live_pos[live[i]] = i;
    live.pop_back();
  };

  for (std::size_t i = 0; i < kPrefill; ++i) {
    VmSpec v;
    v.onoff = kBaseParams;
    v.rb = rng.uniform(2.0, 20.0);
    v.re = rng.uniform(2.0, 20.0);
    in.prefill.push_back(v);
    add_live(static_cast<std::uint32_t>(i), 0.0);
  }
  std::uint32_t next_handle = kPrefill;

  double next_arrival = rng.exponential(1.0 / arrival_rate);
  std::size_t tick = 1;
  std::vector<std::pair<std::size_t, std::uint32_t>> down;  // (tick, pm)
  while (true) {
    const double next_tick = static_cast<double>(tick) * kOpsPerTick;
    const double next_depart =
        departs.empty() ? 1e300 : departs.top().first;
    const double now = std::min({next_arrival, next_tick, next_depart});
    if (now > stream_end) break;
    Op op;
    op.due = now / kRate;
    if (now == next_tick) {
      op.kind = Kind::kTick;
      in.ops.push_back(op);
      if (!down.empty() && down.front().first == tick) {
        Op rec;
        rec.due = op.due;
        rec.kind = Kind::kRecover;
        rec.pm = down.front().second;
        in.ops.push_back(rec);
        down.erase(down.begin());
      }
      if (tick % kCrashEvery == 0) {
        Op crash;
        crash.due = op.due;
        crash.kind = Kind::kCrash;
        crash.pm = static_cast<std::uint32_t>(rng.next_below(kPms));
        in.ops.push_back(crash);
        down.emplace_back(tick + kDownTicks, crash.pm);
      }
      ++tick;
      continue;
    }
    if (now == next_depart) {
      op.kind = Kind::kDepart;
      op.handle = departs.top().second;
      departs.pop();
      drop_live(op.handle);
    } else {
      next_arrival = now + rng.exponential(1.0 / arrival_rate);
      if (rng.next_double() * arrival_rate < kAdmitShare ||
          live.empty()) {
        op.kind = Kind::kAdmit;
        op.handle = next_handle++;
        op.spec = draw_spec(rng);
        // A request larger than any host is rejected: it never departs.
        if (op.spec.rb <= 100.0) add_live(op.handle, now);
      } else {
        op.kind = Kind::kResize;
        op.handle = live[rng.next_below(live.size())];
        op.spec = draw_spec(rng);
      }
    }
    in.ops.push_back(op);
  }
  in.handles = next_handle;
  return in;
}

ControllerConfig controller_config() {
  ControllerConfig c;
  c.ffd = ffd_options();
  c.ffd.sharded.shards = 4;
  c.maintenance_every = 10;
  return c;
}

const CloudController& view(const CloudController& c) { return c; }
const CloudController& view(const durable::DurableController& c) {
  return c.controller();
}

/// Outcome counters of one pass over the op stream.
struct Tally {
  std::size_t admits{0}, resizes{0}, skipped{0};
  std::vector<double> tick_s;     ///< service time of each tick
  std::vector<double> tick_rate;  ///< tenants hosted / tick time
  double active_sum{0.0};         ///< PMs in use, summed over ticks
};

/// Applies one op.  Ops on tenants whose admission was rejected are
/// skipped (deterministically: the controller is deterministic).
template <class Ctl>
void apply(Ctl& c, const Op& op, std::vector<TenantId>& tenant, Tally& t) {
  switch (op.kind) {
    case Kind::kAdmit: {
      ++t.admits;
      const auto id = c.admit(op.spec);
      if (id) tenant[op.handle] = *id;
      break;
    }
    case Kind::kDepart:
      if (view(c).tenant_live(tenant[op.handle]))
        c.depart(tenant[op.handle]);
      else
        ++t.skipped;
      break;
    case Kind::kResize:
      if (view(c).tenant_live(tenant[op.handle])) {
        ++t.resizes;
        c.resize(tenant[op.handle], op.spec);
      } else {
        ++t.skipped;
      }
      break;
    case Kind::kTick: {
      const auto t0 = Clock::now();
      c.tick();
      t.tick_s.push_back(seconds_since(t0));
      t.tick_rate.push_back(static_cast<double>(view(c).stats().vms_hosted) /
                            t.tick_s.back());
      t.active_sum += static_cast<double>(view(c).pms_used());
      break;
    }
    case Kind::kCrash:
      c.inject_pm_crash(PmId{op.pm});
      break;
    case Kind::kRecover:
      c.inject_pm_recover(PmId{op.pm});
      break;
  }
}

/// A controller set up with the pre-fill, and the set-up time.
template <class Ctl>
struct Prepared {
  std::optional<Ctl> ctl;
  std::vector<TenantId> tenant;
  double setup_s{0.0};
  std::size_t pms_used{0};
};

template <class Ctl>
Prepared<Ctl> prepare(const Inputs& in, std::uint64_t seed,
                      const std::string& dir, SpanLog& spans) {
  Prepared<Ctl> p;
  p.tenant.assign(in.handles, TenantId{});
  fresh_dir(dir);
  const Span setup(spans, "setup");
  const auto t0 = Clock::now();
  if constexpr (std::is_same_v<Ctl, durable::DurableController>)
    p.ctl.emplace(in.pms, controller_config(), Rng(derive_seed(seed, 21)),
                  durable::DurabilityConfig{dir + "/state", kSnapshotEvery,
                                            false});
  else
    p.ctl.emplace(in.pms, controller_config(), Rng(derive_seed(seed, 21)));
  for (std::size_t i = 0; i < in.prefill.size(); ++i) {
    const Span s(spans, "setup.admit", i);
    const auto id = p.ctl->admit(in.prefill[i]);
    if (id) p.tenant[i] = *id;
  }
  p.setup_s = seconds_since(t0);
  p.pms_used = view(*p.ctl).pms_used();
  return p;
}

/// Runs the op stream back to back; returns the elapsed seconds.
template <class Ctl>
double closed_loop(Prepared<Ctl>& p, const Inputs& in, SpanLog& spans,
                   Tally& t) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const Span s(spans, kKindSpan[static_cast<int>(op.kind)], i);
    apply(*p.ctl, op, p.tenant, t);
  }
  return seconds_since(t0);
}

struct OpenLoop {
  std::vector<double> latency_us;  ///< due -> end
  std::vector<double> wait_us;     ///< due -> start
  std::vector<double> lag_us;      ///< due -> start when the controller was idle
  double seconds{0.0};
};

/// Issues each op at its due time (sleep, then spin) from this thread.
template <class Ctl>
OpenLoop open_loop(Prepared<Ctl>& p, const Inputs& in, Tally& t) {
  OpenLoop o;
  o.latency_us.reserve(in.ops.size());
  o.wait_us.reserve(in.ops.size());
  const auto origin = Clock::now() + std::chrono::milliseconds(2);
  auto prev_end = origin;
  for (const Op& op : in.ops) {
    const auto due =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(op.due));
    auto now = Clock::now();
    if (due - now > std::chrono::microseconds(300))
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while ((now = Clock::now()) < due) {
    }
    const auto start = now;
    apply(*p.ctl, op, p.tenant, t);
    const auto end = Clock::now();
    o.latency_us.push_back(seconds_between(due, end) * 1e6);
    o.wait_us.push_back(seconds_between(due, start) * 1e6);
    if (prev_end <= due) o.lag_us.push_back(seconds_between(due, start) * 1e6);
    prev_end = end;
  }
  o.seconds = seconds_since(origin);
  return o;
}

std::string fingerprint(const CloudController& c, const Tally& t) {
  const ControllerStats& s = c.stats();
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "hosted=%zu rejections=%zu resize_rejections=%zu mig=%zu "
                "cvr=%.17g active_sum=%.17g crashes=%zu skipped=%zu",
                s.vms_hosted, s.rejections, s.resize_rejections,
                s.runtime_migrations + s.maintenance_migrations +
                    s.resize_migrations,
                s.mean_cvr, t.active_sum, s.pm_crashes, t.skipped);
  return buf;
}

void info_lines(Result& res, const Inputs& in) {
  std::size_t n[6] = {};
  for (const Op& op : in.ops) ++n[static_cast<int>(op.kind)];
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "inputs: %zu PMs, %zu pre-filled tenants, %zu ops offered at "
                "%.0f ops/s over %.1f s, a tick every %.0f ops (admit %zu, "
                "depart %zu, resize %zu, tick %zu, crash %zu, recover %zu)",
                kPms, kPrefill, in.ops.size(), kRate, kStreamSeconds,
                kOpsPerTick, n[0], n[1], n[2], n[3], n[4], n[5]);
  res.info.push_back(buf);
  std::snprintf(buf, sizeof buf, "generated input: %.1f MiB (op stream)",
                static_cast<double>(in.ops.size() * sizeof(Op)) / (1 << 20));
  res.info.push_back(buf);
}

/// The durable recovery check: a fresh controller recovered from the run's
/// state directory must reproduce the live state byte for byte.
std::string check_recovery(const Inputs& in, std::uint64_t seed,
                           const std::string& dir, const std::string& live) {
  durable::DurableController fresh(
      in.pms, controller_config(), Rng(derive_seed(seed, 21)),
      durable::DurabilityConfig{dir + "/state", kSnapshotEvery, false});
  fresh.recover();
  if (fresh.controller().export_state() != live)
    return "recovered state differs from the live controller";
  return {};
}

Result run_untraced(const Args& args, const Inputs& in) {
  Result res;
  const auto start = Clock::now();
  SpanLog off(false);
  std::vector<double> setup, prefill_rate, tick_ms, tick_rate, latency_us,
      lag_us, rate;
  const auto prepared = [&](const char* dir) {
    auto p = prepare<durable::DurableController>(in, args.seed,
                                                 args.work_dir + dir, off);
    setup.push_back(p.setup_s);
    prefill_rate.push_back(static_cast<double>(kPrefill) / p.setup_s);
    return p;
  };
  const auto add_ticks = [&](const Tally& t) {
    for (double s : t.tick_s) tick_ms.push_back(s * 1e3);
    tick_rate.insert(tick_rate.end(), t.tick_rate.begin(), t.tick_rate.end());
  };

  // Units of one open-loop and one closed-loop pass of the stream, each on
  // a freshly set-up durable controller, repeat until the time is used
  // up, so both kinds of figures are sampled across the whole run.  Unit
  // 0's open loop supplies the deterministic outputs every pass must match.
  std::string want_state, want;
  ControllerStats stats;
  Tally open_tally;
  std::size_t pms_after_prefill = 0;
  double open_s = 0.0;
  for (std::size_t unit = 0;
       unit < kMinUnits || seconds_since(start) < args.seconds; ++unit) {
    auto p = prepared("/open");
    Tally t;
    const OpenLoop o = open_loop(p, in, t);
    add_ticks(t);
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
    res.attempted += in.ops.size();
    const CloudController& live = p.ctl->controller();
    if (!live.reservation_invariant_holds())
      res.fail("open loop: reservation invariant broken", in.ops.size());
    if (unit == 0) {
      want_state = live.export_state();
      want = fingerprint(live, t);
      stats = live.stats();
      open_tally = t;
      pms_after_prefill = p.pms_used;
      open_s = o.seconds;
      p.ctl.reset();
      if (const std::string e = check_recovery(in, args.seed,
                                               args.work_dir + "/open",
                                               want_state);
          !e.empty())
        res.fail("recovery: " + e, in.ops.size());
    } else if (live.export_state() != want_state) {
      res.fail("open loop " + std::to_string(unit) +
                   " ended in a different state than open loop 0: " +
                   fingerprint(live, t) + " vs " + want,
               in.ops.size());
    }

    auto c = prepared("/closed");
    Tally ct;
    rate.push_back(static_cast<double>(in.ops.size()) /
                   closed_loop(c, in, off, ct));
    add_ticks(ct);
    res.attempted += in.ops.size();
    const CloudController& cc = c.ctl->controller();
    if (!cc.reservation_invariant_holds())
      res.fail("closed loop: reservation invariant broken", in.ops.size());
    else if (cc.export_state() != want_state)
      res.fail("closed loop ended in a different state than the open loop: " +
                   fingerprint(cc, ct) + " vs " + want,
               in.ops.size());
  }

  const Tail tail = tail_with_ten_beyond(tick_ms);
  char note[120];
  std::snprintf(note, sizeof note, "p%.2f, %zu ticks beyond", tail.percentile,
                tail.beyond);
  const std::size_t ticks = open_tally.tick_s.size();
  const double attempts = static_cast<double>(open_tally.admits +
                                              open_tally.resizes);

  res.set("setup_s", median(setup), "s", setup.size(),
          "controller + WAL open + pre-fill admits (median)");
  res.set("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  res.set("fail_ratio",
          static_cast<double>(stats.rejections + stats.resize_rejections) /
              attempts,
          "fraction", open_tally.admits + open_tally.resizes,
          "(rejected admits + rejected resizes) / attempted");
  res.set("plan_vms_per_s", median(prefill_rate), "VMs/s", prefill_rate.size(),
          "pre-fill admissions per second (median)");
  res.set("pms_used", static_cast<double>(pms_after_prefill), "PMs", 1,
          "after pre-fill");
  res.set("pms_active_mean", open_tally.active_sum / static_cast<double>(ticks),
          "PMs", ticks, "after each tick");
  res.set("sim_vm_slots_per_s", median(tick_rate), "VM-slots/s",
          tick_rate.size(), "tenants hosted / tick time (median over ticks)");
  res.set("slot_p50_ms", median(tick_ms), "ms", tick_ms.size(),
          "slot = controller tick");
  res.set("slot_tail_ms", tail.value, "ms", tick_ms.size(), note);
  res.set("cvr_mean", stats.mean_cvr, "fraction", 1);
  res.set("migrations",
          static_cast<double>(stats.runtime_migrations +
                              stats.maintenance_migrations +
                              stats.resize_migrations),
          "count", 1, "runtime + maintenance + resize moves");
  res.set("op_p50_us", median(latency_us), "us", latency_us.size(),
          "open loops, from due time");
  res.set("op_p99_us", quantile(latency_us, 0.99), "us", latency_us.size(),
          "open loops, from due time");
  res.set("ctl_ops_per_s", median(rate), "ops/s", rate.size(),
          "closed-loop passes (median)");
  info_lines(res, in);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%zu units; open loop 0: %.3f s for %.3f s of stream; "
                "generator lag p99 %.1f us over %zu idle-start ops",
                rate.size(), open_s, kStreamSeconds, quantile(lag_us, 0.99),
                lag_us.size());
  res.info.push_back(buf);
  res.info.push_back("deterministic: " + want);
  return res;
}

std::vector<double> span_us(const SpanLog& spans, const char* name) {
  std::vector<double> v = spans.durations(name);
  for (double& x : v) x *= 1e6;
  return v;
}

Result run_traced(const Args& args, const Inputs& in) {
  Result res;
  SpanLog off(false);
  // Alternating untraced / traced closed-loop passes for a third of the
  // budget: the medians give the tracing overhead.  The first traced pass
  // supplies the spans, allocation counts and counters; every pass must
  // end in the same controller state.
  const std::size_t reserve = in.ops.size() + kPrefill + 16;
  SpanLog spans(true, reserve);
  std::string want, traced_fp;
  std::uint64_t state_bytes = 0;
  const Overhead overhead = alternate_traced(
      args.seconds / 3, spans, reserve, [&](SpanLog& log, bool first) {
        std::optional<CounterDelta> counters;
        if (first) counters.emplace();
        const std::string dir =
            args.work_dir + (log.enabled() ? "/traced" : "/ref");
        auto p = prepare<durable::DurableController>(in, args.seed, dir, log);
        Tally t;
        const double pass_s = closed_loop(p, in, log, t);
        const CloudController& c = p.ctl->controller();
        res.attempted += in.ops.size();
        if (!c.reservation_invariant_holds())
          res.fail("closed loop: reservation invariant broken",
                   in.ops.size());
        if (want.empty())
          want = c.export_state();
        else if (c.export_state() != want)
          res.fail("traced and untraced passes ended in different states",
                   in.ops.size());
        if (counters) {
          put_counters(res, *counters,
                       {"mapcal.table.builds", "mapcal.table.cache_hits",
                        "linalg.stationary.solves", "placement.tree_descents",
                        "placement.fit_checks", "placement.placed",
                        "durable.wal.commits", "durable.ctrl.snapshots",
                        "controller.resize.moved",
                        "controller.resize.rejected",
                        "placement.shard.budget_exhausted",
                        "fault.evacuations", "fault.queue.enqueued",
                        "migration.retries"});
          state_bytes = dir_bytes(dir + "/state");
          traced_fp = fingerprint(c, t);
        }
        return pass_s;
      });
  const auto pct = [&](const char* metric, const char* span, double scale,
                       const char* unit) {
    std::vector<double> v = span_us(spans, span);
    for (double& x : v) x *= scale;
    res.set(std::string(metric) + ".p50", median(v), unit, v.size());
    res.set(std::string(metric) + ".p99", quantile(v, 0.99), unit, v.size());
  };
  pct("core.admit_us", "core.admit", 1.0, "us");
  pct("core.depart_us", "core.depart", 1.0, "us");
  pct("core.resize_us", "core.resize", 1.0, "us");
  pct("core.tick_ms", "core.tick", 1e-3, "ms");
  pct("core.crash_ms", "core.crash", 1e-3, "ms");
  const auto tot = spans.totals();
  res.set("core.allocs_per_admit",
          static_cast<double>(tot.at("core.admit").allocs) /
              static_cast<double>(tot.at("core.admit").calls),
          "count", tot.at("core.admit").calls);
  res.set("durable.bytes", static_cast<double>(state_bytes), "bytes", 1,
          "state dir at the end");

  // Open loop for the waits and the generator's lateness.
  {
    auto c = prepare<durable::DurableController>(in, args.seed,
                                                 args.work_dir + "/open", off);
    Tally tc;
    const OpenLoop o = open_loop(c, in, tc);
    res.attempted += in.ops.size();
    if (c.ctl->controller().export_state() != want)
      res.fail("open loop ended in a different state", in.ops.size());
    res.set("core.wait_us.p99", quantile(o.wait_us, 0.99), "us",
            o.wait_us.size(), "due -> start");
    res.set("core.gen_lag_ms", quantile(o.lag_us, 0.99) * 1e-3, "ms",
            o.lag_us.size(), "p99 of due -> start when the controller was idle");
  }

  // Ablation: the same closed loop on a bare CloudController.
  {
    auto d = prepare<CloudController>(in, args.seed, args.work_dir + "/bare",
                                      off);
    Tally td;
    const double bare_s = closed_loop(d, in, off, td);
    res.attempted += in.ops.size();
    res.set("durable.share",
            std::max(0.0, 1.0 - bare_s / median(overhead.untraced_s)),
            "ratio", 1,
            "estimate: 1 - closed loop on CloudController / on "
            "DurableController");
  }
  res.set("queuing.mapcal_cold_ms", mapcal_cold_ms(kBaseParams, 15), "ms", 15,
          "probe");
  res.set("bench.trace_overhead", overhead.ratio(), "ratio",
          overhead.untraced_s.size(), "closed loop, traced vs untraced");

  char line[200];
  std::snprintf(line, sizeof line,
                "traced vs untraced closed loop (median of %zu each): %.0f vs "
                "%.0f ops/s",
                overhead.untraced_s.size(),
                static_cast<double>(in.ops.size()) / median(overhead.traced_s),
                static_cast<double>(in.ops.size()) /
                    median(overhead.untraced_s));
  res.info.push_back(line);
  report_spans(spans, args.work_dir, res);
  info_lines(res, in);
  res.info.push_back("deterministic: " + traced_fp);
  return res;
}

}  // namespace

Result run_control_plane(const Args& args) {
  const Inputs in = generate(args.seed);
  return args.trace ? run_traced(args, in) : run_untraced(args, in);
}

}  // namespace perfbench

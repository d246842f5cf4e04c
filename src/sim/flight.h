// Flight-recorder schema: the bridge between the simulators and the
// obs event log, in both directions.
//
// Write side: FlightSlotRecorder emits the per-run `sim.config` header
// and compact per-slot observation events (`slot.obs`) at
// EventLevel::kDetail.  Active-PM sets are delta-encoded (the `active`
// field appears only when the set changed), so a static placement costs
// one id list for the whole run and the dynamic scheduler pays only on
// migration slots.
//
// Read side: replay_flight_log() re-drives a CvrTracker from a recorded
// BTRC trace — record/reset calls happen in exactly the order the live
// run performed them, so cumulative AND windowed CVR (including the
// reset_window cooldown path) are reproduced bit-for-bit.  Comparing the
// replayed totals against the live SimReport cross-checks the whole
// observability pipeline.
//
// Event kinds consumed here: sim.config, slot.obs, window.reset,
// migration.  Other kinds (place, mapcal, replan, ...) pass through
// untouched.  See docs/OBSERVABILITY.md for the full schema.

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "sim/metrics.h"

namespace burstq {

#ifndef BURSTQ_NO_OBS

/// Emits `sim.config` + per-slot `slot.obs` events for one simulation
/// run.  Construction is cheap when no detail-level sink is open; every
/// method is then a no-op.  Not thread-safe (one recorder per run).
class FlightSlotRecorder {
 public:
  /// `default_label` identifies the run in multi-run logs unless the
  /// event log carries a run label (EventLog::set_run_label), which wins.
  FlightSlotRecorder(std::string_view default_label, std::size_t n_pms,
                     std::size_t slots, std::size_t window, double rho);

  /// True when slot() will actually record; callers skip building the
  /// id lists otherwise.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one slot: `active` = PM ids observed this slot (ascending,
  /// exactly those passed to CvrTracker::record), `violated` = the
  /// subset that violated capacity.
  void slot(std::size_t t, const std::vector<std::size_t>& active,
            const std::vector<std::size_t>& violated);

  // Delta-encoding state, for durable snapshots: the restored recorder
  // must keep eliding the `active` field exactly where the uninterrupted
  // run would have.
  [[nodiscard]] bool first() const { return first_; }
  [[nodiscard]] const std::vector<std::size_t>& last_active() const {
    return last_active_;
  }
  void restore_state(bool first, std::vector<std::size_t> last_active) {
    first_ = first;
    last_active_ = std::move(last_active);
  }

 private:
  bool enabled_{false};
  bool first_{true};
  std::vector<std::size_t> last_active_;
};

#else  // BURSTQ_NO_OBS

class FlightSlotRecorder {
 public:
  FlightSlotRecorder(std::string_view, std::size_t, std::size_t,
                     std::size_t, double) {}
  [[nodiscard]] bool enabled() const { return false; }
  void slot(std::size_t, const std::vector<std::size_t>&,
            const std::vector<std::size_t>&) {}
  [[nodiscard]] bool first() const { return true; }
  [[nodiscard]] const std::vector<std::size_t>& last_active() const {
    static const std::vector<std::size_t> kEmpty;
    return kEmpty;
  }
  void restore_state(bool, std::vector<std::size_t>) {}
};

#endif  // BURSTQ_NO_OBS

/// One replayed simulation run (one `sim.config` header and everything
/// after it until the next header).
struct FlightReplaySegment {
  FlightReplaySegment(std::string label_, std::size_t n_pms_,
                      std::size_t window_, std::size_t declared_slots_,
                      double rho_)
      : label(std::move(label_)),
        n_pms(n_pms_),
        window(window_),
        declared_slots(declared_slots_),
        rho(rho_),
        tracker(n_pms_, window_) {}

  std::string label;
  std::size_t n_pms;
  std::size_t window;
  std::size_t declared_slots;
  double rho;
  CvrTracker tracker;          ///< re-derived violation bookkeeping
  /// SLO audit re-derived from the same stream (only when replay was
  /// given SloOptions).  rho comes from the recorded header; windows and
  /// breach threshold from the options.  window.reset events do NOT touch
  /// it — the SLO measures what tenants saw, cooldowns notwithstanding.
  std::unique_ptr<obs::SloTracker> slo;
  std::size_t slots_seen{0};
  std::size_t migrations{0};
  std::size_t failed_migrations{0};
  std::size_t window_resets{0};
};

/// Replays a recorded event stream.  Throws InvalidArgument on schema
/// violations (slot.obs before any sim.config, PM ids out of range).
/// When `slo` is non-null every segment additionally re-derives an SLO
/// verdict (FlightReplaySegment::slo) from its slot.obs events.
std::vector<FlightReplaySegment> replay_flight_log(
    const std::vector<obs::RecordedEvent>& events,
    const obs::SloOptions* slo = nullptr);

/// Convenience: read_events_btrc + replay.  Throws InvalidArgument for
/// a file that is not BTRC (sniff_event_format names the fix).
std::vector<FlightReplaySegment> replay_flight_log(
    const std::string& path, const obs::SloOptions* slo = nullptr);

/// Parses the space-separated id lists used by `slot.obs` (exposed for
/// tests).
std::vector<std::size_t> parse_id_list(std::string_view text);

/// Options for explain_slo_breaches (the `burstq_cli slo explain`
/// engine).
struct SloExplainOptions {
  /// Window/threshold configuration for the re-derived SLO audit; rho
  /// is overridden per segment by the recorded sim.config header.
  obs::SloOptions slo{};
  /// Max event kinds / span names / violating PMs listed per episode.
  std::size_t top{8};
  /// Include trace pointer lines (the event index resolves with `trace
  /// head|tail --at-event`).  Pointer lines are the only part of the
  /// report that depends on the trace's block layout (a compressed and
  /// a plain recording of the same run differ there), so diff-based
  /// tooling can turn them off.
  bool pointers{true};
};

/// Re-derives SLO breach episodes from a recorded trace (existing
/// flight replay) and explains each one: the episode window, a pointer
/// (event index and block offset) to its first slot, the dominant event
/// kinds and spans inside the window, and the top violating PMs.
/// Deterministic: the same trace renders byte-identically, and with the
/// virtual span clock two same-seed runs do too.  Throws
/// InvalidArgument on non-BTRC files and on unreadable/corrupt traces.
std::string explain_slo_breaches(const std::string& path,
                                 const SloExplainOptions& opt = {});

}  // namespace burstq

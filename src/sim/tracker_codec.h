// Durable-blob codec for the violation trackers.  The simulator's
// snapshots (cluster_sim.h) and the controller's export_state
// (core/controller.h) embed the same tracker records through these
// functions, so both write identical bytes for identical trackers.

#pragma once

#include "durable/state_codec.h"
#include "obs/slo.h"
#include "sim/metrics.h"

namespace burstq {

void write_cvr_tracker(durable::StateWriter& w, const CvrTracker& tracker);

/// Fails the read (durable::CorruptState) when the stored PM count differs
/// from `tracker`'s.
void read_cvr_tracker(durable::StateReader& r, CvrTracker& tracker);

/// A presence flag, then the tracker's state when `slo` is non-null.
void write_slo_tracker(durable::StateWriter& w, const obs::SloTracker* slo);

/// Fails the read when the stored presence flag or PM count disagrees
/// with `slo`.
void read_slo_tracker(durable::StateReader& r, obs::SloTracker* slo);

}  // namespace burstq

// Workload characterization: fitting the paper's ON-OFF model to an
// observed demand trace.
//
// The paper assumes the four-tuple (p_on, p_off, Rb, Re) is known; in a
// real cloud it must be estimated from monitoring data (the model-fitting
// line of work the paper cites: Mi et al. [5], Casale et al. [21], [22]).
// The estimator:
//
//   1. splits the samples into low/high clusters by 1-D 2-means
//   2. Rb = mean(low cluster), Rp = mean(high cluster), Re = Rp - Rb
//   3. p_on  = (# OFF -> ON transitions) / (# slots spent OFF)
//      p_off = (# ON -> OFF transitions) / (# slots spent ON)
//
// which are the maximum-likelihood estimates of the geometric dwell
// times.  Tests verify parameter recovery on synthetic traces.
//
// fit_onoff_from_trace is the only per-series kernel.  fit_traces runs it
// over every column of a fleet trace on the worker pool; `burstq_cli fit`
// calls it and instance_from_traces shares its batch path.  Its contract:
//
//   * validation (non-empty, >= 1 VM column, rectangular rows, >= 2
//     samples) happens on the calling thread before any dispatch, so a bad
//     trace throws InvalidArgument and never reaches a worker;
//   * columns are cut into blocks of consecutive VMs (up to 64, fewer for
//     very long traces); a worker copies one block out of the row-major
//     trace[t][i] with row-contiguous reads into per-worker scratch
//     allocated before dispatch, then fits each column of the tile;
//   * results are written by VM index and every series is summed in
//     sample order, so the output is bit-identical to calling
//     fit_onoff_from_trace column by column, for any thread count;
//   * the worker count is half of default_thread_count() (--threads /
//     BURSTQ_THREADS), at least one and at most the number of blocks;
//     on a shared host, a fit that occupied every vCPU made the plan
//     round vary more from run to run (see docs/PERFORMANCE.md).

#pragma once

#include <span>
#include <vector>

#include "placement/spec.h"
#include "sim/workload_gen.h"

namespace burstq {

/// Result of fitting one VM's trace.
struct FittedVm {
  VmSpec spec;              ///< recovered four-tuple
  double threshold{0.0};    ///< demand level separating OFF from ON
  std::size_t on_slots{0};  ///< samples classified ON
  std::size_t off_slots{0};
  bool bursty{true};  ///< false when the trace never leaves one level
};

/// Fits the ON-OFF model to a single demand series (one sample per slot).
/// Requires at least 2 samples.  Traces that never switch state are
/// reported with bursty = false, Re = 0 and conservative default switch
/// probabilities (1 / trace length).
FittedVm fit_onoff_from_trace(std::span<const double> demand);

/// Fits every VM column of a recorded DemandTrace (trace[t][i] = demand of
/// VM i at slot t) in parallel; returns one FittedVm per VM in VM order,
/// bit-identical to per-column fit_onoff_from_trace (see the file comment).
/// Throws InvalidArgument for an empty, ragged or one-sample trace.
std::vector<FittedVm> fit_traces(const DemandTrace& trace);

/// Same batch fit as fit_traces, keeping only the specs, assembled into a
/// ProblemInstance with the given PM fleet (no per-VM FittedVm copy).
ProblemInstance instance_from_traces(const DemandTrace& trace,
                                     std::vector<PmSpec> pms);

/// 1-D 2-means (Lloyd's algorithm): returns the boundary between the two
/// clusters, i.e. the midpoint of the final centroids.  Requires a
/// non-empty input; degenerate (constant) input returns that constant.
double two_means_threshold(std::span<const double> values);

}  // namespace burstq

#include "fit/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/obs.h"

namespace burstq {

double two_means_threshold(std::span<const double> values) {
  BURSTQ_REQUIRE(!values.empty(), "cannot cluster an empty series");
  const auto [lo_it, hi_it] =
      std::minmax_element(values.begin(), values.end());
  double c_lo = *lo_it;
  double c_hi = *hi_it;
  if (c_lo == c_hi) return c_lo;

  for (int iter = 0; iter < 64; ++iter) {
    // Branch-free select: both sums start at +0.0, never become -0.0, and
    // still add the same samples in sample order, so adding 0.0 for the
    // other cluster leaves every bit as the branchy form would.
    double sum_lo = 0.0;
    double sum_hi = 0.0;
    std::size_t n_lo = 0;
    const double boundary = 0.5 * (c_lo + c_hi);
    for (double v : values) {
      const bool lo = v <= boundary;
      sum_lo += lo ? v : 0.0;
      sum_hi += lo ? 0.0 : v;
      n_lo += lo ? 1 : 0;
    }
    const std::size_t n_hi = values.size() - n_lo;
    if (n_lo == 0 || n_hi == 0) return boundary;
    const double new_lo = sum_lo / static_cast<double>(n_lo);
    const double new_hi = sum_hi / static_cast<double>(n_hi);
    if (new_lo == c_lo && new_hi == c_hi) break;
    c_lo = new_lo;
    c_hi = new_hi;
  }
  return 0.5 * (c_lo + c_hi);
}

FittedVm fit_onoff_from_trace(std::span<const double> demand) {
  BURSTQ_REQUIRE(demand.size() >= 2, "trace too short to fit");

  FittedVm fit;
  fit.threshold = two_means_threshold(demand);
  const double threshold = fit.threshold;

  // Classify and accumulate cluster means (same branch-free select as
  // two_means_threshold).
  double sum_off = 0.0;
  double sum_on = 0.0;
  for (double v : demand) {
    const bool on = v > threshold;
    sum_on += on ? v : 0.0;
    sum_off += on ? 0.0 : v;
    fit.on_slots += on ? 1 : 0;
  }
  fit.off_slots = demand.size() - fit.on_slots;

  const double fallback_p =
      1.0 / static_cast<double>(demand.size());  // "rarer than observed"

  if (fit.on_slots == 0 || fit.off_slots == 0) {
    // Never switches: flat workload.  Rb is the overall mean; assume
    // non-bursty with conservative tiny switch probabilities.
    fit.bursty = false;
    fit.spec.rb = (sum_on + sum_off) / static_cast<double>(demand.size());
    fit.spec.re = 0.0;
    fit.spec.onoff = OnOffParams{fallback_p, 1.0};
    return fit;
  }

  fit.spec.rb = sum_off / static_cast<double>(fit.off_slots);
  const double rp = sum_on / static_cast<double>(fit.on_slots);
  fit.spec.re = std::max(0.0, rp - fit.spec.rb);

  // MLE of the geometric dwell parameters.  The final slot has no
  // successor, so count dwell slots among t in [0, T-2].
  std::size_t on_dwell = 0;
  std::size_t off_to_on = 0;
  std::size_t on_to_off = 0;
  bool prev = demand[0] > threshold;
  for (std::size_t t = 1; t < demand.size(); ++t) {
    const bool cur = demand[t] > threshold;
    on_dwell += prev ? 1 : 0;
    on_to_off += (prev && !cur) ? 1 : 0;
    off_to_on += (!prev && cur) ? 1 : 0;
    prev = cur;
  }
  const std::size_t off_dwell = (demand.size() - 1) - on_dwell;
  auto clamp_p = [fallback_p](std::size_t events, std::size_t dwell) {
    if (dwell == 0) return fallback_p;
    const double p =
        static_cast<double>(events) / static_cast<double>(dwell);
    return std::clamp(p, fallback_p, 1.0);
  };
  fit.spec.onoff.p_on = clamp_p(off_to_on, off_dwell);
  fit.spec.onoff.p_off = clamp_p(on_to_off, on_dwell);
  return fit;
}

namespace {

/// Widest block of consecutive VM columns one worker gathers at a time.
constexpr std::size_t kFitBlockVms = 64;

/// Gather tiles are capped at this many samples (256 KiB of doubles) so
/// long traces shrink the block instead of growing the scratch.
constexpr std::size_t kFitTileSamples = 32 * 1024;

/// The batch fit runs on half of default_thread_count() workers (at least
/// one).  Measured on a shared 4-vCPU host (perfbench `plan`, 10⁵ VMs ×
/// 144 samples): on an idle host four workers fit ~1.8× faster than two,
/// but the plan round's run-to-run spread was 1.1-2.8× that with two, and
/// with the host under load the round was no faster with four.
std::size_t fit_worker_count() {
  return std::max<std::size_t>(1, default_thread_count() / 2);
}

/// Checks everything that could make the batch fit throw and returns the
/// VM count.  Runs on the calling thread before any dispatch: an
/// exception escaping a parallel_for job terminates the process.
std::size_t validated_vm_count(const DemandTrace& trace) {
  BURSTQ_REQUIRE(!trace.empty(), "empty trace");
  const std::size_t n_vms = trace.front().size();
  BURSTQ_REQUIRE(n_vms > 0, "trace has no VM columns");
  for (const auto& row : trace)
    BURSTQ_REQUIRE(row.size() == n_vms, "ragged demand trace");
  BURSTQ_REQUIRE(trace.size() >= 2, "trace too short to fit");
  return n_vms;
}

/// Fits the n_vms columns of a validated trace on the worker pool and
/// passes fit i to store(i, fit).
template <class Store>
void fit_columns(const DemandTrace& trace, std::size_t n_vms,
                 const Store& store) {
  BURSTQ_SPAN("fit.traces");
  const std::size_t n_samples = trace.size();
  const std::size_t block = std::clamp<std::size_t>(
      kFitTileSamples / n_samples, 1, std::min(kFitBlockVms, n_vms));
  const std::size_t n_blocks = (n_vms + block - 1) / block;
  const std::size_t workers = std::min(fit_worker_count(), n_blocks);

  std::vector<std::vector<double>> tiles(
      workers, std::vector<double>(block * n_samples));
  std::vector<std::size_t> flat(n_blocks, 0);
  parallel_for_workers(
      n_blocks,
      [&](std::size_t b, std::size_t w) {
        // Gather columns [first, first + width) with row-contiguous reads
        // into one series per column, then fit each series.  Results land
        // by VM index, so scheduling cannot change the output.
        double* tile = tiles[w].data();
        const std::size_t first = b * block;
        const std::size_t width = std::min(block, n_vms - first);
        for (std::size_t t = 0; t < n_samples; ++t) {
          const double* row = trace[t].data() + first;
          for (std::size_t j = 0; j < width; ++j)
            tile[j * n_samples + t] = row[j];
        }
        // Count flat columns locally: neighbouring blocks' counts share a
        // cache line, so a store per VM would bounce it between workers.
        std::size_t block_flat = 0;
        for (std::size_t j = 0; j < width; ++j) {
          const FittedVm fit = fit_onoff_from_trace(
              std::span<const double>(tile + j * n_samples, n_samples));
          block_flat += fit.bursty ? 0 : 1;
          store(first + j, fit);
        }
        flat[b] = block_flat;
      },
      workers);

  std::size_t n_flat = 0;
  for (const std::size_t f : flat) n_flat += f;
  BURSTQ_COUNT("fit.vms", n_vms);
  BURSTQ_COUNT("fit.samples", n_vms * n_samples);
  BURSTQ_COUNT("fit.flat", n_flat);
}

}  // namespace

std::vector<FittedVm> fit_traces(const DemandTrace& trace) {
  std::vector<FittedVm> out(validated_vm_count(trace));
  fit_columns(trace, out.size(), [&out](std::size_t i, const FittedVm& fit) {
    out[i] = fit;
  });
  return out;
}

ProblemInstance instance_from_traces(const DemandTrace& trace,
                                     std::vector<PmSpec> pms) {
  BURSTQ_REQUIRE(!pms.empty(), "need at least one PM spec");
  ProblemInstance inst;
  inst.vms.resize(validated_vm_count(trace));
  fit_columns(trace, inst.vms.size(),
              [&inst](std::size_t i, const FittedVm& fit) {
                inst.vms[i] = fit.spec;
              });
  inst.pms = std::move(pms);
  return inst;
}

}  // namespace burstq

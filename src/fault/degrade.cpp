#include "fault/degrade.h"

#include <optional>
#include <vector>

#include "common/error.h"
#include "obs/obs.h"
#include "placement/placement.h"
#include "queuing/quantile_reservation.h"

namespace burstq::fault {

std::string_view reserve_level_name(ReserveLevel level) {
  switch (level) {
    case ReserveLevel::kTable: return "table";
    case ReserveLevel::kGaussianTable: return "gaussian";
    case ReserveLevel::kQuantile: return "quantile";
    case ReserveLevel::kPeak: return "peak";
  }
  return "unknown";
}

ReservationLadder::ReservationLadder(std::size_t max_vms_per_pm, double rho,
                                     StationaryMethod preferred,
                                     double quantile_grid_step)
    : d_(max_vms_per_pm),
      rho_(rho),
      preferred_(preferred),
      grid_step_(quantile_grid_step) {
  BURSTQ_REQUIRE(max_vms_per_pm >= 1, "ladder requires max_vms_per_pm >= 1");
  BURSTQ_REQUIRE(rho >= 0.0 && rho < 1.0, "ladder requires rho in [0, 1)");
  BURSTQ_REQUIRE(quantile_grid_step > 0.0,
                 "quantile grid step must be positive");
}

std::optional<MapCalTable> ReservationLadder::table_or_outage(
    const OnOffParams& rounded, StationaryMethod method) const {
  try {
    return MapCalTable(d_, rounded, rho_, method);
  } catch (const SolverUnavailable&) {
    return std::nullopt;
  }
}

std::optional<MapCalTable> ReservationLadder::rung_one_table(
    const OnOffParams& rounded) {
  auto table = table_or_outage(rounded, preferred_);
  if (table) last_level_ = ReserveLevel::kTable;
  return table;
}

bool ReservationLadder::admits(std::span<const VmSpec> hosted,
                               const VmSpec& candidate, Resource capacity,
                               const OnOffParams& rounded) {
  // The per-PM cap d applies on every rung.
  if (hosted.size() + 1 > d_) return false;
  if (const auto table = rung_one_table(rounded))
    return fits_with_reservation_specs(hosted, candidate, capacity, *table);
  return admits_below_table(hosted, candidate, capacity, rounded);
}

bool ReservationLadder::admits_below_table(std::span<const VmSpec> hosted,
                                           const VmSpec& candidate,
                                           Resource capacity,
                                           const OnOffParams& rounded) {
  if (preferred_ != StationaryMethod::kGaussian) {
    if (const auto table =
            table_or_outage(rounded, StationaryMethod::kGaussian)) {
      last_level_ = ReserveLevel::kGaussianTable;
      ++degraded_decisions_;
      BURSTQ_COUNT("fault.solver.degraded", 1);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.solver.degrade",
                   {"level", reserve_level_name(last_level_)});
      return fits_with_reservation_specs(hosted, candidate, capacity,
                                         *table);
    }
  }

  try {
    // Rung 3: exact quantile of the aggregate extra demand; solver-free
    // and per-VM-parameter aware (no uniform rounding needed).
    std::vector<double> re;
    std::vector<double> q;
    re.reserve(hosted.size() + 1);
    q.reserve(hosted.size() + 1);
    Resource rb_sum = candidate.rb;
    re.push_back(candidate.re);
    q.push_back(candidate.onoff.stationary_on_probability());
    for (const VmSpec& v : hosted) {
      rb_sum += v.rb;
      re.push_back(v.re);
      q.push_back(v.onoff.stationary_on_probability());
    }
    QuantileReservationOptions opt;
    opt.rho = rho_;
    opt.grid_step = grid_step_;
    const double reserved = exact_quantile_reservation(re, q, opt);
    last_level_ = ReserveLevel::kQuantile;
    ++degraded_decisions_;
    BURSTQ_COUNT("fault.solver.degraded", 1);
    BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.solver.degrade",
                 {"level", reserve_level_name(last_level_)});
    return rb_sum + reserved <= capacity * (1.0 + kCapacityEpsilon);
  } catch (const std::exception&) {
  }

  // Rung 4: provision for every peak at once.  Never wrong, never fails.
  Resource peak = candidate.rp();
  for (const VmSpec& v : hosted) peak += v.rp();
  last_level_ = ReserveLevel::kPeak;
  ++degraded_decisions_;
  BURSTQ_COUNT("fault.solver.degraded", 1);
  BURSTQ_EVENT(obs::EventLevel::kDecisions, "fault.solver.degrade",
               {"level", reserve_level_name(last_level_)});
  return peak <= capacity * (1.0 + kCapacityEpsilon);
}

}  // namespace burstq::fault

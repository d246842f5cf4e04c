// Graceful degradation of the reservation check under solver faults.
//
// Eq. (17) admission needs a MapCal mapping table.  When the solver is
// down (chaos-injected via mapcal_set_solver_fault, or any transient
// SolverUnavailable), placement must not abort — a recovering cluster
// that cannot place evacuated VMs because a *solver* hiccuped would turn
// one fault into two.  Instead the check walks a ladder, each rung
// cheaper and sounder-but-looser than the last:
//
//   1. kTable         — MapCalTable with the preferred backend; memoized
//                       tables resolve even mid-outage (a cache hit needs
//                       no solve).
//   2. kGaussianTable — retry with the Gaussian backend (the paper's own
//                       Algorithm 1; survives outages scoped to other
//                       backends, or hits its own cached table).
//   3. kQuantile      — exact stationary quantile reservation
//                       (queuing/quantile_reservation.h): solver-free
//                       dynamic programming on per-VM ON-probabilities;
//                       still guarantees stationary P[overload] <= rho.
//   4. kPeak          — reserve sum of peaks: zero violations, maximal
//                       width.  Cannot fail.
//
// Every admission decided below rung 1 counts `fault.solver.degraded`
// and emits a `fault.solver.degrade` event naming the rung, so an outage
// is visible in any obs log even though no call site ever saw an error.

#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "markov/onoff.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"

namespace burstq::fault {

enum class ReserveLevel { kTable, kGaussianTable, kQuantile, kPeak };

/// "table" | "gaussian" | "quantile" | "peak".
std::string_view reserve_level_name(ReserveLevel level);

class ReservationLadder {
 public:
  /// `preferred` is the backend tried on rung 1; `quantile_grid_step` is
  /// the rung-3 discretization (see QuantileReservationOptions).
  ReservationLadder(std::size_t max_vms_per_pm, double rho,
                    StationaryMethod preferred = StationaryMethod::kGaussian,
                    double quantile_grid_step = 0.25);

  /// Eq. (17)-style admission: can `candidate` join `hosted` on a PM of
  /// `capacity`, under the first ladder rung that is currently able to
  /// answer?  `rounded` is the uniform (p_on, p_off) the table rungs use;
  /// the quantile rung uses each VM's own parameters.  Never throws for
  /// valid specs — that is the point.
  bool admits(std::span<const VmSpec> hosted, const VmSpec& candidate,
              Resource capacity, const OnOffParams& rounded);

  /// Rung 1 resolved once for a whole first-fit search: the preferred-
  /// backend table, or nullopt during an outage that the memo cache
  /// cannot serve.  On success records kTable as last_level(), as every
  /// admits() call it stands in for would; a caller that gets nullopt
  /// finishes that decision with admits_below_table().
  [[nodiscard]] std::optional<MapCalTable> rung_one_table(
      const OnOffParams& rounded);

  /// Rungs 2-4 of admits() for a decision whose rung 1 just failed; the
  /// caller has already applied the per-PM cap.
  bool admits_below_table(std::span<const VmSpec> hosted,
                          const VmSpec& candidate, Resource capacity,
                          const OnOffParams& rounded);

  /// Rung that decided the most recent admission decision.
  [[nodiscard]] ReserveLevel last_level() const { return last_level_; }

  /// Admissions decided below rung 1 since construction.
  [[nodiscard]] std::size_t degraded_decisions() const {
    return degraded_decisions_;
  }

  [[nodiscard]] std::size_t max_vms_per_pm() const { return d_; }
  [[nodiscard]] double rho() const { return rho_; }

  /// Restores counters from a durable snapshot (the ladder is otherwise
  /// stateless: rung choice is re-derived per admits() call).
  void restore_counters(ReserveLevel last_level,
                        std::size_t degraded_decisions) {
    last_level_ = last_level;
    degraded_decisions_ = degraded_decisions;
  }

 private:
  /// The (d, rounded, rho, method) table; nullopt when its build faults.
  [[nodiscard]] std::optional<MapCalTable> table_or_outage(
      const OnOffParams& rounded, StationaryMethod method) const;

  std::size_t d_;
  double rho_;
  StationaryMethod preferred_;
  double grid_step_;
  ReserveLevel last_level_{ReserveLevel::kTable};
  std::size_t degraded_decisions_{0};
};

}  // namespace burstq::fault

// Calls into the burstq library shared by several workloads: input
// generation, the independent Eq. (17) checker, obs counter deltas, and
// the per-layer probes of the traced mode.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "obs/registry.h"
#include "placement/first_fit.h"
#include "placement/queuing_ffd.h"
#include "placement/spec.h"
#include "queuing/mapcal.h"
#include "sim/cluster_sim.h"

namespace perfbench {

/// Switch probabilities of every generated tenant: 1% of slots start a
/// spike, spikes last ~11 slots on average (q = 0.1).
inline constexpr burstq::OnOffParams kBaseParams{0.01, 0.09};
/// Algorithm 2's CVR budget and per-PM VM cap.
inline constexpr double kRho = 0.01;
inline constexpr std::size_t kMaxVmsPerPm = 16;

/// A seeded fleet drawn from the Figure 5 ranges (Rb, Re in [2, 20],
/// capacity in [80, 100]) with kBaseParams.
[[nodiscard]] burstq::ProblemInstance make_fleet(std::size_t n_vms,
                                                 std::size_t n_pms,
                                                 std::uint64_t seed);

[[nodiscard]] burstq::QueuingFfdOptions ffd_options();

/// Independent Eq. (17) check of one placement: walks every used PM's
/// VM list and recomputes mapping(k) * max Re + sum Rb <= capacity.
/// Also checks that every VM is either placed or listed as unplaced,
/// never both.  Returns an empty string when all holds, else the first
/// violation.
[[nodiscard]] std::string check_placement(const burstq::ProblemInstance& inst,
                                          const burstq::PlacementResult& res,
                                          const burstq::MapCalTable& table);

/// A ClusterSimulator whose slots are timed from outside: the host time
/// between consecutive on_slot calls, recorded as one `sim.slot` span per
/// slot under `sim.run`.  Construction is the `sim.ctor` span.  The
/// on_slot hook installed here replaces any in `cfg`; pass `observe` to
/// see each slot's observation beside the live simulator.
class TimedSim {
 public:
  using Observer =
      std::function<void(const burstq::SlotObservation&,
                         const burstq::ClusterSimulator&)>;

  TimedSim(const burstq::ProblemInstance& inst,
           const burstq::Placement& initial, burstq::SimConfig cfg,
           burstq::Rng rng, SpanLog& spans, Observer observe = {},
           std::uint64_t id = 0);
  TimedSim(const TimedSim&) = delete;
  TimedSim& operator=(const TimedSim&) = delete;

  /// Runs every slot; fills slot_s() and run_s().
  burstq::SimReport run();

  [[nodiscard]] const burstq::ClusterSimulator& sim() const { return *sim_; }
  [[nodiscard]] const std::vector<double>& slot_s() const { return slot_s_; }
  [[nodiscard]] double run_s() const { return run_s_; }

 private:
  SpanLog& spans_;
  Observer observe_;
  std::uint64_t id_;
  std::optional<burstq::ClusterSimulator> sim_;
  std::vector<double> slot_s_;
  double run_s_{0.0};
  Clock::time_point last_{};
  std::uint64_t allocs_{0};
};

/// Mean of a report's pms_used_timeline (PMs in use per slot).
[[nodiscard]] double active_mean(const burstq::SimReport& r);

/// Counter values of the process-wide obs registry at construction;
/// delta() reads how far a counter moved since.
class CounterDelta {
 public:
  CounterDelta();
  [[nodiscard]] double delta(std::string_view name) const;

 private:
  burstq::obs::MetricsSnapshot before_;
};

/// Copies the listed counters' deltas into `r` as count metrics.
void put_counters(Result& r, const CounterDelta& d,
                  const std::vector<const char*>& names);

/// Ratios of counters already in `r`: placement.confirm_ratio (placed /
/// fit_checks) and sim.migration_fail_ratio (failed / triggered).
void derived_ratios(Result& r);

/// Median cold MapCalTable build time (ms) over `reps` builds, each after
/// mapcal_table_cache_clear().
[[nodiscard]] double mapcal_cold_ms(const burstq::OnOffParams& params,
                                    std::size_t reps);

/// Placement probe on one instance: incremental vs sharded (S = 4 shards,
/// 4 threads) QueuingFFD with a warm table.  Fills placement.sharded4_*
/// and placement.shard.spills.
void sharded_probe(const burstq::ProblemInstance& inst,
                   const burstq::MapCalTable& table, Result& r);

/// WorkloadEnsemble::step cost on `inst` (ns per VM per step, median of
/// `steps` steps).
[[nodiscard]] double ensemble_step_ns_per_vm(
    const burstq::ProblemInstance& inst, std::uint64_t seed,
    std::size_t steps);

}  // namespace perfbench

// Tests for Algorithm 1 (MapCal) — the heart of the paper's reservation
// quantification — and the precomputed MapCalTable.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "common/error.h"
#include "common/parallel.h"
#include "markov/aggregate_chain.h"
#include "obs/trace.h"
#include "obs/obs.h"
#include "prob/binomial.h"
#include "queuing/mapcal.h"

namespace burstq {
namespace {

const OnOffParams kPaperParams{0.01, 0.09};  // q = 0.1

TEST(MapCal, CvrBoundRespectsRho) {
  for (std::size_t k = 1; k <= 20; ++k) {
    const auto r = map_cal(k, kPaperParams, 0.01);
    EXPECT_LE(r.cvr_bound, 0.01 + kCdfTieEpsilon) << "k=" << k;
    EXPECT_LE(r.blocks, k);
  }
}

TEST(MapCal, EqualsBinomialQuantile) {
  // With the closed-form stationary law, K is exactly the Binomial
  // quantile at 1 - rho.  rho = 0.015 avoids exact CDF ties (k = 2 with
  // q = 0.1 has CDF(1) = 0.99 exactly, a knife-edge the implementations
  // resolve via kCdfTieEpsilon rather than raw comparison).
  const double q = kPaperParams.stationary_on_probability();
  const double rho = 0.015;
  for (std::size_t k = 1; k <= 24; ++k) {
    const auto r = map_cal(k, kPaperParams, rho);
    const auto expected = static_cast<std::size_t>(
        binomial_quantile(static_cast<std::int64_t>(k), 1.0 - rho, q));
    EXPECT_EQ(r.blocks, expected) << "k=" << k;
  }
}

TEST(MapCal, MonotoneInK) {
  std::size_t prev = 0;
  for (std::size_t k = 1; k <= 24; ++k) {
    const std::size_t blocks = map_cal_blocks(k, kPaperParams, 0.01);
    EXPECT_GE(blocks, prev) << "k=" << k;
    prev = blocks;
  }
}

TEST(MapCal, MonotoneInRho) {
  // Looser budgets never need more blocks.
  const std::size_t k = 16;
  std::size_t prev = k;
  for (const double rho : {0.001, 0.01, 0.05, 0.1, 0.3, 0.9}) {
    const std::size_t blocks = map_cal_blocks(k, kPaperParams, rho);
    EXPECT_LE(blocks, prev) << "rho=" << rho;
    prev = blocks;
  }
}

TEST(MapCal, RhoZeroReservesEverything) {
  // CDF must reach exactly 1 - 0: every state with positive mass counts,
  // so K = k (all VMs can spike simultaneously with positive probability).
  for (std::size_t k = 1; k <= 8; ++k)
    EXPECT_EQ(map_cal_blocks(k, kPaperParams, 0.0), k);
}

TEST(MapCal, HugeRhoReservesLittle) {
  // rho = 0.95 tolerates nearly everything; with q = 0.1 state 0 alone
  // usually carries > 5% mass, so K should be tiny.
  const auto r = map_cal(16, kPaperParams, 0.95);
  EXPECT_LE(r.blocks, 1u);
}

TEST(MapCal, BlocksReductionSavesForTypicalParams) {
  // Paper's whole point: K < k for bursty workloads at moderate k.
  const auto r = map_cal(16, kPaperParams, 0.01);
  EXPECT_LT(r.blocks, 16u);
  EXPECT_GE(r.blocks, 1u);
}

TEST(MapCal, StationaryVectorIncluded) {
  const auto r = map_cal(8, kPaperParams, 0.01);
  ASSERT_EQ(r.stationary.size(), 9u);
  double sum = 0.0;
  for (double v : r.stationary) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(MapCal, InvalidInputsThrow) {
  EXPECT_THROW(map_cal(0, kPaperParams, 0.01), InvalidArgument);
  EXPECT_THROW(map_cal(4, kPaperParams, 1.0), InvalidArgument);
  EXPECT_THROW(map_cal(4, kPaperParams, -0.1), InvalidArgument);
  EXPECT_THROW(map_cal(4, OnOffParams{0.0, 0.5}, 0.01), InvalidArgument);
}

// Property sweep: all three backends give the same K.
using MapCalParam = std::tuple<std::size_t, double, double, double>;

class MapCalBackends : public ::testing::TestWithParam<MapCalParam> {};

TEST_P(MapCalBackends, GaussianPowerClosedFormAgree) {
  const auto [k, p_on, p_off, rho] = GetParam();
  const OnOffParams p{p_on, p_off};
  const auto kg = map_cal_blocks(k, p, rho, StationaryMethod::kGaussian);
  const auto kp = map_cal_blocks(k, p, rho, StationaryMethod::kPower);
  const auto kc = map_cal_blocks(k, p, rho, StationaryMethod::kClosedForm);
  EXPECT_EQ(kg, kc);
  EXPECT_EQ(kp, kc);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapCalBackends,
    ::testing::Values(MapCalParam{1, 0.01, 0.09, 0.01},
                      MapCalParam{4, 0.01, 0.09, 0.01},
                      MapCalParam{8, 0.01, 0.09, 0.01},
                      MapCalParam{16, 0.01, 0.09, 0.01},
                      MapCalParam{16, 0.01, 0.09, 0.001},
                      MapCalParam{16, 0.01, 0.09, 0.1},
                      MapCalParam{12, 0.2, 0.2, 0.05},
                      MapCalParam{10, 0.05, 0.5, 0.02},
                      MapCalParam{20, 0.02, 0.1, 0.01},
                      MapCalParam{6, 0.5, 0.1, 0.01}));

TEST(MapCal, CvrBoundMatchesTailMass) {
  const auto r = map_cal(12, kPaperParams, 0.01);
  double tail = 0.0;
  for (std::size_t m = r.blocks + 1; m <= 12; ++m) tail += r.stationary[m];
  EXPECT_NEAR(r.cvr_bound, tail, 1e-12);
}

TEST(MapCalTable, MatchesPerKCalls) {
  const MapCalTable table(16, kPaperParams, 0.01);
  EXPECT_EQ(table.max_vms_per_pm(), 16u);
  EXPECT_EQ(table.blocks(0), 0u);
  for (std::size_t k = 1; k <= 16; ++k) {
    EXPECT_EQ(table.blocks(k), map_cal_blocks(k, kPaperParams, 0.01));
    EXPECT_LE(table.cvr_bound(k), 0.01 + kCdfTieEpsilon);
  }
}

TEST(MapCalTable, OutOfRangeThrows) {
  const MapCalTable table(8, kPaperParams, 0.01);
  EXPECT_THROW((void)table.blocks(9), InvalidArgument);
  EXPECT_THROW((void)table.cvr_bound(9), InvalidArgument);
}

TEST(MapCalTable, StoresConfig) {
  const MapCalTable table(8, kPaperParams, 0.02);
  EXPECT_DOUBLE_EQ(table.rho(), 0.02);
  EXPECT_DOUBLE_EQ(table.params().p_on, 0.01);
}

TEST(MapCalTable, SignedZeroRhoSharesOneCacheEntry) {
  // TableKey equality uses double ==, under which -0.0 == 0.0 — so the
  // hash must collapse the two bit patterns as well, or the second build
  // misses the cached entry and silently duplicates it.
  mapcal_table_cache_clear();
  const MapCalTable pos(6, kPaperParams, 0.0);
  EXPECT_EQ(mapcal_table_cache_size(), 1u);
  const MapCalTable neg(6, kPaperParams, -0.0);
  EXPECT_EQ(mapcal_table_cache_size(), 1u)
      << "rho = -0.0 must hit the rho = 0.0 entry, not sit beside it";
  for (std::size_t k = 1; k <= 6; ++k) {
    EXPECT_EQ(neg.blocks(k), pos.blocks(k));
    EXPECT_DOUBLE_EQ(neg.cvr_bound(k), pos.cvr_bound(k));
  }
}

TEST(MapCalTable, CacheHitBitIdenticalToColdSolve) {
  mapcal_table_cache_clear();
  const MapCalTable cold(8, kPaperParams, 0.01);
  const MapCalTable warm(8, kPaperParams, 0.01);
  EXPECT_EQ(mapcal_table_cache_size(), 1u);
  for (std::size_t k = 1; k <= 8; ++k) {
    EXPECT_EQ(warm.blocks(k), cold.blocks(k));
    // Bit-identical, not just close: the hit returns the same immutable
    // data the cold build produced.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.cvr_bound(k)),
              std::bit_cast<std::uint64_t>(cold.cvr_bound(k)));
  }
}

/// A recorded trace: its bytes and its decoded events.
struct Recording {
  std::string bytes;
  std::vector<obs::RecordedEvent> events;
};

/// Records the decision events of `builds` cold d = 16 table builds at
/// `threads` workers.
Recording record_cold_builds(std::size_t builds, std::size_t threads) {
  const std::string path = ::testing::TempDir() + "/mapcal_order_" +
                           std::to_string(threads) + "_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name() +
                           ".btrc";
  set_thread_count_override(threads);
  obs::events().open(path, obs::EventFormat::kBinary,
                     obs::EventLevel::kDecisions);
  for (std::size_t b = 0; b < builds; ++b) {
    mapcal_table_cache_clear();
    const MapCalTable table(16, kPaperParams, 0.01);
  }
  obs::events().close();
  set_thread_count_override(0);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  Recording out{bytes.str(), obs::read_events_btrc(path)};
  std::remove(path.c_str());
  return out;
}

TEST(MapCalTable, ParallelBuildEmitsEventsInKOrder) {
  // Workers finish their solves in any order; the decision events must
  // still come out k = 1..d for every build, byte-identical to a build
  // on one thread.
  if (!obs::kEnabled) GTEST_SKIP() << "events compiled out";
  constexpr std::size_t kBuilds = 200;
  const Recording parallel = record_cold_builds(kBuilds, 4);
  std::size_t n = 0;
  for (const obs::RecordedEvent& ev : parallel.events) {
    if (ev.kind != "mapcal") continue;
    ASSERT_EQ(ev.integer("k"), static_cast<std::int64_t>(n % 16 + 1))
        << "event " << n;
    ++n;
  }
  EXPECT_EQ(n, kBuilds * 16);
  EXPECT_EQ(parallel.bytes, record_cold_builds(kBuilds, 1).bytes);
}

TEST(MapCal, PaperParameterSanity) {
  // With q = 0.1 and rho = 0.01, sharing 16 VMs needs far fewer than 16
  // blocks — the consolidation win the paper reports.  Binomial(16, 0.1)
  // has 99th percentile at 5.
  EXPECT_EQ(map_cal_blocks(16, kPaperParams, 0.01), 5u);
  EXPECT_EQ(map_cal_blocks(8, kPaperParams, 0.01), 3u);
}

}  // namespace
}  // namespace burstq

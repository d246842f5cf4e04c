// Tests for the batch trace fit (fit_traces): bit-identity with the
// per-column kernel, invariance under the worker count, and a pinned
// checksum of a seeded fleet fit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fit/estimator.h"
#include "obs/trace_codec.h"

namespace burstq {
namespace {

/// Restores the process-wide thread count when the test ends.
class ThreadOverride {
 public:
  explicit ThreadOverride(std::size_t n) { set_thread_count_override(n); }
  ~ThreadOverride() { set_thread_count_override(0); }
  ThreadOverride(const ThreadOverride&) = delete;
  ThreadOverride& operator=(const ThreadOverride&) = delete;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const FittedVm& a, const FittedVm& b, std::size_t vm) {
  EXPECT_TRUE(same_bits(a.spec.onoff.p_on, b.spec.onoff.p_on)) << "vm" << vm;
  EXPECT_TRUE(same_bits(a.spec.onoff.p_off, b.spec.onoff.p_off))
      << "vm" << vm;
  EXPECT_TRUE(same_bits(a.spec.rb, b.spec.rb)) << "vm" << vm;
  EXPECT_TRUE(same_bits(a.spec.re, b.spec.re)) << "vm" << vm;
  EXPECT_TRUE(same_bits(a.threshold, b.threshold)) << "vm" << vm;
  EXPECT_EQ(a.bursty, b.bursty) << "vm" << vm;
  EXPECT_EQ(a.on_slots, b.on_slots) << "vm" << vm;
  EXPECT_EQ(a.off_slots, b.off_slots) << "vm" << vm;
}

void expect_identical(const std::vector<FittedVm>& a,
                      const std::vector<FittedVm>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i], i);
}

std::vector<FittedVm> fit_per_column(const DemandTrace& trace) {
  std::vector<FittedVm> out;
  std::vector<double> series(trace.size());
  for (std::size_t i = 0; i < trace.front().size(); ++i) {
    for (std::size_t t = 0; t < trace.size(); ++t) series[t] = trace[t][i];
    out.push_back(fit_onoff_from_trace(series));
  }
  return out;
}

/// n_vms columns over `slots` samples: every third column flat, the rest
/// two-level ON-OFF demand with +-5% noise.
DemandTrace mixed_trace(std::size_t n_vms, std::size_t slots,
                        std::uint64_t seed) {
  Rng rng(seed);
  DemandTrace trace(slots, std::vector<double>(n_vms));
  for (std::size_t i = 0; i < n_vms; ++i) {
    if (i % 3 == 0) {
      const double level = 1.0 + 0.25 * static_cast<double>(i % 17);
      for (std::size_t t = 0; t < slots; ++t) trace[t][i] = level;
      continue;
    }
    const double rb = rng.uniform(2.0, 10.0);
    const double re = rng.uniform(2.0, 20.0);
    const double p_flip = rng.uniform(0.05, 0.4);
    bool on = rng.bernoulli(0.5);
    for (std::size_t t = 0; t < slots; ++t) {
      trace[t][i] = (on ? rb + re : rb) * rng.uniform(0.95, 1.05);
      if (rng.bernoulli(p_flip)) on = !on;
    }
  }
  return trace;
}

TEST(FitTraces, BitIdenticalToPerColumnFit) {
  for (const std::size_t n : {1u, 63u, 64u, 65u, 1007u}) {
    for (const std::size_t slots : {2u, 3u, 144u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " slots=" << slots);
      const DemandTrace trace = mixed_trace(n, slots, 7 + n + slots);
      expect_identical(fit_traces(trace), fit_per_column(trace));
    }
  }
}

TEST(FitTraces, LongTracesUseNarrowBlocks) {
  // 40 000 samples exceed one tile, so every block is a single column.
  const DemandTrace trace = mixed_trace(5, 40000, 11);
  expect_identical(fit_traces(trace), fit_per_column(trace));
}

TEST(FitTraces, InvariantUnderThreadCount) {
  const DemandTrace trace = mixed_trace(1007, 144, 5);
  std::vector<FittedVm> one;
  {
    const ThreadOverride threads(1);
    one = fit_traces(trace);
  }
  // The fit runs on half the pool, so 8 threads means 4 fit workers.
  for (const std::size_t n : {2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << n);
    const ThreadOverride threads(n);
    expect_identical(fit_traces(trace), one);
  }
}

TEST(FitTraces, ValidatesBeforeDispatch) {
  const ThreadOverride threads(4);
  EXPECT_THROW(fit_traces({}), InvalidArgument);
  EXPECT_THROW(fit_traces(DemandTrace{{}, {}}), InvalidArgument);
  EXPECT_THROW(fit_traces(DemandTrace{{1.0, 2.0}}), InvalidArgument);
  EXPECT_THROW(fit_traces(DemandTrace{{1.0, 2.0}, {1.0}}), InvalidArgument);
}

/// CRC-32 of the specs' (p_on, p_off, rb, re) bytes in VM order.
std::uint32_t fleet_spec_crc(const std::vector<VmSpec>& specs) {
  std::vector<double> words;
  words.reserve(4 * specs.size());
  for (const VmSpec& s : specs) {
    words.push_back(s.onoff.p_on);
    words.push_back(s.onoff.p_off);
    words.push_back(s.rb);
    words.push_back(s.re);
  }
  const std::string_view bytes(reinterpret_cast<const char*>(words.data()),
                               words.size() * sizeof(double));
  return obs::trace_detail::crc32(bytes);
}

/// Demand of a seeded 10^4-VM fleet over 144 slots.
DemandTrace pinned_fleet_trace() {
  Rng rng(20130101);
  ProblemInstance fleet;
  fleet.pms = {PmSpec{100.0}};
  for (std::size_t i = 0; i < 10000; ++i) {
    // Every 10th VM almost never switches, so the fit sees flat columns.
    const double p_on = i % 10 == 0 ? 1e-4 : rng.uniform(0.01, 0.2);
    fleet.vms.push_back(VmSpec{OnOffParams{p_on, rng.uniform(0.05, 0.5)},
                               rng.uniform(1.0, 10.0),
                               rng.uniform(1.0, 20.0)});
  }
  return record_demand_trace(fleet, 144, Rng(42));
}

// Recorded from the per-column fit that preceded fit_traces; a change
// here means fitted specs are no longer bit-identical across versions.
constexpr std::uint32_t kPinnedFleetSpecCrc = 0x1aa933d9u;

TEST(FitTraces, PinnedFleetChecksum) {
  const DemandTrace trace = pinned_fleet_trace();
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << n);
    const ThreadOverride threads(n);
    std::vector<VmSpec> specs;
    for (const FittedVm& f : fit_traces(trace)) specs.push_back(f.spec);
    EXPECT_EQ(fleet_spec_crc(specs), kPinnedFleetSpecCrc);
    const auto inst = instance_from_traces(trace, {PmSpec{100.0}});
    EXPECT_EQ(fleet_spec_crc(inst.vms), kPinnedFleetSpecCrc);
  }
}

}  // namespace
}  // namespace burstq

// Test helper: a fluid sweep of opts.fractions on one topology, run as
// one sweep::run_fluid_grid grid.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/fluid_runner.hpp"
#include "sweep/grid.hpp"
#include "topo/topology.hpp"

namespace flexnets::test_util {

// The grid's records, in fraction order; empty (with a test failure) when
// the run itself failed.
inline std::vector<core::JournalRecord> fluid_grid(
    const topo::Topology& topo, const core::FluidSweepOptions& opts,
    const sweep::GridPolicy& policy) {
  auto result = sweep::run_fluid_grid({&topo}, opts, policy);
  if (!result.ok()) {
    ADD_FAILURE() << "run_fluid_grid: " << result.status().to_string();
    return {};
  }
  return std::move(result->records);
}

inline std::vector<core::FluidPoint> fluid_points(
    const std::vector<core::JournalRecord>& records) {
  std::vector<core::FluidPoint> out;
  for (const auto& r : records) {
    out.push_back(core::from_journal_record(r).point);
  }
  return out;
}

// The plain sweep: no journal, `threads` in-process workers. Every point
// must succeed: a contained failure (an escaped FLEXNETS_CHECK, audits
// included) fails the test instead of reading as zero throughput.
inline std::vector<core::FluidPoint> plain_sweep(
    const topo::Topology& topo, const core::FluidSweepOptions& opts,
    int threads = 0) {
  sweep::GridPolicy policy;
  policy.threads = threads;
  const auto records = fluid_grid(topo, opts, policy);
  for (const auto& r : records) {
    EXPECT_TRUE(r.ok()) << r.key << ": " << r.message;
  }
  return fluid_points(records);
}

}  // namespace flexnets::test_util

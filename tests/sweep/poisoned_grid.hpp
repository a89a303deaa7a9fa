// A small fluid grid with two poisoned points, shared by the executor-
// equivalence test and the sweep test binary's worker mode (main.cpp):
// point kInvalidAt loads a corrupt topology file (a structured
// kInvalidInput), point kCheckAt fails a FLEXNETS_CHECK (contained as
// kInternal), and every other point is an ordinary fluid sweep point.
// Each point depends only on its index, as every real grid's must.
#pragma once

#include <cstddef>
#include <string>

#include "common/check.hpp"
#include "common/status.hpp"
#include "core/fluid_runner.hpp"
#include "core/journal.hpp"
#include "flow/throughput.hpp"
#include "topo/io.hpp"
#include "topo/xpander.hpp"

namespace flexnets::sweep::poisoned {

inline constexpr char kPrefix[] = "eqv";
inline constexpr std::size_t kPoints = 6;
inline constexpr std::size_t kInvalidAt = 2;
inline constexpr std::size_t kCheckAt = 4;

inline const topo::Topology& topology() {
  static const topo::Topology t = topo::xpander(3, 4, 2, 1).topo;
  return t;
}

inline const core::FluidSweepOptions& options() {
  static const core::FluidSweepOptions opts = [] {
    core::FluidSweepOptions o;
    o.fractions = {0.2, 0.4, 0.5, 0.6, 0.8, 1.0};
    o.eps = 0.15;
    o.seed = 9;
    return o;
  }();
  return opts;
}

inline core::JournalRecord point(std::size_t i) {
  if (i == kInvalidAt) {
    const auto loaded = topo::load_topology(
        std::string(FLEXNETS_TEST_DATA_DIR) + "/corrupt_inputs/truncated.topo");
    FLEXNETS_CHECK(!loaded.ok(), "the corrupt topology file loaded");
    throw_status(loaded.status());
  }
  FLEXNETS_CHECK(i != kCheckAt, "poisoned invariant at point ", i);
  static const flow::ThroughputCache cache =
      flow::build_throughput_cache(topology());
  return core::to_journal_record(
      core::fluid_sweep_point(topology(), cache, options(), i));
}

}  // namespace flexnets::sweep::poisoned

// Fluid-flow sweeps for the paper's section 5 figures: per-server
// throughput as the fraction of racks with traffic demand varies.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "core/journal.hpp"
#include "flow/throughput.hpp"
#include "topo/topology.hpp"

namespace flexnets::core {

enum class TmFamily {
  kLongestMatching,  // the paper's default hard TM for static networks
  kRandomPermutation,
  kAllToAll,
};

struct FluidPoint {
  double fraction = 0.0;    // of racks (and thus servers) with demand
  double throughput = 0.0;  // per-server, fraction of line rate
};

struct FluidSweepOptions {
  std::vector<double> fractions = {0.1, 0.2, 0.3, 0.4, 0.5,
                                   0.6, 0.7, 0.8, 0.9, 1.0};
  TmFamily family = TmFamily::kLongestMatching;
  double eps = 0.1;  // GK approximation parameter
  // Per-point GK budget / cancellation (flow/mcf.hpp). A budgeted point
  // still yields its feasible partial lambda, recorded alongside its
  // kBudgetExhausted status.
  flow::McfLimits limits;
  std::uint64_t seed = 1;
};

// One grid point's outcome. `status` is kOk for a clean solve, or
// kBudgetExhausted/kNonConverged for a budgeted partial (the point still
// carries the feasible lambda).
struct FluidPointRecord {
  FluidPoint point;
  Status status;
};

// Point `index` of a fluid sweep: activate opts.fractions[index] of the
// ToRs (a random subset), build the TM, and evaluate per-server
// throughput. The point's sub-seed is hash_words(opts.seed, index), so
// any executor -- serial loop, thread pool, or a sweep worker process --
// that evaluates index i gets bit-identical results; sweeps run these
// points through sweep::run_grid. `cache` is the shared read-only
// throughput cache from flow::build_throughput_cache(topo).
FluidPointRecord fluid_sweep_point(const topo::Topology& topo,
                                   const flow::ThroughputCache& cache,
                                   const FluidSweepOptions& opts,
                                   std::size_t index);

// Order-sensitive digest of a sweep's results (exact double bits), for
// same-seed determinism comparisons across thread counts, worker counts
// and resumed runs.
std::uint64_t fluid_sweep_digest(const std::vector<FluidPoint>& points);

// The journal form of one record (values "fraction" and "throughput", in
// that order, plus its status), and its inverse.
JournalRecord to_journal_record(const FluidPointRecord& rec);
FluidPointRecord from_journal_record(const JournalRecord& rec);

}  // namespace flexnets::core

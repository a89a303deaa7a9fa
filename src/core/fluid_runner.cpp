#include "core/fluid_runner.hpp"

#include <algorithm>
#include <cmath>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "flow/tm_generators.hpp"

namespace flexnets::core {

// Sub-seed from (seed, index) only: a point's draw stream does not depend
// on which fractions precede it or on scheduling -- this is also what
// makes journal-resume bit-exact.
FluidPointRecord fluid_sweep_point(const topo::Topology& topo,
                                   const flow::ThroughputCache& cache,
                                   const FluidSweepOptions& opts,
                                   std::size_t index) {
  const auto num_tors = topo.tors().size();
  const double x = opts.fractions[index];
  const std::uint64_t sub_seed = hash_words(opts.seed, index);
  const int count = std::clamp<int>(
      static_cast<int>(std::llround(x * static_cast<double>(num_tors))), 2,
      static_cast<int>(num_tors));
  const auto active = flow::pick_active_racks(topo, count, sub_seed);

  flow::TrafficMatrix tm;
  switch (opts.family) {
    case TmFamily::kLongestMatching:
      tm = flow::longest_matching_tm(topo, active);
      break;
    case TmFamily::kRandomPermutation:
      tm = flow::random_permutation_tm(topo, active, sub_seed);
      break;
    case TmFamily::kAllToAll:
      tm = flow::all_to_all_tm(topo, active);
      break;
  }

  flow::ThroughputOptions topts;
  topts.eps = opts.eps;
  topts.limits = opts.limits;
  const auto r = flow::per_server_throughput_budgeted(topo, tm, topts, cache);

  FluidPointRecord rec;
  rec.point.fraction = x;
  rec.point.throughput = r.lambda;  // feasible even when budgeted
  rec.status = r.status;
  return rec;
}

std::uint64_t fluid_sweep_digest(const std::vector<FluidPoint>& points) {
  Digest d;
  for (const auto& p : points) {
    d.mix_double(p.fraction);
    d.mix_double(p.throughput);
  }
  return d.value();
}

JournalRecord to_journal_record(const FluidPointRecord& rec) {
  JournalRecord j;
  j.code = rec.status.code();
  j.message = rec.status.message();
  j.values = {{"fraction", rec.point.fraction},
              {"throughput", rec.point.throughput}};
  return j;
}

FluidPointRecord from_journal_record(const JournalRecord& rec) {
  FluidPointRecord r;
  r.point.fraction = rec.value("fraction");
  r.point.throughput = rec.value("throughput");
  r.status = Status(rec.code, rec.message);
  return r;
}

}  // namespace flexnets::core

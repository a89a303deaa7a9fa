// Fluid-flow topology analysis without any packet simulation: compare
// static designs' per-server throughput under hard (longest-matching)
// traffic matrices as the active-server fraction varies, and relate them
// to the analytic dynamic-network models -- the section 5 methodology as a
// library call.
//
//   $ ./example_topology_analysis
#include <cstdio>

#include "core/fluid_runner.hpp"
#include "flow/dynamic_models.hpp"
#include "graph/algorithms.hpp"
#include "graph/spectral.hpp"
#include "sweep/grid.hpp"
#include "topo/jellyfish.hpp"
#include "topo/slim_fly.hpp"
#include "topo/xpander.hpp"

using namespace flexnets;

int main() {
  // Three static designs on ~identical equipment: 50 switches, 7 network
  // ports, 6 servers each.
  const auto sf = topo::slim_fly(5, 6);
  const auto jf = topo::jellyfish(50, 7, 6, /*seed=*/1);
  // 48 switches so the canonical lift construction applies (8 meta-nodes
  // of 6); still ~the same equipment class as the other two.
  const auto xp = topo::xpander_for(48, 7, 6, /*seed=*/1);

  std::printf("%-24s %9s %9s %14s\n", "topology", "diameter", "mean_dist",
              "lambda2/bound");
  for (const auto* t : {&sf.topo, &jf, &xp}) {
    std::printf("%-24s %9d %9.3f %8.2f/%.2f\n", t->name.c_str(),
                graph::diameter(t->g), graph::mean_distance(t->g),
                graph::second_eigenvalue(t->g, 300, 3),
                graph::ramanujan_bound(t->g.degree(0)));
  }

  core::FluidSweepOptions opts;
  opts.fractions = {0.2, 0.4, 0.6, 0.8, 1.0};
  opts.eps = 0.07;

  std::printf("\nper-server throughput on longest-matching TMs:\n");
  std::printf("%-10s %10s %10s %10s %12s %12s\n", "fraction", "slimfly",
              "jellyfish", "xpander", "unrestr_dyn", "restr_dyn");
  // One grid over (topology, fraction), records topology-major. The
  // default policy runs the points on every hardware thread, with no
  // journal.
  const auto grid =
      sweep::run_fluid_grid({&sf.topo, &jf, &xp}, opts, sweep::GridPolicy{});
  if (!grid.ok()) {
    std::fprintf(stderr, "error: %s\n", grid.status().to_string().c_str());
    return 1;
  }
  for (const auto& r : grid->records) {
    if (!r.ok()) {
      std::fprintf(stderr, "error: point %s failed: %s\n", r.key.c_str(),
                   r.message.c_str());
      return 1;
    }
  }
  const std::size_t f = opts.fractions.size();
  const auto tput = [&](std::size_t t, std::size_t i) {
    return grid->records[t * f + i].value("throughput");
  };
  for (std::size_t i = 0; i < f; ++i) {
    const double x = opts.fractions[i];
    std::printf("%-10.2f %10.3f %10.3f %10.3f %12.3f %12.3f\n", x,
                tput(0, i), tput(1, i), tput(2, i),
                flow::unrestricted_dynamic_throughput(7, 6, 1.5),
                flow::restricted_dynamic_throughput(
                    static_cast<int>(x * 50), 7, 6, 1.5));
  }
  std::printf(
      "\nAll three flat topologies behave as near-optimal expanders and beat\n"
      "the equal-cost dynamic models as traffic concentrates (small x).\n");
  return 0;
}

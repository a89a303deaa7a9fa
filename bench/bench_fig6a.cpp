// Reproduces paper Fig 6(a): Jellyfish built with 80% / 50% / 40% of a full
// fat-tree's switches (same radix, same server count) still provides
// near-full bandwidth when a minority of servers participate.
// Default scale: k=8 (80 switches, 128 servers). REPRO_FULL=1: the paper's
// k=20 (500 switches, 2000 servers).
#include <cstdio>

#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "util.hpp"

using namespace flexnets;

int main(int argc, char** argv) {
  bench::banner("Fig 6(a)",
                "Jellyfish at 80/50/40% of a full fat-tree's switches");
  const auto policy = bench::grid_policy(argc, argv, "fig6a");

  const bool full = core::repro_full();
  const int k = full ? 20 : 8;
  const auto ft = topo::fat_tree(k);
  const int servers = ft.topo.num_servers();
  const int switches = ft.topo.num_switches();
  std::printf("baseline: full fat-tree k=%d (%d switches, %d servers)\n\n", k,
              switches, servers);

  core::FluidSweepOptions opts;
  opts.eps = full ? 0.12 : 0.07;
  const std::vector<double> fracs = {0.8, 0.5, 0.4};
  std::vector<topo::Topology> jfs;
  std::vector<std::string> labels;
  for (const double frac : fracs) {
    const int n = static_cast<int>(frac * switches);
    jfs.push_back(topo::jellyfish_same_equipment(n, k, servers, 1));
    labels.push_back(TextTable::fmt(100 * frac, 0) + "%_fat_switches");
    std::printf("  %s: %d switches of radix %d, %d servers\n",
                jfs.back().name.c_str(), n, k, servers);
  }
  std::printf("\n");
  const auto series =
      bench::fluid_series({&jfs[0], &jfs[1], &jfs[2]}, opts, policy);

  TextTable t({"fraction_x", labels[0], labels[1], labels[2]});
  for (std::size_t i = 0; i < opts.fractions.size(); ++i) {
    t.add_row({opts.fractions[i], series[0][i].value("throughput"),
               series[1][i].value("throughput"),
               series[2][i].value("throughput")},
              3);
  }
  t.print();
  std::printf(
      "\nExpected shape (paper): with 50%% of the fat-tree's switches,\n"
      "Jellyfish still gives ~full bandwidth when <40%% of servers are\n"
      "active; the full fat-tree itself would be a flat 1.0 line.\n\n");
  for (std::size_t i = 0; i < series.size(); ++i) {
    bench::print_digest_line("fig6a/" + labels[i], series[i]);
  }
  return 0;
}

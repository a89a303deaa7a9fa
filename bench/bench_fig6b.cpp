// Reproduces paper Fig 6(b): Jellyfish built with the same switches as a
// full fat-tree but hosting TWICE the servers, across fat-tree scales
// (paper: k = 12, 24, 36). The advantage is consistent or improves with k.
// Default scale: k in {8, 12}. REPRO_FULL=1: k in {12, 24, 36}.
#include <cstdio>

#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "util.hpp"

using namespace flexnets;

int main(int argc, char** argv) {
  bench::banner("Fig 6(b)",
                "Jellyfish with a fat-tree's switches and 2x its servers");
  const auto policy = bench::grid_policy(argc, argv, "fig6b");

  const bool full = core::repro_full();
  const std::vector<int> ks = full ? std::vector<int>{12, 24, 36}
                                   : std::vector<int>{8, 12};

  core::FluidSweepOptions opts;
  opts.eps = full ? 0.12 : 0.07;

  std::vector<topo::Topology> jfs;
  std::vector<std::string> labels;
  for (const int k : ks) {
    const auto ft = topo::fat_tree(k);
    const int servers = 2 * ft.topo.num_servers();
    jfs.push_back(topo::jellyfish_same_equipment(ft.topo.num_switches(), k,
                                                 servers, 1));
    labels.push_back("k=" + std::to_string(k));
    std::printf("  k=%d: %d switches of radix %d, %d servers (fat-tree: %d)\n",
                k, ft.topo.num_switches(), k, servers, ft.topo.num_servers());
  }
  std::printf("\n");
  std::vector<const topo::Topology*> topos;
  for (const auto& jf : jfs) topos.push_back(&jf);
  const auto series = bench::fluid_series(topos, opts, policy);

  std::vector<std::string> header{"fraction_x"};
  header.insert(header.end(), labels.begin(), labels.end());
  TextTable t(header);
  for (std::size_t i = 0; i < opts.fractions.size(); ++i) {
    std::vector<double> row{opts.fractions[i]};
    for (const auto& s : series) row.push_back(s[i].value("throughput"));
    t.add_row(row, 3);
  }
  t.print();
  std::printf(
      "\nExpected shape (paper): despite hosting 2x the servers on the same\n"
      "switches, Jellyfish reaches full per-server throughput once a\n"
      "minority of servers participate, and larger k only helps.\n\n");
  for (std::size_t i = 0; i < series.size(); ++i) {
    bench::print_digest_line("fig6b/" + labels[i], series[i]);
  }
  return 0;
}

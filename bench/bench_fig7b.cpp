// Reproduces paper Fig 7(b): only a handful of servers on two adjacent
// Xpander racks are active. ECMP is confined to the single direct link and
// its average FCT blows up once that link saturates; VLB bounces traffic
// through random via points and keeps pace with the full-bandwidth
// fat-tree. (Fig 7(a) is the schematic this experiment illustrates.)
#include <cstdio>

#include "topo/xpander.hpp"
#include "util.hpp"
#include "workload/flow_size.hpp"

using namespace flexnets;

int main(int argc, char** argv) {
  bench::banner("Fig 7(b)",
                "two adjacent racks: ECMP's single path vs VLB's diversity");

  // --threads N > 1 runs each point on the parallel packet engine
  // (sim/pdes/) -- identical numbers, less wall clock. Absent means the
  // historical serial engine.
  const int flag = bench::packet_threads(argc, argv);
  const int threads = flag == 0 ? 1 : flag;
  if (threads > 1) std::printf("packet engine: pdes, %d threads\n", threads);

  const bool full = core::repro_full();
  auto topos = bench::section64_topologies(full);

  // Active servers: paper uses 10 servers on two adjacent racks (5 + 5).
  const int per_rack = full ? 5 : 3;
  const auto xe = topos.xpander.g.edge(0);  // two adjacent Xpander ToRs
  const auto xp_pairs =
      workload::two_rack_pairs(topos.xpander, xe.a, xe.b, per_rack);
  // Fat-tree: two racks in the same pod (edge switches 0 and 1).
  const auto ft_pairs =
      workload::two_rack_pairs(topos.fat_tree.topo, 0, 1, per_rack);
  const auto sizes = workload::pfabric_web_search();

  std::vector<bench::Scenario> scenarios{
      {"fat-tree", &topos.fat_tree.topo, routing::RoutingMode::kEcmp},
      {"xpander-ECMP", &topos.xpander, routing::RoutingMode::kEcmp},
      {"xpander-VLB", &topos.xpander, routing::RoutingMode::kVlb},
  };
  for (auto& s : scenarios) s.threads = threads;

  // Aggregate flow-starts per second over the active servers. The direct
  // 10G link saturates around lambda * meansize * 8 = 10G -> ~530/s.
  const std::vector<double> lambdas =
      full ? std::vector<double>{250, 500, 1000, 2000, 3000}
           : std::vector<double>{100, 250, 500, 750, 1000};

  std::vector<bench::SweepRow> rows;
  for (const double lam : lambdas) {
    bench::SweepRow row;
    row.x = lam;
    const int active = 2 * per_rack;
    for (const auto& s : scenarios) {
      const auto& pairs = s.topo == &topos.xpander ? *xp_pairs : *ft_pairs;
      row.results.push_back(bench::run_point(
          s, pairs, *sizes, lam / active, /*seed=*/7, full));
    }
    rows.push_back(std::move(row));
  }
  bench::print_three_panels("lambda_per_s", scenarios, rows);
  std::printf(
      "Expected shape (paper): once lambda saturates the direct link\n"
      "(~500/s here), xpander-ECMP average FCT explodes while xpander-VLB\n"
      "stays close to the full-bandwidth fat-tree.\n");
  return 0;
}

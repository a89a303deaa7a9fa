// Reproduces paper Fig 5(b): same comparison as Fig 5(a) but against the
// LongHop topology (paper: 512 ToRs, 10 network + 8 server ports).
// Default scale: 64 ToRs (dim 6 + 1 long hop). REPRO_FULL=1: 512 ToRs.
#include <cstdio>

#include "flow/dynamic_models.hpp"
#include "flow/fat_tree_model.hpp"
#include "topo/jellyfish.hpp"
#include "topo/long_hop.hpp"
#include "util.hpp"

using namespace flexnets;

int main(int argc, char** argv) {
  bench::banner("Fig 5(b)",
                "throughput proportionality / dynamic models vs LongHop and "
                "Jellyfish");
  const auto policy = bench::grid_policy(argc, argv, "fig5b");

  const bool full = core::repro_full();
  const int dim = full ? 9 : 6;
  const int servers = full ? 8 : 6;
  const auto lh = topo::long_hop(dim, 1, servers);
  const int net_ports = lh.g.degree(0);
  const auto jf =
      topo::jellyfish(lh.num_switches(), net_ports, servers, /*seed=*/1);
  const double delta = 1.5;

  std::printf("topology: %d ToRs, %d network + %d server ports each\n\n",
              lh.num_switches(), net_ports, servers);

  core::FluidSweepOptions opts;
  opts.eps = full ? 0.12 : 0.07;
  const auto sweeps = bench::fluid_series({&jf, &lh}, opts, policy);
  const auto& jf_series = sweeps[0];
  const auto& lh_series = sweeps[1];
  const double alpha = jf_series.back().value("throughput");

  const int ports = lh.num_switches() * net_ports;
  const double ft_alpha =
      std::min(1.0, static_cast<double>(ports) / (4.0 * lh.num_servers()));
  const int radix = net_ports + servers;
  const flow::FatTreeModel ft{radix - (radix % 2), ft_alpha};

  TextTable t({"fraction_x", "TP_ideal", "jellyfish", "longhop",
               "unrestricted_dyn_d1.5", "restricted_dyn_d1.5",
               "equalcost_fattree"});
  for (std::size_t i = 0; i < opts.fractions.size(); ++i) {
    const double x = opts.fractions[i];
    t.add_row({x, flow::tp_curve(alpha, x), jf_series[i].value("throughput"),
               lh_series[i].value("throughput"),
               flow::unrestricted_dynamic_throughput(net_ports, servers,
                                                     delta),
               flow::restricted_dynamic_throughput(
                   static_cast<int>(x * lh.num_switches()), net_ports,
                   servers, delta),
               ft.throughput(x)},
              3);
  }
  t.print();
  std::printf(
      "\nExpected shape (paper): broadly similar to Fig 5(a); Jellyfish\n"
      "stays at or above LongHop (LongHop is a structured non-optimal\n"
      "expander) and both dominate the dynamic models at small x.\n\n");
  bench::print_digest_line("fig5b/jellyfish", jf_series);
  bench::print_digest_line("fig5b/longhop", lh_series);
  return 0;
}

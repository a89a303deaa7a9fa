// Reproduces paper Fig 5(a): per-server throughput vs fraction of servers
// with traffic demand, comparing
//   - throughput proportionality (ideal, anchored at Jellyfish's x=1 value)
//   - Jellyfish (same equipment as the SlimFly)
//   - SlimFly
//   - unrestricted dynamic model (delta=1.5)
//   - restricted dynamic model (delta=1.5)
//   - equal-cost oversubscribed fat-tree (analytic model of section 2)
//
// Default scale: SlimFly q=5 (50 ToRs, 7 network + 6 server ports).
// REPRO_FULL=1: the paper's q=17 (578 ToRs, 25 network + 24 server ports).
#include <cstdio>

#include "flow/dynamic_models.hpp"
#include "flow/fat_tree_model.hpp"
#include "topo/jellyfish.hpp"
#include "topo/slim_fly.hpp"
#include "util.hpp"

using namespace flexnets;

int main(int argc, char** argv) {
  bench::banner("Fig 5(a)",
                "throughput proportionality / dynamic models vs SlimFly and "
                "Jellyfish");
  const auto policy = bench::grid_policy(argc, argv, "fig5a");

  const bool full = core::repro_full();
  const int q = full ? 13 : 5;  // q=17 (paper) is feasible but hours-long on one core
  const auto sf = topo::slim_fly(q, full ? 24 : 6);
  const int net_ports = sf.network_degree();
  const int srv_ports = sf.topo.servers_per_switch[0];
  const auto jf = topo::jellyfish(sf.topo.num_switches(), net_ports,
                                  srv_ports, /*seed=*/1);
  const double delta = 1.5;

  std::printf("topology: %d ToRs, %d network + %d server ports each\n\n",
              sf.topo.num_switches(), net_ports, srv_ports);

  core::FluidSweepOptions opts;
  opts.eps = full ? 0.12 : 0.07;
  const auto sweeps = bench::fluid_series({&jf, &sf.topo}, opts, policy);
  const auto& jf_series = sweeps[0];
  const auto& sf_series = sweeps[1];
  const double alpha = jf_series.back().value("throughput");  // x = 1.0 anchor

  // Equal-cost fat-tree (analytic): same port budget supporting the same
  // servers; a full-bandwidth fat-tree spends 4 network ports per server.
  const int ports = sf.topo.num_switches() * net_ports;
  const int servers = sf.topo.num_servers();
  const double ft_alpha =
      std::min(1.0, static_cast<double>(ports) / (4.0 * servers));
  const int radix = net_ports + srv_ports;
  const flow::FatTreeModel ft{radix - (radix % 2), ft_alpha};

  TextTable t({"fraction_x", "TP_ideal", "jellyfish", "slimfly",
               "unrestricted_dyn_d1.5", "restricted_dyn_d1.5",
               "equalcost_fattree"});
  const int num_tors = sf.topo.num_switches();
  for (std::size_t i = 0; i < opts.fractions.size(); ++i) {
    const double x = opts.fractions[i];
    t.add_row({x, flow::tp_curve(alpha, x), jf_series[i].value("throughput"),
               sf_series[i].value("throughput"),
               flow::unrestricted_dynamic_throughput(net_ports, srv_ports,
                                                     delta),
               flow::restricted_dynamic_throughput(
                   static_cast<int>(x * num_tors), net_ports, srv_ports,
                   delta),
               ft.throughput(x)},
              3);
  }
  t.print();
  std::printf(
      "\nExpected shape (paper): Jellyfish/SlimFly rise toward 1.0 as x\n"
      "shrinks, tracking TP; the restricted dynamic model stays poor; the\n"
      "unrestricted model is flat at min(1, (r/delta)/s); the fat-tree is\n"
      "flat and lowest. The shaded regime of interest is small x.\n\n");
  bench::print_digest_line("fig5a/jellyfish", jf_series);
  bench::print_digest_line("fig5a/slimfly", sf_series);
  return 0;
}

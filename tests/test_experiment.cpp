// The core experiment runners: window semantics, arrival-rate accounting,
// hard-stop behavior, and fluid-sweep plumbing.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiment.hpp"
#include "core/fluid_runner.hpp"
#include "fluid_grid.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"
#include "workload/flow_size.hpp"

namespace flexnets::core {
namespace {

using test_util::plain_sweep;

PacketSimOptions small_options() {
  PacketSimOptions opts;
  opts.arrival_rate = 3000.0;
  opts.window_begin = 2 * kMillisecond;
  opts.window_end = 10 * kMillisecond;
  opts.arrival_tail = 2 * kMillisecond;
  return opts;
}

TEST(PacketRunner, FlowCountMatchesRateTimesHorizon) {
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto pairs = workload::all_to_all_pairs(x.topo, x.topo.tors());
  const auto sizes = workload::pareto_hull();
  auto opts = small_options();
  const auto r = run_packet_experiment(x.topo, *pairs, *sizes, opts);
  // rate * (window_end + tail) = 3000/s * 12ms = 36 flows.
  EXPECT_EQ(r.flows_total, 36u);
  EXPECT_LE(r.fct.measured_flows, 36);
}

TEST(PacketRunner, HardStopReportsIncompleteFlows) {
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto pairs = workload::all_to_all_pairs(x.topo, x.topo.tors());
  const auto sizes = workload::pfabric_web_search();
  auto opts = small_options();
  opts.hard_stop = 3 * kMillisecond;  // cut the run short
  const auto r = run_packet_experiment(x.topo, *pairs, *sizes, opts);
  // With a heavy-tailed distribution, some in-window flow is still running
  // at 3ms with overwhelming probability.
  EXPECT_GT(r.fct.incomplete_flows, 0);
}

TEST(PacketRunner, ZeroWindowMeasuresNothing) {
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto pairs = workload::all_to_all_pairs(x.topo, x.topo.tors());
  const auto sizes = workload::pareto_hull();
  auto opts = small_options();
  opts.window_begin = opts.window_end = 5 * kMillisecond;
  const auto r = run_packet_experiment(x.topo, *pairs, *sizes, opts);
  EXPECT_EQ(r.fct.measured_flows, 0);
}

TEST(FluidRunner, SweepCoversRequestedFractions) {
  const auto jf = topo::jellyfish(16, 4, 2, 1);
  FluidSweepOptions opts;
  opts.fractions = {0.25, 0.75};
  opts.eps = 0.1;
  const auto pts = plain_sweep(jf, opts);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(pts[1].fraction, 0.75);
  // Smaller active fractions never do worse (solver slack aside).
  EXPECT_GE(pts[0].throughput + 0.1, pts[1].throughput);
}

TEST(FluidRunner, FamiliesProduceDifferentLoads) {
  const auto jf = topo::jellyfish(16, 4, 3, 1);
  FluidSweepOptions lm;
  lm.fractions = {1.0};
  lm.eps = 0.07;
  lm.family = TmFamily::kLongestMatching;
  FluidSweepOptions a2a = lm;
  a2a.family = TmFamily::kAllToAll;
  // All-to-all spreads demand and is easier than matchings (paper cites
  // this empirical ordering from Jyothi et al.).
  EXPECT_GE(plain_sweep(jf, a2a)[0].throughput + 0.05,
            plain_sweep(jf, lm)[0].throughput);
}

TEST(ReproFull, ReadsEnvironment) {
  // Never set in the test environment unless exported by the user.
  const char* prev = std::getenv("REPRO_FULL");
  if (prev == nullptr) {
    EXPECT_FALSE(repro_full());
    setenv("REPRO_FULL", "1", 1);
    EXPECT_TRUE(repro_full());
    setenv("REPRO_FULL", "0", 1);
    EXPECT_FALSE(repro_full());
    unsetenv("REPRO_FULL");
  } else {
    SUCCEED() << "REPRO_FULL preset; skipping env manipulation";
  }
}

}  // namespace
}  // namespace flexnets::core

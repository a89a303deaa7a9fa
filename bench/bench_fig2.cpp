// Reproduces paper Fig 2: the throughput-proportionality ideal versus the
// oversubscribed fat-tree's flat-then-proportional curve (section 2).
//
// This bench also carries the CI resilience gate (tools/ci.sh): with
// --journal it appends each grid point durably, with --resume it skips
// journaled points, and --point-sleep-ms widens the window a SIGKILL can
// land in. The "digest fig2: ..." line must be bit-identical between an
// uninterrupted run and a killed-then-resumed one.
#include <cstdio>

#include "flow/fat_tree_model.hpp"
#include "flow/throughput.hpp"
#include "perf_json.hpp"
#include "util.hpp"

using namespace flexnets;

int main(int argc, char** argv) {
  bench::banner("Fig 2",
                "throughput proportionality vs fat-tree inflexibility");
  const auto policy = bench::grid_policy(argc, argv, "fig2");
  std::string json_path;
  const bool json = bench::parse_json_flag(argc, argv, "BENCH_FIG2.json",
                                           &json_path);

  // Section 2.1's running example: a k=64 fat-tree oversubscribed to 50%.
  const flow::FatTreeModel ft{64, 0.5};
  const double alpha = ft.alpha;
  std::printf("fat-tree k=%d, alpha=%.2f -> beta = 2/k = %.4f; a pair of\n",
              ft.k, alpha, ft.beta());
  std::printf(
      "pods holding only %.1f%% of servers is stuck at %.0f%% throughput.\n\n",
      100.0 * ft.beta(), 100.0 * alpha);

  std::vector<double> xs;
  for (double x = 0.01; x <= 1.0 + 1e-9; x += (x < 0.1 ? 0.01 : 0.05)) {
    xs.push_back(x);
  }
  const auto records = bench::grid_records(
      policy, sweep::run_grid(xs.size(), policy, [&](std::size_t i) {
        core::JournalRecord rec;
        rec.values = {{"throughput_proportional", flow::tp_curve(alpha, xs[i])},
                      {"fat_tree", ft.throughput(xs[i])}};
        return rec;
      }));

  TextTable t({"fraction_x", "throughput_proportional", "fat_tree"});
  for (std::size_t i = 0; i < xs.size(); ++i) {
    t.add_row({xs[i], records[i].value("throughput_proportional"),
               records[i].value("fat_tree")},
              4);
  }
  t.print();
  std::printf(
      "\nShape check: TP reaches line rate at x = alpha = %.2f; the fat-tree\n"
      "stays at alpha until x = beta and reaches line rate only at x = "
      "alpha*beta = %.4f.\n\n",
      alpha, alpha * ft.beta());
  bench::print_digest_line("fig2", records);

  if (json) {
    std::vector<bench::PerfCase> cases;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      bench::PerfCase c;
      c.name = "fig2_x" + std::to_string(i);
      c.add("fraction_x", xs[i]);
      c.add("throughput_proportional",
            records[i].value("throughput_proportional"));
      c.add("fat_tree", records[i].value("fat_tree"));
      cases.push_back(std::move(c));
    }
    if (!bench::write_perf_json(json_path, "fig2", cases)) return 1;
  }
  return 0;
}

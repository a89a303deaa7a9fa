// Custom gtest main: the sweep e2e tests spawn THIS binary as their
// worker subprocesses, so --sweep-worker=<grid> must short-circuit gtest
// and serve that grid's leases over fds 3/4 (sweep/wire.hpp) through
// sweep::run_grid's worker path. Checked before InitGoogleTest so gtest
// never sees (and rejects) the flag.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "poisoned_grid.hpp"
#include "sweep/grid.hpp"
#include "test_grid.hpp"

int main(int argc, char** argv) {
  using namespace flexnets::sweep;
  GridPolicy policy;
  policy.args.assign(argv + 1, argv + argc);
  const std::string grid = worker_grid(policy.args);
  if (!grid.empty()) {
    flexnets::StatusOr<GridResult> served = flexnets::invalid_input_error(
        "no test grid named ", grid);
    if (grid == testgrid::kPrefix) {
      policy.key_prefix = testgrid::kPrefix;
      served = run_grid(testgrid::kPoints, policy, testgrid::point);
    } else if (grid == poisoned::kPrefix) {
      policy.key_prefix = poisoned::kPrefix;
      served = run_grid(poisoned::kPoints, policy, poisoned::point);
    }
    return served.ok() && served->worker_exit ? *served->worker_exit : 2;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

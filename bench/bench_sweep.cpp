// Grid-runner overhead benchmark: points/second through sweep::run_grid
// in process on one thread (inprocess1) and sharded across 4 worker
// subprocesses (workers4), plus the cost of the retry machinery when
// workers are crash-injected mid-grid (workers4_crash3, on
// sweep::run_sharded for its 1 ms retry backoff, so the ratio measures
// respawn and recompute rather than sleep). Writes BENCH_SWEEP.json
// (--json, tools/ci.sh perf smoke) so the orchestration overhead
// trajectory is recorded in git alongside BENCH_MCF/BENCH_SIM; the root
// host_cores says how many cores the workers4 case had to spread over.
//
// The grid is synthetic — a fixed hash spin per point — so the numbers
// isolate orchestration cost (spawn, leases, pipes, journal merge) from
// solver cost, and the whole bench stays under a couple of seconds.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/journal.hpp"
#include "perf_json.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/grid.hpp"
#include "util.hpp"

namespace {

using namespace flexnets;

constexpr std::size_t kPoints = 96;
constexpr const char kPrefix[] = "bsw";

// ~1e5 dependent hashes per point: enough work that points/sec is not
// pure pipe latency, small enough that the bench finishes in seconds.
core::JournalRecord point(std::size_t i) {
  std::uint64_t acc = hash_words(99, i);
  for (std::uint64_t k = 0; k < 100000; ++k) acc = hash_words(acc, k);
  core::JournalRecord rec;
  rec.values = {{"acc", static_cast<double>(acc % 1000000)},
                {"i", static_cast<double>(i)}};
  return rec;
}

struct RunSample {
  double ns = 0;
  sweep::GridResult result;
};

RunSample timed(int workers,
                const std::function<StatusOr<sweep::GridResult>()>& run) {
  RunSample s;
  const double begin = bench::monotonic_ns();
  auto r = run();
  s.ns = bench::monotonic_ns() - begin;
  if (!r.ok()) {
    std::fprintf(stderr, "bench_sweep: grid (workers=%d): %s\n", workers,
                 r.status().to_string().c_str());
    std::exit(1);
  }
  s.result = std::move(*r);
  return s;
}

RunSample run_once(sweep::GridPolicy policy, int workers) {
  policy.threads = 1;
  policy.workers = workers;
  return timed(workers,
               [&] { return sweep::run_grid(kPoints, policy, point); });
}

// The sharded run run_grid would make, but with a 1 ms retry backoff.
RunSample run_fast_retry(const sweep::GridPolicy& policy, int workers) {
  sweep::ShardedOptions opts;
  opts.exec_path = "/proc/self/exe";
  opts.args = sweep::worker_args(policy.args, kPrefix);
  opts.workers = workers;
  opts.key_prefix = kPrefix;
  opts.backoff_base_ms = 1;
  return timed(workers, [&] { return sweep::run_sharded(kPoints, opts); });
}

bench::PerfCase make_case(const std::string& name, const RunSample& s) {
  bench::PerfCase c;
  c.name = name;
  c.add("ns_per_op", s.ns / static_cast<double>(kPoints));
  c.add("points_per_sec", static_cast<double>(kPoints) / (s.ns * 1e-9));
  c.add("retries", static_cast<double>(s.result.retries));
  c.add("worker_deaths", static_cast<double>(s.result.worker_deaths));
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const auto policy = bench::grid_policy(argc, argv, kPrefix);
  const auto w1 = run_once(policy, 1);  // a worker process serves and exits
  if (w1.result.worker_exit) return *w1.result.worker_exit;
  const auto w4 = run_once(policy, 4);
  // Retry overhead: crash three workers mid-grid (first attempt only) and
  // compare against the clean 4-worker run. Captures respawn + backoff +
  // recompute cost, not solver cost.
  setenv("FLEXNETS_CRASH_AT", "5,17,41", 1);
  const auto w4c = run_fast_retry(policy, 4);
  unsetenv("FLEXNETS_CRASH_AT");

  // Guard the headline contract while we are here: every execution
  // history must merge to the identical record list.
  auto strip = [](std::vector<core::JournalRecord> v) {
    for (auto& r : v) r.attempt = 0;
    return v;
  };
  if (strip(w4.result.records) != strip(w1.result.records) ||
      strip(w4c.result.records) != strip(w1.result.records)) {
    std::fprintf(stderr, "bench_sweep: sharded records diverged\n");
    return 1;
  }
  if (w4c.result.retries < 3 || w4c.result.worker_deaths < 3) {
    std::fprintf(stderr,
                 "bench_sweep: crash injection did not fire (retries=%zu, "
                 "deaths=%zu)\n",
                 w4c.result.retries, w4c.result.worker_deaths);
    return 1;
  }

  std::vector<bench::PerfCase> cases;
  cases.push_back(make_case("sweep_inprocess1", w1));
  cases.push_back(make_case("sweep_workers4", w4));
  auto crash = make_case("sweep_workers4_crash3", w4c);
  crash.add("retry_overhead_ratio", w4c.ns / w4.ns);
  cases.push_back(crash);

  for (const auto& c : cases) {
    std::printf("%-24s", c.name.c_str());
    for (const auto& [k, v] : c.metrics) std::printf("  %s=%.1f", k.c_str(), v);
    std::printf("\n");
  }

  std::string json_path;
  if (bench::parse_json_flag(argc, argv, "BENCH_SWEEP.json", &json_path)) {
    if (!bench::write_perf_json(json_path, "sweep_orchestrator", cases)) {
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

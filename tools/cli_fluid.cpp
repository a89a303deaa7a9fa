#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli_commands.hpp"
#include "core/fluid_runner.hpp"
#include "sweep/grid.hpp"

namespace flexnets::cli {

int cmd_fluid(const Args& args) {
  const auto t = build_topology(args);
  if (!t) return 1;

  core::FluidSweepOptions opts;
  opts.eps = args.get_double("eps", 0.07);
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (opts.eps <= 0.0 || opts.eps > 0.5) {
    std::fprintf(stderr, "error: --eps must be in (0, 0.5]\n");
    return 1;
  }

  if (args.has("fractions")) {
    opts.fractions.clear();
    std::istringstream in(args.get("fractions", ""));
    std::string tok;
    while (std::getline(in, tok, ',')) {
      const double x = std::strtod(tok.c_str(), nullptr);
      if (x <= 0.0 || x > 1.0) {
        std::fprintf(stderr, "error: fraction '%s' not in (0, 1]\n",
                     tok.c_str());
        return 1;
      }
      opts.fractions.push_back(x);
    }
    if (opts.fractions.empty()) {
      std::fprintf(stderr, "error: --fractions is empty\n");
      return 1;
    }
  } else {
    opts.fractions = {0.2, 0.4, 0.6, 0.8, 1.0};
  }

  // Cooperative GK budget: stop after N completed phases, keeping the
  // feasible partial lambda (status column shows budget-exhausted).
  opts.limits.max_phases = static_cast<int>(args.get_int("max-phases", 0));
  if (opts.limits.max_phases < 0) {
    std::fprintf(stderr, "error: --max-phases must be >= 0\n");
    return 1;
  }

  const auto tm = args.get("tm", "longest-matching");
  if (tm == "longest-matching") {
    opts.family = core::TmFamily::kLongestMatching;
  } else if (tm == "permutation") {
    opts.family = core::TmFamily::kRandomPermutation;
  } else if (tm == "a2a") {
    opts.family = core::TmFamily::kAllToAll;
  } else {
    std::fprintf(stderr, "error: unknown --tm '%s'\n", tm.c_str());
    return 1;
  }

  // The grid policy (src/sweep/grid.hpp). --threads: in-process workers,
  // 0 = auto (FLEXNETS_THREADS env, else hardware concurrency); same-seed
  // results are bit-identical for every value. --workers N shards the
  // sweep across N worker subprocesses; --sweep-worker=fluid (internal) is
  // this binary re-exec'ed as one of them. --journal <path> appends each
  // finished point durably; --resume <path> skips the points journaled
  // there and keeps appending to it.
  sweep::GridPolicy policy;
  policy.key_prefix = "fluid";
  policy.threads = static_cast<int>(args.get_int("threads", 0));
  policy.workers = static_cast<int>(args.get_int("workers", 0));
  policy.max_attempts = static_cast<int>(args.get_int("max-attempts", 3));
  if (policy.threads < 0 || policy.workers < 0 || policy.max_attempts < 1) {
    std::fprintf(stderr,
                 "error: --threads and --workers want >= 0, --max-attempts "
                 ">= 1\n");
    return 1;
  }
  policy.args.push_back("fluid");
  for (const auto& [k, v] : args.items()) {
    policy.args.push_back(v.empty() ? "--" + k : "--" + k + "=" + v);
  }
  (void)args.get("sweep-worker", "");  // consumed by run_grid via args
  const auto resume_path = args.get("resume", "");
  std::vector<std::string> resume_paths;
  if (!resume_path.empty()) resume_paths.push_back(resume_path);
  const auto st =
      sweep::open_journal(args.get("journal", ""), resume_paths, &policy);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  if (!resume_path.empty()) {
    std::printf("resume: %zu journaled points in %s\n",
                policy.completed.size(), resume_path.c_str());
  }

  auto result = sweep::run_fluid_grid({&*t}, opts, policy);
  if (!result.ok()) {
    std::fprintf(stderr, "error: fluid sweep failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  if (result->worker_exit) return *result->worker_exit;
  if (policy.workers > 1) {
    std::printf("%s\n", sweep::shard_summary(policy, *result).c_str());
  }

  std::printf("topology: %s | TM: %s | eps: %.3f\n", t->name.c_str(),
              tm.c_str(), opts.eps);
  std::printf("%-12s %-22s %s\n", "fraction", "per_server_throughput",
              "status");
  std::vector<core::FluidPoint> points;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < result->records.size(); ++i) {
    const auto r = core::from_journal_record(result->records[i]);
    points.push_back({opts.fractions[i], r.point.throughput});
    std::printf("%-12.3f %-22.4f %s\n", points.back().fraction,
                points.back().throughput,
                r.status.ok() ? "ok" : r.status.to_string().c_str());
    if (!r.status.ok() &&
        r.status.code() != StatusCode::kBudgetExhausted) {
      ++failed;
    }
  }
  std::printf("digest fluid: %016llx (%zu points, %zu failed)\n",
              static_cast<unsigned long long>(core::fluid_sweep_digest(points)),
              points.size(), failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace flexnets::cli

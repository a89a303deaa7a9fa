#include "sweep/grid.hpp"

#include <cstdio>
#include <exception>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "flow/throughput.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/worker.hpp"

namespace flexnets::sweep {

namespace {

constexpr char kWorkerFlag[] = "--sweep-worker=";

std::string key_of(const std::string& key_prefix, std::size_t index) {
  return key_prefix + "/" + std::to_string(index);
}

// Runs fn(0..n-1) on `threads` workers. A grid started from inside a pool
// task reuses that pool (parallel_for_indexed's helping waiters keep the
// sharing deadlock-free) rather than oversubscribing the cores.
void for_each_index(std::size_t n, int threads,
                    const std::function<void(std::size_t)>& fn) {
  if (ThreadPool* outer = ThreadPool::current()) {
    parallel_for_indexed(*outer, n, fn);
    return;
  }
  const int resolved = resolve_threads(threads);
  if (resolved <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(resolved);
  parallel_for_indexed(pool, n, fn);
}

StatusOr<GridResult> run_in_process(std::size_t n, const GridPolicy& policy,
                                    const PointFn& fn) {
  GridResult result;
  result.records.resize(n);
  std::vector<char> restored(n, 0);
  std::vector<Status> journaled(n);
  {
    // Checks must throw (not abort) to be containable. The policy is
    // process-wide, so it is set once here rather than per point.
    const CheckPolicyScope policy_scope(CheckPolicy::kThrow);
    for_each_index(n, policy.threads, [&](std::size_t i) {
      const auto it = policy.completed.find(key_of(policy.key_prefix, i));
      if (it != policy.completed.end()) {
        result.records[i] = it->second;
        restored[i] = 1;
        return;
      }
      result.records[i] = contain_point(fn, policy.key_prefix, i);
      if (policy.journal != nullptr) {
        journaled[i] = policy.journal->append(result.records[i]);
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!journaled[i].ok()) return journaled[i];
    (restored[i] != 0 ? result.restored : result.computed) += 1;
  }
  return result;
}

}  // namespace

core::JournalRecord contain_point(const PointFn& fn,
                                  const std::string& key_prefix,
                                  std::size_t index) {
  core::JournalRecord rec;
  try {
    rec = fn(index);
  } catch (const StatusError& e) {
    rec.code = e.status().code();
    rec.message = e.status().message();
  } catch (const CheckFailure& e) {
    rec.code = StatusCode::kInternal;
    rec.message = std::string("check failed: ") + e.what();
  } catch (const std::exception& e) {
    rec.code = StatusCode::kInternal;
    rec.message = e.what();
  }
  // Anything not derived from std::exception stays fatal: the process
  // state is then unknowable and containment would lie. A sharded
  // coordinator sees the worker die and retries the point elsewhere.
  rec.key = key_of(key_prefix, index);
  return rec;
}

StatusOr<GridResult> run_grid(std::size_t n, const GridPolicy& policy,
                              const PointFn& fn) {
  const PointFn point = [&](std::size_t i) {
    if (policy.point_hook) policy.point_hook(i);
    return fn(i);
  };
  const std::string serving = worker_grid(policy.args);
  if (!serving.empty()) {
    if (serving != policy.key_prefix) {
      return invalid_input_error("no grid '", serving,
                                 "' to serve as a sweep worker (this grid is '",
                                 policy.key_prefix, "')");
    }
    WorkerOptions wopts;
    wopts.fn = point;
    wopts.num_points = n;
    wopts.key_prefix = policy.key_prefix;
    GridResult served;
    served.worker_exit = run_worker(wopts);
    return served;
  }
  if (policy.workers <= 1) return run_in_process(n, policy, point);

  ShardedOptions sopts;
  sopts.exec_path = "/proc/self/exe";
  sopts.args = worker_args(policy.args, policy.key_prefix);
  sopts.workers = policy.workers;
  sopts.max_attempts = policy.max_attempts;
  sopts.journal = policy.journal.get();
  sopts.completed = &policy.completed;
  sopts.key_prefix = policy.key_prefix;
  return run_sharded(n, sopts);
}

StatusOr<GridResult> run_fluid_grid(
    const std::vector<const topo::Topology*>& topos,
    const core::FluidSweepOptions& opts, const GridPolicy& policy) {
  // Each point copies its topology's base edge list and appends its own
  // hose nodes (audited under FLEXNETS_AUDIT), so sharing is read-only.
  std::vector<flow::ThroughputCache> caches;
  caches.reserve(topos.size());
  for (const auto* t : topos) caches.push_back(flow::build_throughput_cache(*t));
  const std::size_t f = opts.fractions.size();
  return run_grid(topos.size() * f, policy, [&](std::size_t i) {
    return core::to_journal_record(
        core::fluid_sweep_point(*topos[i / f], caches[i / f], opts, i % f));
  });
}

Status open_journal(const std::string& journal_path,
                    const std::vector<std::string>& resume_paths,
                    GridPolicy* policy) {
  if (!resume_paths.empty()) {
    const auto records = core::merge_journals(resume_paths);
    if (!records.ok()) {
      return Status(records.status().code(),
                    "cannot resume: " + records.status().message());
    }
    policy->completed = core::index_by_key(*records);
  }
  // Resuming continues the newest named file unless another was named.
  const std::string path =
      journal_path.empty() && !resume_paths.empty() ? resume_paths.back()
                                                    : journal_path;
  if (path.empty()) return {};
  auto journal = std::make_shared<core::Journal>();
  Status st = journal->open(path);
  if (!st.ok()) return st;
  policy->journal = std::move(journal);
  return {};
}

std::string worker_grid(const std::vector<std::string>& args) {
  for (const auto& a : args) {
    if (a.rfind(kWorkerFlag, 0) == 0) return a.substr(sizeof(kWorkerFlag) - 1);
  }
  return {};
}

std::vector<std::string> worker_args(const std::vector<std::string>& args,
                                     const std::string& key_prefix) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    bool coordinator_only = a.rfind(kWorkerFlag, 0) == 0;
    for (const char* flag : {"--workers", "--max-attempts", "--journal",
                             "--resume", "--json"}) {
      const std::string f = flag;
      if (a == f) {
        // The flag's value is coordinator-only too; --json's is optional.
        const bool has_value = i + 1 < args.size() &&
                               (f != "--json" || args[i + 1][0] != '-');
        if (has_value) ++i;
        coordinator_only = true;
      } else if (a.rfind(f + "=", 0) == 0) {
        coordinator_only = true;
      }
    }
    if (!coordinator_only) out.push_back(a);
  }
  out.push_back(kWorkerFlag + key_prefix);
  return out;
}

std::string shard_summary(const GridPolicy& policy, const GridResult& result) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sharded %s: %d workers | %zu computed, %zu restored, %zu "
                "retries, %zu quarantined, %zu worker deaths",
                policy.key_prefix.c_str(), policy.workers, result.computed,
                result.restored, result.retries, result.quarantined,
                result.worker_deaths);
  return buf;
}

}  // namespace flexnets::sweep

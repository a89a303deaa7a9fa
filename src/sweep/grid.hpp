// The one grid runner. Every sweep in the tree -- the fluid figure grids,
// the analytic and gray benches, `flexnets_cli fluid`, the examples --
// evaluates n independent points as index -> core::JournalRecord through
// run_grid, under one GridPolicy that says how:
//
//   * in process (workers <= 1): the points run on a thread pool of
//     `threads` workers, each under fault containment;
//   * sharded (workers > 1): the points are leased to worker
//     subprocesses (sweep::run_sharded), this same binary re-exec'ed with
//     --sweep-worker=<key_prefix>; a process started that way serves its
//     grid's leases instead of running the grid.
//
// Journaling and resume are the same on both paths: every finished point
// is appended durably to `journal`, and points whose key is in
// `completed` are restored instead of recomputed. The plain path is just
// the policy with no journal and an empty resume index.
//
// Determinism contract: fn(i) must depend only on i (sub-seeds derive
// from (seed, i), outputs land in i's record). Under it the records are
// bit-identical for any thread count, worker count, kill schedule, retry
// history or resume split (tests/parallel/, tests/sweep/).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/fluid_runner.hpp"
#include "core/journal.hpp"
#include "topo/topology.hpp"

namespace flexnets::sweep {

// Computes grid point i. The returned record's key is ignored: run_grid
// keys every record "<key_prefix>/<i>".
using PointFn = std::function<core::JournalRecord(std::size_t)>;

struct GridPolicy {
  // In-process worker threads (flexnets::resolve_threads: 0 = the
  // FLEXNETS_THREADS environment variable, else hardware_concurrency).
  // A grid started from inside another grid's point shares that pool.
  int threads = 0;
  // > 1: shard the grid across this many worker subprocesses.
  int workers = 0;
  // Sharded only: a point is quarantined after this many retryable
  // (kInternal) failures -- crashes, hangs, escaped checks -- each retried
  // on a fresh worker. In process a failure is final on the first try.
  int max_attempts = 3;
  // Durable journal every finished point is appended to (null: none).
  // Several grids may share one journal as long as their prefixes differ.
  std::shared_ptr<core::Journal> journal;
  // Resume index (core::index_by_key): points found here are restored
  // with their journaled bits, never recomputed or re-journaled.
  std::map<std::string, core::JournalRecord> completed;
  // Point i is keyed "<key_prefix>/<i>" in records and journals, and a
  // worker serves the grid whose prefix its --sweep-worker names.
  std::string key_prefix = "grid";
  // Runs at the start of every computed point, never for restored ones.
  // The benches hang --point-sleep-ms here (src/ may not read clocks) so
  // the CI kill tests can land a SIGKILL inside the grid.
  std::function<void(std::size_t)> point_hook;
  // This process's arguments (argv[1..]). Sharded workers re-exec this
  // binary with them, minus the coordinator-only flags (worker_args);
  // when they carry --sweep-worker=<key_prefix>, this process is such a
  // worker and run_grid serves leases.
  std::vector<std::string> args;
};

struct GridResult {
  // One record per point, index order. A failed point keeps a structured
  // non-ok code; a point whose computation escaped (exception, failed
  // FLEXNETS_CHECK) is kInternal with no values.
  std::vector<core::JournalRecord> records;
  std::size_t computed = 0;       // points computed by this run
  std::size_t restored = 0;       // points restored from `completed`
  std::size_t retries = 0;        // sharded: leases beyond a point's first
  std::size_t quarantined = 0;    // sharded: points out of attempts
  std::size_t worker_deaths = 0;  // sharded: crashes + hangs + kills
  // Set when this process is a sweep worker: it served its grid's leases
  // until shutdown, `records` is empty, and the caller should exit with
  // this code.
  std::optional<int> worker_exit;
};

// Runs the n-point grid under `policy`. Per-point failures are data (see
// GridResult::records); the Status is non-ok only when the run itself
// broke: a journal append failed (the resume guarantee is gone), the
// sharded orchestration could not make progress, or this process is a
// worker for a grid other than policy.key_prefix.
StatusOr<GridResult> run_grid(std::size_t n, const GridPolicy& policy,
                              const PointFn& fn);

// A fluid sweep (core::fluid_sweep_point) of opts.fractions over every
// topology in `topos`, run as one flat grid: point t * F + i is fraction
// i on topos[t], with the sub-seed of index i, so the records come back
// topology-major in runs of F = opts.fractions.size(). Each topology's
// throughput cache is built once and shared read-only by its points.
StatusOr<GridResult> run_fluid_grid(
    const std::vector<const topo::Topology*>& topos,
    const core::FluidSweepOptions& opts, const GridPolicy& policy);

// Runs fn(index) under containment: a StatusError becomes its Status, a
// CheckFailure or other std::exception a kInternal record; anything not
// derived from std::exception stays fatal. Checks only throw (rather
// than abort) under CheckPolicy::kThrow, which run_grid and the worker
// loop set around their points. The record is keyed "<key_prefix>/<i>".
core::JournalRecord contain_point(const PointFn& fn,
                                  const std::string& key_prefix,
                                  std::size_t index);

// Loads the resume journals into policy->completed (merged last path
// wins, core::merge_journals) and opens the journal at `journal_path`,
// or at the last resume path when it is empty, into policy->journal.
// (Sweep workers never see --journal or --resume -- worker_args strips
// them -- so only the coordinator writes the merged journal.)
// kInvalidInput when a resume file is corrupt or the journal cannot be
// opened.
Status open_journal(const std::string& journal_path,
                    const std::vector<std::string>& resume_paths,
                    GridPolicy* policy);

// The grid this process serves as a sweep worker (the value of
// --sweep-worker=<grid> in args), or empty.
std::string worker_grid(const std::vector<std::string>& args);

// A worker's argv[1..]: `args` without the coordinator-only flags
// (--workers, --max-attempts, --journal, --resume, --json, each with its
// value, and --sweep-worker), plus --sweep-worker=<key_prefix>.
std::vector<std::string> worker_args(const std::vector<std::string>& args,
                                     const std::string& key_prefix);

// "sharded <prefix>: N workers | C computed, R restored, ..." -- the
// line the benches and the CLI print after a sharded run.
std::string shard_summary(const GridPolicy& policy, const GridResult& result);

}  // namespace flexnets::sweep

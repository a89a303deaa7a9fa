// Coordinator half of the sharded sweep orchestrator: partitions an
// n-point grid into single-point leases, spawns worker subprocesses
// (sweep/process_supervisor.hpp), assigns leases over pipes
// (sweep/wire.hpp), and ingests per-point results into one merged
// journal.
//
// Robustness model (the reason this exists — see docs/ARCHITECTURE.md
// §10):
//   * heartbeats: a worker that holds a lease past heartbeat_deadline_ms
//     without delivering its result is declared hung, SIGKILLed, and its
//     point rescheduled;
//   * deaths: a worker that exits/crashes mid-lease fails that point with
//     kInternal, which is the one retryable code
//     (common/status.hpp:status_code_retryable) — the point reruns on a
//     FRESH worker with exponential backoff, up to max_attempts, then is
//     quarantined as a structured failure record;
//   * determinism: point i's result depends only on i, so any mix of
//     worker counts, kill schedules, and retries yields a merged record
//     list whose digest is bit-identical to the serial sweep's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/journal.hpp"
#include "sweep/grid.hpp"

namespace flexnets::sweep {

struct ShardedOptions {
  // Worker binary + argv[1..]. sweep::run_grid passes /proc/self/exe and
  // this process's arguments minus the coordinator-only flags, plus
  // --sweep-worker=<key_prefix> (sweep::worker_args).
  std::string exec_path;
  std::vector<std::string> args;

  int workers = 2;
  // A point is quarantined after this many retryable (kInternal)
  // failures: crashes, hangs, contained internal errors. Non-retryable
  // codes (kInvalidInput, kBudgetExhausted, ...) are final on the first
  // verdict.
  int max_attempts = 3;
  // The k-th retry of a point waits backoff_base_ms << (k-1) (capped at
  // 30 s) before re-leasing, so a crashy point cannot hot-loop workers.
  int backoff_base_ms = 50;
  // A leased point with no result for this long marks its worker hung
  // (SIGKILL + reschedule). Overridable via FLEXNETS_SWEEP_DEADLINE_MS
  // so tests and CI can compress hang detection to milliseconds.
  std::int64_t heartbeat_deadline_ms = 120000;

  // Chaos injection (tests, ci.sh chaos gate): every chaos_kill_every-th
  // lease granted, SIGKILL a pseudorandomly chosen (chaos_seed) live
  // worker WITHOUT reaping, so recovery exercises the organic
  // death-detection path. 0 disables.
  int chaos_kill_every = 0;
  std::uint64_t chaos_seed = 0;

  // Merged journal, written ONLY by the coordinator: one durable append
  // per finalized point (ok, non-retryable failure, or quarantine), with
  // `attempt` metadata when the point needed retries. Optional.
  core::Journal* journal = nullptr;
  // Resume index (key -> record) from previously merged journals; points
  // whose "<key_prefix>/<i>" key appears are restored, not recomputed.
  const std::map<std::string, core::JournalRecord>* completed = nullptr;
  std::string key_prefix;
};

// Runs the n-point grid to completion across worker subprocesses. The
// result holds one record per point in index order -- exactly what the
// in-process run would produce (quarantined points carry their
// structured failure) -- plus the retry and death counters. Called by
// sweep::run_grid for workers > 1; tests drive it directly for the chaos
// and backoff knobs the grid policy does not expose.
// kInternal only when orchestration itself cannot make progress (spawn
// failure loop, protocol breakdown on every worker) — per-point failures
// are DATA (structured records), not orchestration errors.
StatusOr<GridResult> run_sharded(std::size_t n, const ShardedOptions& opts);

}  // namespace flexnets::sweep

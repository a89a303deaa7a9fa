// Worker half of the sharded sweep protocol (sweep/wire.hpp). A worker
// process is a bench/CLI binary re-exec'ed with --sweep-worker=<grid>: it
// rebuilds the same grid as the coordinator, and its sweep::run_grid call
// enters run_worker, which serves leases until shutdown/EOF.
//
// Determinism contract: the point function must depend only on the point
// index (sub-seeds are hash_words(seed, index)), so ANY worker computing
// point i — first attempt or a retry on a fresh process — produces the
// identical JournalRecord, and the coordinator's merged journal
// reproduces the serial sweep digest bit for bit.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "core/journal.hpp"
#include "sweep/wire.hpp"

namespace flexnets::sweep {

struct WorkerOptions {
  // Computes point `i` and returns its record (code, values). It runs
  // under sweep::contain_point — an exception or failed check escaping it
  // becomes a structured record instead of killing the worker — so a
  // poisoned point reaches the coordinator as data, which then applies
  // the retry policy.
  std::function<core::JournalRecord(std::size_t)> fn;
  std::size_t num_points = 0;
  // Records are keyed "<key_prefix>/<i>".
  std::string key_prefix;
  int lease_fd = kWorkerLeaseFd;
  int result_fd = kWorkerResultFd;
};

// Protocol loop: emit `ready`, then for each lease frame emit `start`,
// compute the point (honoring FLEXNETS_CRASH_AT / FLEXNETS_HANG_AT /
// FLEXNETS_FAIL_AT fault injection), and emit `result`. Returns the
// process exit code: 0 on shutdown/EOF, 1 when the coordinator vanished
// mid-write, 2 on a protocol violation (after emitting an `error` frame).
// Never throws and never calls exit() — the caller owns process exit.
int run_worker(const WorkerOptions& opts);

}  // namespace flexnets::sweep

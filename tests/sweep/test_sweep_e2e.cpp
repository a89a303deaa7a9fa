// End-to-end sharded-sweep tests: this binary spawns ITSELF (main.cpp's
// --sweep-worker=swt mode) as real worker subprocesses and checks the
// headline contract — the merged record list is field-identical to the
// serial loop for every worker count, kill schedule, and retry history —
// plus the robustness paths: crash-injection retry, hang detection,
// quarantine, chaos kills, and journal resume. The worker-count and resume
// contracts run through sweep::run_grid; the robustness paths drive the
// coordinator (sweep::run_sharded) directly for its chaos and backoff
// knobs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/journal.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/grid.hpp"
#include "test_grid.hpp"

namespace flexnets::sweep {
namespace {

// Sets an env var for one test and restores emptiness after: injection
// env leaking across tests would fault every later spawn.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name_, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

ShardedOptions base_options() {
  ShardedOptions o;
  o.exec_path = "/proc/self/exe";
  o.args = {std::string("--sweep-worker=") + testgrid::kPrefix};
  o.key_prefix = testgrid::kPrefix;
  o.backoff_base_ms = 1;  // keep retry tests fast
  return o;
}

GridPolicy grid_policy(int workers) {
  GridPolicy p;
  p.key_prefix = testgrid::kPrefix;
  p.workers = workers;
  return p;
}

std::vector<core::JournalRecord> serial(std::size_t n) {
  std::vector<core::JournalRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(testgrid::point(i));
  return out;
}

// Attempt metadata is execution history, not data: strip it before
// comparing against the serial sweep (which never retries).
std::vector<core::JournalRecord> strip_attempts(
    std::vector<core::JournalRecord> v) {
  for (auto& r : v) r.attempt = 0;
  return v;
}

TEST(SweepE2E, DigestIdenticalAcrossWorkerCounts) {
  // workers = 1 runs in process; 2 and 4 shard across subprocesses.
  const std::size_t n = 12;
  const auto want = serial(n);
  for (const int workers : {1, 2, 4}) {
    const auto got = run_grid(n, grid_policy(workers), testgrid::point);
    ASSERT_TRUE(got.ok()) << "workers=" << workers << ": "
                          << got.status().to_string();
    EXPECT_EQ(strip_attempts(got->records), want) << "workers=" << workers;
    EXPECT_EQ(got->computed, n);
    EXPECT_EQ(got->restored, 0u);
    EXPECT_EQ(got->quarantined, 0u);
  }
}

TEST(SweepE2E, CrashedWorkersAreRescheduledAndDigestIsPreserved) {
  const ScopedEnv crash("FLEXNETS_CRASH_AT", "3,7");
  const std::size_t n = 12;
  auto opts = base_options();
  opts.workers = 4;
  const auto got = run_sharded(n, opts);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(strip_attempts(got->records), serial(n));
  EXPECT_GE(got->worker_deaths, 2u);
  EXPECT_GE(got->retries, 2u);
  EXPECT_EQ(got->quarantined, 0u);
  // The recovered points carry their retry history in the journal
  // metadata (injection fires only on attempt 1, so attempt 2 wins).
  EXPECT_EQ(got->records[3].attempt, 2);
  EXPECT_EQ(got->records[7].attempt, 2);
  EXPECT_EQ(got->records[0].attempt, 0);  // single-shot points stay bare
}

TEST(SweepE2E, HungWorkerIsDetectedKilledAndRescheduled) {
  const ScopedEnv hang("FLEXNETS_HANG_AT", "5");
  const ScopedEnv deadline("FLEXNETS_SWEEP_DEADLINE_MS", "300");
  const std::size_t n = 8;
  auto opts = base_options();
  opts.workers = 2;
  const auto got = run_sharded(n, opts);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(strip_attempts(got->records), serial(n));
  EXPECT_GE(got->worker_deaths, 1u);
  EXPECT_EQ(got->records[5].attempt, 2);
}

TEST(SweepE2E, DeterministicFailureIsQuarantinedAsStructuredData) {
  // FLEXNETS_FAIL_AT fires on EVERY attempt: the point can never
  // succeed, so after max_attempts it must surface as a structured
  // kInternal record — and the rest of the grid must be untouched.
  const ScopedEnv fail("FLEXNETS_FAIL_AT", "9");
  const std::size_t n = 12;
  auto opts = base_options();
  opts.workers = 2;
  opts.max_attempts = 2;
  const auto got = run_sharded(n, opts);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ASSERT_EQ(got->records.size(), n);
  EXPECT_EQ(got->quarantined, 1u);
  EXPECT_EQ(got->retries, 1u);
  const auto& q = got->records[9];
  EXPECT_EQ(q.key, std::string(testgrid::kPrefix) + "/9");
  EXPECT_EQ(q.code, StatusCode::kInternal);
  EXPECT_NE(q.message.find("FLEXNETS_FAIL_AT"), std::string::npos);
  EXPECT_EQ(q.attempt, 2);
  const auto want = serial(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 9) continue;
    auto r = got->records[i];
    r.attempt = 0;
    EXPECT_EQ(r, want[i]) << "point " << i;
  }
}

TEST(SweepE2E, NonRetryableRecordIsFinalWithoutRetry) {
  const ScopedEnv bad("FLEXNETS_TEST_INVALID_AT", "4");
  const std::size_t n = 8;
  auto opts = base_options();
  opts.workers = 2;
  const auto got = run_sharded(n, opts);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  // kInvalidInput is a verdict about the point, not about the worker:
  // recorded once, no retries burned, nothing quarantined.
  EXPECT_EQ(got->retries, 0u);
  EXPECT_EQ(got->quarantined, 0u);
  EXPECT_EQ(got->records[4].code, StatusCode::kInvalidInput);
  EXPECT_EQ(got->records[4].message, "synthetic bad point");
  EXPECT_EQ(got->records[4].attempt, 0);
}

TEST(SweepE2E, ChaosKillScheduleCannotChangeTheMergedRecords) {
  const std::size_t n = 16;
  for (const std::uint64_t seed : {1ull, 42ull}) {
    auto opts = base_options();
    opts.workers = 3;
    opts.chaos_kill_every = 3;  // SIGKILL a random worker every 3rd lease
    opts.chaos_seed = seed;
    opts.max_attempts = 20;     // chaos must never exhaust a point
    const auto got = run_sharded(n, opts);
    ASSERT_TRUE(got.ok()) << "seed=" << seed << ": "
                          << got.status().to_string();
    EXPECT_EQ(strip_attempts(got->records), serial(n)) << "seed=" << seed;
    EXPECT_GT(got->worker_deaths, 0u) << "seed=" << seed;
    EXPECT_EQ(got->quarantined, 0u) << "seed=" << seed;
  }
}

TEST(SweepE2E, ResumeRestoresJournaledPointsAndRecomputesTheRest) {
  const std::size_t n = 10;
  const std::string path =
      ::testing::TempDir() + "/sweep_e2e_resume.jsonl";
  std::remove(path.c_str());

  auto policy = grid_policy(2);
  ASSERT_TRUE(open_journal(path, {}, &policy).ok());
  const auto first = run_grid(n, policy, testgrid::point);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  policy.journal->close();

  // Second run resumes from the merged journal: everything restores,
  // nothing recomputes, and the records still match the serial loop.
  const auto loaded = core::load_journal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->size(), n);
  auto policy2 = grid_policy(2);
  policy2.completed = core::index_by_key(*loaded);
  const auto second = run_grid(n, policy2, testgrid::point);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second->restored, n);
  EXPECT_EQ(second->computed, 0u);
  EXPECT_EQ(strip_attempts(second->records), serial(n));

  // Partial resume: drop half the records — exactly the missing half is
  // recomputed and the merge is again serial-identical.
  auto policy3 = grid_policy(2);
  for (std::size_t i = 0; i < n; i += 2) {
    policy3.completed.emplace(testgrid::point(i).key, testgrid::point(i));
  }
  const auto third = run_grid(n, policy3, testgrid::point);
  ASSERT_TRUE(third.ok()) << third.status().to_string();
  EXPECT_EQ(third->restored, n / 2);
  EXPECT_EQ(third->computed, n - n / 2);
  EXPECT_EQ(strip_attempts(third->records), serial(n));
  std::remove(path.c_str());
}

TEST(SweepE2E, ZeroPointsCompletesImmediately) {
  const auto got = run_grid(0, grid_policy(2), testgrid::point);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_TRUE(got->records.empty());
  EXPECT_EQ(got->worker_deaths, 0u);
}

}  // namespace
}  // namespace flexnets::sweep

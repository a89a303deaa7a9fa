// Executor equivalence of the one grid runner: the same poisoned fluid
// grid (poisoned_grid.hpp) run in process at threads {1, 2, 8} and
// sharded across 2 worker subprocesses must yield identical values and an
// identical code for every point, and a journaled run that is killed and
// resumed must equal the run without a journal bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "poisoned_grid.hpp"
#include "sweep/grid.hpp"

namespace flexnets::sweep {
namespace {

GridPolicy base_policy() {
  GridPolicy policy;
  policy.key_prefix = poisoned::kPrefix;
  return policy;
}

std::vector<core::JournalRecord> run(const GridPolicy& policy) {
  auto result = run_grid(poisoned::kPoints, policy, poisoned::point);
  if (!result.ok()) {
    ADD_FAILURE() << "run_grid: " << result.status().to_string();
    return {};
  }
  EXPECT_FALSE(result->worker_exit.has_value());
  return std::move(result->records);
}

// Attempt metadata is execution history, not data.
std::vector<core::JournalRecord> strip_attempts(
    std::vector<core::JournalRecord> v) {
  for (auto& r : v) r.attempt = 0;
  return v;
}

void expect_same_values_and_codes(const std::vector<core::JournalRecord>& want,
                                  const std::vector<core::JournalRecord>& got,
                                  const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << what << " point " << i;
    EXPECT_EQ(got[i].code, want[i].code) << what << " point " << i;
    EXPECT_EQ(got[i].values, want[i].values) << what << " point " << i;
  }
}

// Keeps the first `keep` lines of a journal, plus half of the next one as
// a torn final append: the file a SIGKILL mid-grid leaves behind.
void simulate_kill(const std::string& path, std::size_t keep) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), keep);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < keep; ++i) out << lines[i] << "\n";
  out << lines[keep].substr(0, lines[keep].size() / 2);
}

TEST(GridEquivalence, InProcessAndShardedExecutorsAgreePointForPoint) {
  auto policy = base_policy();
  policy.threads = 1;
  const auto serial = run(policy);
  ASSERT_EQ(serial.size(), poisoned::kPoints);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].key, "eqv/" + std::to_string(i));
    if (i == poisoned::kInvalidAt) {
      EXPECT_EQ(serial[i].code, StatusCode::kInvalidInput);
      EXPECT_NE(serial[i].message.find("truncated.topo"), std::string::npos);
    } else if (i == poisoned::kCheckAt) {
      EXPECT_EQ(serial[i].code, StatusCode::kInternal);
      EXPECT_NE(serial[i].message.find("poisoned invariant"),
                std::string::npos);
    } else {
      EXPECT_TRUE(serial[i].ok()) << i << ": " << serial[i].message;
      EXPECT_GT(serial[i].value("throughput"), 0.0) << i;
    }
  }

  for (const int threads : {2, 8}) {
    policy.threads = threads;
    EXPECT_EQ(run(policy), serial) << "threads=" << threads;
  }

  // Sharded: the escaped check is retryable, so it reaches its kInternal
  // only through quarantine after max_attempts fresh workers; the invalid
  // point is final on its first attempt.
  auto sharded_policy = base_policy();
  sharded_policy.workers = 2;
  auto sharded = run_grid(poisoned::kPoints, sharded_policy, poisoned::point);
  ASSERT_TRUE(sharded.ok()) << sharded.status().to_string();
  expect_same_values_and_codes(serial, sharded->records, "workers=2");
  EXPECT_EQ(sharded->quarantined, 1u);
  EXPECT_EQ(sharded->records[poisoned::kCheckAt].attempt,
            sharded_policy.max_attempts);
  EXPECT_EQ(sharded->records[poisoned::kInvalidAt].attempt, 0);
  EXPECT_EQ(strip_attempts(sharded->records), serial);
}

TEST(GridEquivalence, JournaledThenResumedEqualsTheUnjournaledRun) {
  const auto plain = run(base_policy());
  for (const int workers : {0, 2}) {
    const std::string path = ::testing::TempDir() + "/grid_eqv_w" +
                             std::to_string(workers) + ".jsonl";
    std::remove(path.c_str());
    auto journaled = base_policy();
    journaled.workers = workers;
    ASSERT_TRUE(open_journal(path, {}, &journaled).ok());
    EXPECT_EQ(strip_attempts(run(journaled)), plain) << "workers=" << workers;
    journaled.journal->close();

    simulate_kill(path, 3);
    auto resumed = base_policy();
    resumed.workers = workers;
    ASSERT_TRUE(open_journal("", {path}, &resumed).ok());
    ASSERT_EQ(resumed.completed.size(), 3u);
    auto result = run_grid(poisoned::kPoints, resumed, poisoned::point);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->restored, 3u) << "workers=" << workers;
    EXPECT_EQ(result->computed, poisoned::kPoints - 3) << "workers=" << workers;
    EXPECT_EQ(strip_attempts(result->records), plain) << "workers=" << workers;
    resumed.journal->close();

    // The resumed journal now holds every point exactly once by key.
    const auto final_records = core::load_journal(path);
    ASSERT_TRUE(final_records.ok());
    EXPECT_EQ(final_records->size(), poisoned::kPoints);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace flexnets::sweep

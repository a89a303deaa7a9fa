// Resilient grid runs: per-point fault containment in sweep::run_grid,
// its durable journal integration, and the kill/resume digest contract —
// a journal truncated by a mid-run SIGKILL, resumed, must reproduce the
// uninterrupted sweep's digest bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "core/fluid_runner.hpp"
#include "core/journal.hpp"
#include "fluid_grid.hpp"
#include "sweep/grid.hpp"
#include "topo/fat_tree.hpp"
#include "topo/io.hpp"
#include "topo/xpander.hpp"

namespace flexnets::core {
namespace {

using test_util::fluid_grid;
using test_util::fluid_points;
using test_util::plain_sweep;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::shared_ptr<Journal> open_journal_at(const std::string& path) {
  auto journal = std::make_shared<Journal>();
  EXPECT_TRUE(journal->open(path).ok()) << path;
  return journal;
}

// ---------------------------------------------------------------------------
// Containment: every failure mode of a point lands in that point's record.

TEST(RunIndexedContained, CapturesEveryFailureModeAndRunsEveryIndex) {
  std::atomic<int> ran{0};
  sweep::GridPolicy policy;
  policy.threads = 2;
  const auto result = sweep::run_grid(5, policy, [&](std::size_t i) {
    ran.fetch_add(1, std::memory_order_relaxed);
    JournalRecord rec;
    switch (i) {
      case 1:
        rec.code = StatusCode::kInvalidInput;
        rec.message = "bad point 1";
        return rec;
      case 2:
        throw_status(partitioned_error("no route at point ", i));
      case 3:
        FLEXNETS_CHECK(false, "poisoned invariant at point ", i);
        return rec;
      case 4:
        throw std::runtime_error("stray exception");
      default:
        return rec;
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& records = result->records;

  EXPECT_EQ(ran.load(), 5);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_TRUE(records[0].ok());
  EXPECT_EQ(records[1].code, StatusCode::kInvalidInput);
  EXPECT_EQ(records[2].code, StatusCode::kPartitioned);
  EXPECT_NE(records[2].message.find("no route at point 2"),
            std::string::npos);
  EXPECT_EQ(records[3].code, StatusCode::kInternal);
  EXPECT_NE(records[3].message.find("poisoned invariant"), std::string::npos);
  EXPECT_EQ(records[4].code, StatusCode::kInternal);
  EXPECT_NE(records[4].message.find("stray exception"), std::string::npos);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].key, "grid/" + std::to_string(i));
  }
}

TEST(RunIndexedContained, IsDeterministicAcrossThreadCounts) {
  const auto run = [](int threads) {
    sweep::GridPolicy policy;
    policy.threads = threads;
    return sweep::run_grid(8, policy,
                           [](std::size_t i) {
                             if (i % 3 == 1) {
                               throw_status(invalid_input_error("point ", i));
                             }
                             return JournalRecord{};
                           })
        ->records;
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------
// Journaled fluid sweeps

FluidSweepOptions small_sweep() {
  FluidSweepOptions opts;
  opts.fractions = {0.25, 0.5, 0.75, 1.0};
  opts.seed = 7;
  return opts;
}

sweep::GridPolicy two_threads(const std::string& key_prefix = "sweep") {
  sweep::GridPolicy policy;
  policy.threads = 2;
  policy.key_prefix = key_prefix;
  return policy;
}

TEST(ResilientSweep, MatchesThePlainSweepWhenEveryPointSucceeds) {
  const auto ft = topo::fat_tree(4);
  const auto opts = small_sweep();

  const auto plain = plain_sweep(ft.topo, opts, 2);

  const std::string path = temp_path("matches_plain.jsonl");
  std::remove(path.c_str());
  auto policy = two_threads();
  policy.journal = open_journal_at(path);
  const auto records = fluid_grid(ft.topo, opts, policy);

  ASSERT_EQ(records.size(), plain.size());
  for (const auto& r : records) EXPECT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(fluid_sweep_digest(fluid_points(records)),
            fluid_sweep_digest(plain));
}

TEST(ResilientSweep, JournalRecordRoundTripsExactly) {
  FluidPointRecord rec;
  rec.point.fraction = 0.1;  // not exactly representable
  rec.point.throughput = 1.0 / 3.0;
  rec.status = budget_exhausted_error("stopped after 3 phases");

  auto j = to_journal_record(rec);
  j.key = "fig5a/12";
  const auto parsed = parse_json_line(to_json_line(j));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->key, "fig5a/12");
  const auto back = from_journal_record(*parsed);
  EXPECT_EQ(back.point.fraction, rec.point.fraction);
  EXPECT_EQ(back.point.throughput, rec.point.throughput);
  EXPECT_EQ(back.status, rec.status);
}

TEST(ResilientSweep, KillMidSweepThenResumeReproducesTheDigest) {
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto opts = small_sweep();

  // The uninterrupted run, journaled in full.
  const std::string full_path = temp_path("resume_full.jsonl");
  std::remove(full_path.c_str());
  std::uint64_t full_digest = 0;
  {
    auto policy = two_threads("fig/x");
    policy.journal = open_journal_at(full_path);
    full_digest =
        fluid_sweep_digest(fluid_points(fluid_grid(x.topo, opts, policy)));
  }

  // Simulate a SIGKILL after two points: keep the first two journal lines
  // and half of a third (killed mid-append, no trailing newline).
  std::ifstream in(full_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), opts.fractions.size());
  const std::string killed_path = temp_path("resume_killed.jsonl");
  {
    std::ofstream out(killed_path, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n";
    out << lines[2].substr(0, lines[2].size() / 2);  // torn final append
  }

  // Resume: load survivors, skip them, compute the rest into the same
  // journal file.
  const auto survivors = load_journal(killed_path);
  ASSERT_TRUE(survivors.ok());
  EXPECT_EQ(survivors->size(), 2u);  // torn line dropped

  auto policy = two_threads("fig/x");
  ASSERT_TRUE(sweep::open_journal("", {killed_path}, &policy).ok());
  EXPECT_EQ(policy.completed.size(), 2u);
  const auto resumed = fluid_grid(x.topo, opts, policy);
  policy.journal->close();

  EXPECT_EQ(fluid_sweep_digest(fluid_points(resumed)), full_digest);

  // The resumed journal now covers every point (the torn line's point and
  // the never-run ones were appended after the torn tail).
  const auto final_records = load_journal(killed_path);
  ASSERT_TRUE(final_records.ok());
  EXPECT_EQ(index_by_key(*final_records).size(), opts.fractions.size());
}

TEST(ResilientSweep, ResumeReusesJournaledBitsInsteadOfRecomputing) {
  const auto ft = topo::fat_tree(4);
  const auto opts = small_sweep();

  // A journal whose point 1 carries a sentinel value no solve would
  // produce: if the resumed sweep reports it, the point was restored from
  // the journal, not recomputed.
  FluidPointRecord sentinel;
  sentinel.point.fraction = opts.fractions[1];
  sentinel.point.throughput = 123.456;
  auto policy = two_threads();
  policy.completed["sweep/1"] = to_journal_record(sentinel);
  policy.completed["sweep/1"].key = "sweep/1";

  const auto records = fluid_grid(ft.topo, opts, policy);
  ASSERT_EQ(records.size(), opts.fractions.size());
  const auto restored = from_journal_record(records[1]);
  EXPECT_EQ(restored.point.throughput, 123.456);
  EXPECT_TRUE(restored.status.ok());
  EXPECT_NE(from_journal_record(records[0]).point.throughput, 0.0);
}

// The acceptance scenario: a sweep over topology files where one file is
// corrupt completes every healthy point and journals exactly one
// structured kInvalidInput record for the poisoned one.
TEST(ResilientSweep, PoisonedGridPointJournalsOneInvalidInputRecord) {
  const auto good_a = topo::fat_tree(4).topo;
  const auto good_b = topo::xpander(3, 4, 2, 1).topo;
  const std::string path_a = temp_path("grid_a.topo");
  const std::string path_b = temp_path("grid_b.topo");
  ASSERT_TRUE(topo::save_topology(path_a, good_a).ok());
  ASSERT_TRUE(topo::save_topology(path_b, good_b).ok());
  const std::vector<std::string> grid = {
      path_a, std::string(FLEXNETS_TEST_DATA_DIR) + "/corrupt_inputs/truncated.topo",
      path_b};

  const std::string journal_path = temp_path("grid_journal.jsonl");
  std::remove(journal_path.c_str());
  sweep::GridPolicy outer;
  outer.threads = 2;
  outer.key_prefix = "grid";
  outer.journal = open_journal_at(journal_path);

  auto opts = small_sweep();
  opts.fractions = {0.5, 1.0};
  // Each point runs a whole fluid sweep of its own: the inner grid shares
  // the outer grid's pool.
  const auto result = sweep::run_grid(grid.size(), outer, [&](std::size_t i) {
    const auto loaded = topo::load_topology(grid[i]);
    if (!loaded.ok()) throw_status(loaded.status());
    const auto points = plain_sweep(*loaded, opts);
    JournalRecord rec;
    rec.values = {{"digest",
                   static_cast<double>(fluid_sweep_digest(points) >> 11)}};
    return rec;
  });
  outer.journal->close();
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_TRUE(result->records[0].ok());
  EXPECT_EQ(result->records[1].code, StatusCode::kInvalidInput);
  EXPECT_TRUE(result->records[2].ok());

  const auto records = load_journal(journal_path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  int invalid = 0;
  for (const auto& r : *records) {
    if (r.code == StatusCode::kInvalidInput) {
      ++invalid;
      EXPECT_NE(r.message.find("truncated.topo"), std::string::npos);
      EXPECT_NE(r.message.find("line"), std::string::npos);
    }
  }
  EXPECT_EQ(invalid, 1);
}

}  // namespace
}  // namespace flexnets::core

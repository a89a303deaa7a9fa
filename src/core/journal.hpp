// Durable JSONL sweep journal: one self-contained JSON object per line,
// appended (flushed + fsynced) as each grid point finishes, so a sweep
// killed mid-run can be resumed without recomputing finished points.
//
// Resume contract: sub-seeds are derived from the point *index*
// (hash_words(seed, index)), never from execution order, so "skip the
// journaled points, compute the rest" reproduces the uninterrupted sweep
// bit for bit -- a grid resumed through sweep::run_grid has the digest of
// a run that was never killed. To make that exact, every double is
// journaled as the hex encoding of its IEEE-754 bits (the decimal value
// in the same line is for humans only and is ignored on load).
//
// A SIGKILL can land mid-append; load_journal therefore tolerates a
// truncated *final* line (it is dropped -- that point simply reruns).
// A malformed line anywhere else is a structured kInvalidInput naming
// the line, consistent with the other input boundaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/status.hpp"

namespace flexnets::core {

// One grid point. `key` identifies the point across runs (e.g.
// "fig5a/jellyfish/3"); `code`/`message` record containment (a poisoned
// point journals its failure and the sweep moves on); `values` are the
// point's named numeric results, round-tripped exactly.
struct JournalRecord {
  std::string key;
  StatusCode code = StatusCode::kOk;
  std::string message;  // empty when ok
  std::vector<std::pair<std::string, double>> values;
  // Which attempt produced this record (sweep orchestrator metadata):
  // 0 = single-shot (serial sweeps never retry), k >= 1 = the k-th lease
  // of the point. Serialized only when nonzero so pre-orchestrator
  // journal lines are byte-identical; never mixed into digests. Last so
  // the established {key, code, message, values} aggregate init holds.
  int attempt = 0;

  [[nodiscard]] bool ok() const { return code == StatusCode::kOk; }
  // First value with this name; 0.0 when absent (journal writers always
  // emit the fields their reader asks for).
  [[nodiscard]] double value(const std::string& name) const;

  bool operator==(const JournalRecord&) const = default;
};

// Exact-bit double round-trip used by the journal lines.
[[nodiscard]] std::string double_to_bits_hex(double v);
[[nodiscard]] bool bits_hex_to_double(const std::string& hex, double* out);

[[nodiscard]] std::string to_json_line(const JournalRecord& rec);
StatusOr<JournalRecord> parse_json_line(const std::string& line);

// Append-mode journal writer. Thread-safe: concurrent grid points append
// through one mutex, and each append is fflush()ed and fsync()ed before
// returning so a later SIGKILL cannot lose it.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Opens `path` for appending (creating it if needed). Reopening an
  // existing journal is how --resume continues the same file; a torn
  // final line left by a kill mid-append is truncated away first so new
  // records never concatenate onto it.
  Status open(const std::string& path);
  [[nodiscard]] bool is_open() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return f_ != nullptr;
  }
  // By value: a reference into guarded state would outlive the lock.
  [[nodiscard]] std::string path() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return path_;
  }

  // Serializes, appends one line, flushes, fsyncs. No-op Status::ok when
  // the journal was never opened, so call sites can journal
  // unconditionally.
  Status append(const JournalRecord& rec);

  void close();

 private:
  std::FILE* f_ FLEXNETS_GUARDED_BY(mu_) = nullptr;
  std::string path_ FLEXNETS_GUARDED_BY(mu_);
  mutable std::mutex mu_;
};

// Reads every record of a journal file. The final line may be truncated
// (killed mid-append) and is then ignored; any other malformed line is
// kInvalidInput naming it. A missing file is kInvalidInput.
//
// Repeated keys are deduplicated last-write-wins: a point journaled by a
// killed worker and journaled again by its retry yields one record — the
// retry's — at the position of the key's *first* appearance, so record
// order stays stable for order-sensitive consumers.
StatusOr<std::vector<JournalRecord>> load_journal(const std::string& path);

// Last-write-wins dedup by key, preserving first-appearance order. The
// building block of load_journal and merge_journals, exposed for the
// orchestrator's in-memory ingest path.
std::vector<JournalRecord> dedup_last_write_wins(
    std::vector<JournalRecord> records);

// Loads several (partial) journals — e.g. the merged journal of a killed
// coordinator run plus stray per-worker spills — and merges them into one
// deduplicated record list. Later paths win on key collisions, and within
// a path later lines win, matching load_journal. Every path must load
// cleanly; the first failure is returned as-is.
StatusOr<std::vector<JournalRecord>> merge_journals(
    const std::vector<std::string>& paths);

// Later records win (a rerun that re-journals a key supersedes the old
// record). Keyed lookup only -- callers iterate their own grid, not the
// map, so resumed sweeps stay order-deterministic.
std::map<std::string, JournalRecord> index_by_key(
    const std::vector<JournalRecord>& records);

}  // namespace flexnets::core

// Machine-readable perf records for the micro-benchmarks.
//
// `micro_flow --json [path]` / `micro_sim --json [path]` run a fixed set
// of reference cases and write one JSON document (default BENCH_MCF.json /
// BENCH_SIM.json in the working directory): a flat list of cases, each a
// name plus numeric metrics (ns_per_op, dijkstra_calls, lambda, ...).
// tools/ci.sh runs both as a smoke step and validates the schema — keys
// present, values finite — without gating on absolute timings, so the perf
// trajectory is recorded in git rather than enforced by flaky thresholds.
//
// Wall-clock timing lives here, in bench/, on purpose: the engines under
// src/ are banned from reading wall time (flexnets_analyze, `wall-clock`).
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace flexnets::bench {

struct PerfCase {
  std::string name;
  // Insertion-ordered so the emitted JSON is byte-stable run to run.
  std::vector<std::pair<std::string, double>> metrics;

  void add(const std::string& key, double value) {
    metrics.emplace_back(key, value);
  }
};

// Writes {"bench": ..., "schema_version": 1, "host_cores": ...,
// "peak_rss_kb": ..., "cases": [...]} to `path`. The root host_cores
// (std::thread::hardware_concurrency) and peak_rss_kb (sampled at write
// time) are filled in here, so every --json bench records how many cores
// produced its numbers and its memory budget without doing anything. Returns false (after printing to stderr) if
// the file cannot be written.
bool write_perf_json(const std::string& path, const std::string& bench_name,
                     const std::vector<PerfCase>& cases);

// Merges `cases` into an existing perf JSON written by write_perf_json:
// existing cases with the same names are replaced, everything else is
// preserved, and the root host_cores and peak_rss_kb are refreshed. Falls
// back to a fresh write_perf_json when the file is missing or not in the
// expected shape.
// This is how bench_hyperscale shares BENCH_MCF.json with micro_flow.
bool append_perf_json(const std::string& path, const std::string& bench_name,
                      const std::vector<PerfCase>& cases);

// Peak resident set size of this process in kilobytes (VmHWM from
// /proc/self/status); 0.0 where the proc interface is unavailable.
double peak_rss_kb();

// Monotonic wall time in nanoseconds, for timing benchmark regions.
double monotonic_ns();

// Median-of-`reps` wall time of fn(), in nanoseconds. The median (not the
// mean) so one scheduler hiccup cannot distort a recorded trajectory point.
template <typename F>
double time_median_ns(int reps, F&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double begin = monotonic_ns();
    fn();
    samples.push_back(monotonic_ns() - begin);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// True if argv contains "--json"; `out_path` receives the argument that
// follows it (or `default_path` when none is given).
bool parse_json_flag(int argc, char** argv, const std::string& default_path,
                     std::string* out_path);

}  // namespace flexnets::bench

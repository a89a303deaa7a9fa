#include "util.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/digest.hpp"
#include "topo/xpander.hpp"

namespace flexnets::bench {

void banner(const std::string& figure, const std::string& description) {
  std::printf("=== %s — %s ===\n", figure.c_str(), description.c_str());
  std::printf("scale: %s (set REPRO_FULL=1 for paper-scale parameters)\n\n",
              core::repro_full() ? "PAPER-SCALE" : "scaled-down default");
}

namespace {

// The grid flags as given on the command line.
struct GridFlags {
  int threads = 0;
  std::string journal;
  std::vector<std::string> resume;
  int point_sleep_ms = 0;
  int workers = 0;
  int max_attempts = 3;
  // The first flag given that only a grid acts on (all but --threads).
  const char* grid_only = nullptr;
};

GridFlags parse_grid_flags(int argc, char** argv) {
  GridFlags flags;
  // The value of `name` at argv[*i] ("--name V" or "--name=V"), or null.
  const auto value_of = [&](int* i, const char* name) -> const char* {
    const std::size_t len = std::strlen(name);
    if (std::strncmp(argv[*i], name, len) != 0) return nullptr;
    if (argv[*i][len] == '=') return argv[*i] + len + 1;
    if (argv[*i][len] != '\0') return nullptr;
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "error: %s wants a value\n", name);
      std::exit(2);
    }
    return argv[++*i];
  };
  const auto count = [](const char* value, const char* name, int min) {
    const int n = std::atoi(value);
    if (n < min) {
      std::fprintf(stderr, "error: %s wants an integer >= %d, got '%s'\n",
                   name, min, value);
      std::exit(2);
    }
    return n;
  };
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (const char* v = value_of(&i, "--threads")) {
      flags.threads = count(v, "--threads", 1);
      continue;
    }
    if (const char* v = value_of(&i, "--journal")) {
      flags.journal = v;
    } else if (const char* v = value_of(&i, "--resume")) {
      flags.resume.emplace_back(v);
    } else if (const char* v = value_of(&i, "--point-sleep-ms")) {
      flags.point_sleep_ms = count(v, "--point-sleep-ms", 0);
    } else if (const char* v = value_of(&i, "--workers")) {
      flags.workers = count(v, "--workers", 1);
    } else if (const char* v = value_of(&i, "--max-attempts")) {
      flags.max_attempts = count(v, "--max-attempts", 1);
    } else {
      continue;
    }
    if (flags.grid_only == nullptr) flags.grid_only = flag;
  }
  return flags;
}

}  // namespace

sweep::GridPolicy grid_policy(int argc, char** argv,
                              const std::string& key_prefix) {
  const GridFlags flags = parse_grid_flags(argc, argv);
  sweep::GridPolicy policy;
  policy.key_prefix = key_prefix;
  policy.args.assign(argv + 1, argv + argc);
  policy.threads = flags.threads;
  policy.workers = flags.workers;
  policy.max_attempts = flags.max_attempts;
  if (flags.point_sleep_ms > 0) {
    policy.point_hook = [ms = flags.point_sleep_ms](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  const auto st = sweep::open_journal(flags.journal, flags.resume, &policy);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    std::exit(2);
  }
  if (!flags.resume.empty()) {
    std::printf("resume: %zu journaled points in %zu file(s)\n",
                policy.completed.size(), flags.resume.size());
  }
  return policy;
}

int packet_threads(int argc, char** argv) {
  const GridFlags flags = parse_grid_flags(argc, argv);
  if (flags.grid_only != nullptr) {
    std::fprintf(stderr,
                 "error: %s applies to grid benches only; this bench takes "
                 "just --threads\n",
                 flags.grid_only);
    std::exit(2);
  }
  return flags.threads;
}

std::vector<core::JournalRecord> grid_records(
    const sweep::GridPolicy& policy, StatusOr<sweep::GridResult> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: grid '%s' failed: %s\n",
                 policy.key_prefix.c_str(),
                 result.status().to_string().c_str());
    std::exit(2);
  }
  if (result->worker_exit) std::exit(*result->worker_exit);
  if (policy.workers > 1) {
    std::printf("%s\n", sweep::shard_summary(policy, *result).c_str());
  }
  return std::move(result->records);
}

std::vector<std::vector<core::JournalRecord>> fluid_series(
    const std::vector<const topo::Topology*>& topos,
    const core::FluidSweepOptions& opts, const sweep::GridPolicy& policy) {
  const auto records =
      grid_records(policy, sweep::run_fluid_grid(topos, opts, policy));
  const std::size_t f = opts.fractions.size();
  std::vector<std::vector<core::JournalRecord>> series;
  for (std::size_t t = 0; t < topos.size(); ++t) {
    series.emplace_back(records.begin() + static_cast<std::ptrdiff_t>(t * f),
                        records.begin() +
                            static_cast<std::ptrdiff_t>((t + 1) * f));
  }
  return series;
}

void print_digest_line(const std::string& label,
                       const std::vector<core::JournalRecord>& records) {
  Digest d;
  std::size_t failed = 0;
  for (const auto& r : records) {
    for (const auto& [name, v] : r.values) {
      (void)name;
      d.mix_double(v);
    }
    failed += r.ok() ? 0 : 1;
  }
  std::printf("digest %s: %016llx (%zu points, %zu failed)\n", label.c_str(),
              static_cast<unsigned long long>(d.value()), records.size(),
              failed);
}

std::string health_note(const core::PacketResult& r) {
  std::string s;
  if (r.fct.incomplete_flows > 0) {
    s += "incomplete=" + std::to_string(r.fct.incomplete_flows) + " ";
  }
  if (r.drops > 0) s += "drops=" + std::to_string(r.drops);
  return s.empty() ? "ok" : s;
}

core::PacketSimOptions default_packet_options(bool full) {
  core::PacketSimOptions opts;
  if (full) {
    // Paper section 6.4: statistics over flows starting in [0.5s, 1.5s).
    opts.window_begin = 500 * kMillisecond;
    opts.window_end = 1500 * kMillisecond;
    opts.arrival_tail = 500 * kMillisecond;
    opts.hard_stop = 120 * kSecond;
  } else {
    opts.window_begin = 20 * kMillisecond;
    opts.window_end = 50 * kMillisecond;
    opts.arrival_tail = 15 * kMillisecond;
    opts.hard_stop = 20 * kSecond;
  }
  return opts;
}

int active_server_count(const topo::Topology& t,
                        const workload::PairDistribution& pairs) {
  int n = 0;
  for (const auto r : pairs.active_racks()) n += t.servers_per_switch[r];
  return n;
}

core::PacketResult run_point(const Scenario& s,
                             const workload::PairDistribution& pairs,
                             const workload::FlowSizeDistribution& sizes,
                             double rate_per_active_server,
                             std::uint64_t seed, bool full) {
  core::PacketSimOptions opts = default_packet_options(full);
  opts.arrival_rate =
      rate_per_active_server * active_server_count(*s.topo, pairs);
  opts.net.routing.mode = s.mode;
  opts.net.server_link.rate = s.server_rate;
  opts.seed = seed;
  opts.threads = s.threads;
  return core::run_packet_experiment(*s.topo, pairs, sizes, opts);
}

Section64 section64_topologies(bool full) {
  Section64 out;
  if (full) {
    out.fat_tree = topo::fat_tree(16);
    auto x = topo::xpander(11, 18, 5, /*seed=*/1);  // 216 sw, 1080 servers
    out.xpander = std::move(x.topo);
  } else {
    out.fat_tree = topo::fat_tree(8);
    auto x = topo::xpander(5, 9, 3, /*seed=*/1);  // 54 sw, 162 servers
    out.xpander = std::move(x.topo);
  }
  return out;
}

void print_three_panels(const std::string& sweep_label,
                        const std::vector<Scenario>& scenarios,
                        const std::vector<SweepRow>& rows) {
  const struct Panel {
    const char* title;
    double (*get)(const core::PacketResult&);
    int precision;
  } panels[] = {
      {"(a) average FCT (ms)",
       [](const core::PacketResult& r) { return r.fct.avg_fct_ms; }, 3},
      {"(b) 99th %-ile FCT, flows < 100KB (ms)",
       [](const core::PacketResult& r) { return r.fct.p99_short_fct_ms; }, 3},
      {"(c) avg throughput, flows >= 100KB (Gbps)",
       [](const core::PacketResult& r) { return r.fct.avg_long_tput_gbps; },
       3},
  };
  for (const auto& panel : panels) {
    std::printf("%s\n", panel.title);
    std::vector<std::string> header{sweep_label};
    for (const auto& s : scenarios) header.push_back(s.label);
    header.push_back("health");
    TextTable t(header);
    for (const auto& row : rows) {
      std::vector<std::string> cells{TextTable::fmt(row.x, 2)};
      std::string health;
      for (const auto& r : row.results) {
        cells.push_back(TextTable::fmt(panel.get(r), panel.precision));
        const auto note = health_note(r);
        if (note != "ok" && health.empty()) health = note;
      }
      cells.push_back(health.empty() ? "ok" : health);
      t.add_row(std::move(cells));
    }
    t.print();
    std::printf("\n");
  }
}

}  // namespace flexnets::bench

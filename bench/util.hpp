// Shared helpers for the figure-reproduction benchmark binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/fluid_runner.hpp"
#include "core/journal.hpp"
#include "routing/strategy.hpp"
#include "sweep/grid.hpp"
#include "topo/fat_tree.hpp"
#include "topo/topology.hpp"

namespace flexnets::bench {

// Prints the standard experiment banner: which paper item this binary
// regenerates and whether it runs at paper scale (REPRO_FULL=1) or the
// scaled-down default.
void banner(const std::string& figure, const std::string& description);

// The grid policy of this bench, from the one set of grid flags every
// grid bench takes:
//   --threads N          in-process worker threads (absent: auto,
//                        FLEXNETS_THREADS env else hardware_concurrency)
//   --journal <path>     append each finished grid point durably
//   --resume <path>      skip points already journaled in <path> and
//                        append the rest to it; may repeat (partial
//                        journals merge, later files win)
//   --point-sleep-ms N   pause inside each *computed* point; gives the CI
//                        kill-mid-sweep tests a window to SIGKILL in
//   --workers N          shard the grid across N worker subprocesses
//   --max-attempts N     retries before a crashy point is quarantined
//   --sweep-worker=G     (internal) serve grid G's leases over fds 3/4
// Opens the journal and loads the resume index (sweep::open_journal).
// Exits with a message on a malformed value, a corrupt resume file or an
// unopenable journal, so a typo cannot silently change a long run.
sweep::GridPolicy grid_policy(int argc, char** argv,
                              const std::string& key_prefix);

// The --threads value of a bench that runs no grid (0 when absent), read
// by the same parser. Exits on any other grid flag, which such a bench
// has nothing to apply to.
int packet_threads(int argc, char** argv);

// The records of a sweep::run_grid call made under `policy`. Exits the
// process when it served as a sweep worker (with the worker's code) or
// when the run itself failed; prints the shard summary after a sharded
// run.
std::vector<core::JournalRecord> grid_records(
    const sweep::GridPolicy& policy, StatusOr<sweep::GridResult> result);

// sweep::run_fluid_grid through grid_records, split into each topology's
// F = opts.fractions.size() records.
std::vector<std::vector<core::JournalRecord>> fluid_series(
    const std::vector<const topo::Topology*>& topos,
    const core::FluidSweepOptions& opts, const sweep::GridPolicy& policy);

// Prints "digest <label>: <16 hex digits> (N points, F failed)", the line
// the CI resilience gates grep to compare a killed-and-resumed or sharded
// run against an uninterrupted one. The digest covers every record's
// values in order (exact double bits); fluid records carry (fraction,
// throughput), so it equals core::fluid_sweep_digest of the same points.
void print_digest_line(const std::string& label,
                       const std::vector<core::JournalRecord>& records);

// Formats a PacketResult row note (drops / incomplete counts) for sanity.
std::string health_note(const core::PacketResult& r);

// A packet-simulation contender: a topology plus a routing configuration.
struct Scenario {
  std::string label;
  const topo::Topology* topo = nullptr;
  routing::RoutingMode mode = routing::RoutingMode::kEcmp;
  RateBps server_rate = 10 * kGbps;  // raise to model "no server bottleneck"
  // Packet-engine workers: 1 = serial, > 1 = the conservative PDES engine
  // (sim/pdes/), which reproduces the serial results bit for bit -- this
  // is purely a wall-clock knob.
  int threads = 1;
};

// Measurement window used by the packet benches. The paper measures flows
// starting in [0.5s, 1.5s); the scaled default uses [20ms, 60ms).
core::PacketSimOptions default_packet_options(bool full);

// Runs one scenario point: arrival rate is `rate_per_active_server` times
// the number of servers on the pair distribution's active racks.
core::PacketResult run_point(const Scenario& s,
                             const workload::PairDistribution& pairs,
                             const workload::FlowSizeDistribution& sizes,
                             double rate_per_active_server,
                             std::uint64_t seed, bool full);

int active_server_count(const topo::Topology& t,
                        const workload::PairDistribution& pairs);

// The section 6.4 topology pair: a full-bandwidth fat-tree baseline and an
// Xpander built at ~33% lower cost with at least as many servers.
//   full:   fat-tree k=16 (1024 servers) vs Xpander 216x16p (1080 servers)
//   scaled: fat-tree k=8  (128 servers)  vs Xpander  54x8p  (162 servers)
struct Section64 {
  topo::FatTree fat_tree;
  topo::Topology xpander;
};
Section64 section64_topologies(bool full);

// Prints the paper's three standard panels for a sweep: average FCT (ms),
// 99th-percentile short-flow FCT (ms), and average long-flow throughput
// (Gbps). `sweep_label` names the x column; rows are (x, per-scenario
// results).
struct SweepRow {
  double x = 0.0;
  std::vector<core::PacketResult> results;  // one per scenario
};
void print_three_panels(const std::string& sweep_label,
                        const std::vector<Scenario>& scenarios,
                        const std::vector<SweepRow>& rows);

}  // namespace flexnets::bench

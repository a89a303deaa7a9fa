// perfbench_harness: runs one benchmark workload through flexnets' public
// API in a closed loop (one caller, one experiment at a time) for a fixed
// wall-clock budget, and prints one JSON object describing every
// iteration: set-up / run / CPU times, exact outputs, checks, a manifest
// and, with --trace 1, the per-layer spans and counters.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-out <spans.jsonl>]
//
// Workloads (see perfbench/NOTES.md for why each exists):
//   xpander_hyb    serial packet engine, Xpander, HYB routing
//   fattree_gray   serial packet engine, k=12 fat-tree, ECMP, gray faults
//                  (the traced runs of both add one sim::pdes::run_parallel
//                  pass on 2 threads)
//   jellyfish_gk   serial GK max-concurrent-flow, LM and A2A TMs
//
// perfbench/run.py turns this into the benchmark's result line.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "fault/fault_plan.hpp"
#include "flow/bracket.hpp"
#include "flow/mcf.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "flow/tm_view.hpp"
#include "metrics/fct_tracker.hpp"
#include "routing/routing_table.hpp"
#include "sim/network.hpp"
#include "sim/pdes/runner.hpp"
#include "topo/csr_build.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"
#include "trace.hpp"
#include "workload/arrivals.hpp"
#include "workload/flow_size.hpp"
#include "workload/pairs.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace flexnets;

// ---------------------------------------------------------------------------
// Small JSON writer: keys in insertion order, doubles with 17 significant
// digits so every value round-trips bit-exactly through a JSON parser.

class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(k, buf);
  }
  Json& u64(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return raw(k, q + "\"");
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.text()); }
  Json& arr(const std::string& k, const std::vector<std::string>& items) {
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      s += (i ? ", " : "") + items[i];
    }
    return raw(k, s + "]");
  }
  Json& nums(const std::string& k, const std::vector<double>& v) {
    std::vector<std::string> items;
    for (const double d : v) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      items.emplace_back(buf);
    }
    return arr(k, items);
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
    return *this;
  }
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Host probes.

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) * 1e-9;
}

// VmHWM of this process in MB (peak resident set).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Host-wide steal ticks (the 8th field of /proc/stat's "cpu" line).
std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  in >> cpu;
  for (auto& v : f) in >> v;
  return cpu == "cpu" ? f[7] : 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// Pins the calling thread to one CPU of its original affinity mask at a
// time. On a shared host the vCPUs run at different speeds at any moment
// (measured up to 25% apart), and an unpinned thread stays on one of them
// for a whole run, so a run's median would report whichever vCPU it landed
// on. Rotating the timed part of each iteration over every CPU makes every
// run sample all of them: IQR/median across eight 20 s runs of one input
// fell from 0.17 to 0.05.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  void pin(int i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(i) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  // Back to the full mask, e.g. before the PDES pass starts its workers.
  void unpin() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }
  [[nodiscard]] std::size_t size() const { return cpus_.size(); }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workload interface. release() drops the previous iteration's state;
// setup() builds every input from the seed and readies the engine; run() is
// the timed engine run ending in a summarized result; outputs() and the
// checks that follow are excluded from timing.

struct Outputs {
  Json exact;               // recorded per seed, compared bit for bit
  std::uint64_t digest = 0;  // over everything in `exact`
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;  // seed-independent
};

// Per-layer counters of the last run (exact, from public accessors).
using Counters = std::vector<std::pair<std::string, double>>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void release() = 0;
  virtual void setup(Tracer& tr) = 0;
  virtual void run(Tracer& tr) = 0;
  virtual Outputs outputs(Tracer& tr) = 0;
  [[nodiscard]] virtual Counters counters() const = 0;
  // Digest of the generated inputs and of the topology (manifest).
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
  [[nodiscard]] virtual std::uint64_t topo_digest() const = 0;
};

// ---------------------------------------------------------------------------
// Packet workloads.

constexpr double kFlowsPerSecPerServer = 100.0;
// Traced runs also replay the inputs once through the parallel engine on
// this many threads and check that it matches the serial engine.
constexpr int kPdesThreads = 2;

struct PacketSpec {
  std::function<topo::Topology(std::uint64_t)> make_topo;
  routing::RoutingMode mode = routing::RoutingMode::kEcmp;
  // Flows arrive (Poisson, kFlowsPerSecPerServer) over [0, window); the
  // run continues until every flow completes.
  TimeNs window = 0;
  bool gray = false;  // seeded FaultPlan::random with gray kinds
};

// Smallest size whose CDF reaches u (the inverse CDF, by bisection).
Bytes size_quantile(const workload::FlowSizeDistribution& d, double u) {
  Bytes lo = 1;
  Bytes hi = 1;
  while (d.cdf(hi) < u) hi *= 2;
  while (lo < hi) {
    const Bytes mid = lo + (hi - lo) / 2;
    if (d.cdf(mid) < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// All-to-all pairs over every ToR with Poisson arrivals. Sizes follow the
// pFabric web-search distribution by stratified sampling: flow i gets the
// quantile at (pi(i) + 0.5) / n for a seeded permutation pi, so every seed
// carries the same multiset of sizes (the heavy tail would otherwise make
// the total bytes, and the run time, swing by tens of percent per seed).
std::vector<workload::FlowSpec> make_flows(const topo::Topology& t,
                                           const PacketSpec& spec,
                                           std::uint64_t seed) {
  const auto pairs = workload::all_to_all_pairs(t, t.tors());
  const auto sizes = workload::pfabric_web_search();
  const double rate = kFlowsPerSecPerServer * t.num_servers();
  const int n = std::max(
      1, static_cast<int>(std::llround(rate * to_seconds(spec.window))));
  auto flows = workload::generate_flows(*pairs, *sizes, rate, n, seed);
  std::vector<Bytes> strata(flows.size());
  for (std::size_t i = 0; i < strata.size(); ++i) {
    strata[i] = size_quantile(
        *sizes, (static_cast<double>(i) + 0.5) / static_cast<double>(n));
  }
  Rng rng(hash_words(seed, 0x517e));
  rng.shuffle(strata);
  for (std::size_t i = 0; i < flows.size(); ++i) flows[i].size = strata[i];
  return flows;
}

// Gray cocktail on the fat-tree: binary link failures plus lossy,
// degraded and flapping links. They strike in [window/8, window/2] and
// each heals one window later, while the largest flows are still running.
fault::FaultPlan make_plan(const topo::Topology& t, const PacketSpec& spec,
                           std::uint64_t seed) {
  fault::RandomFaultOptions opt;
  opt.link_failures = 2;
  opt.lossy_links = 16;
  opt.loss_prob = 0.05;
  opt.degraded_links = 2;
  opt.degrade_fraction = 0.5;
  opt.flapping_links = 2;
  opt.flap_period = 1 * kMillisecond;
  opt.flap_duty = 0.5;
  opt.window_begin = spec.window / 8;
  opt.window_end = spec.window / 2;
  opt.repair_after = spec.window;
  return fault::FaultPlan::random(t, opt, hash_words(seed, 0xfa17));
}

class PacketWorkload final : public Workload {
 public:
  PacketWorkload(PacketSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)), seed_(seed) {}

  void release() override {
    net_.reset();
    topo_.reset();
  }

  void setup(Tracer& tr) override {
    {
      Span s(tr, "topo.build");
      topo_ = std::make_unique<topo::Topology>(spec_.make_topo(seed_));
    }
    {
      Span s(tr, "workload.flowgen");
      flows_ = make_flows(*topo_, spec_, seed_);
    }
    sim::NetworkConfig cfg;
    cfg.seed = seed_;
    cfg.routing.mode = spec_.mode;
    if (spec_.gray) {
      Span s(tr, "fault.plan");
      plan_ = make_plan(*topo_, spec_, seed_);
      cfg.faults = &plan_;
      cfg.route_around_gray = true;
      cfg.detector.detect_threshold = 32;
    }
    Span s(tr, "sim.network_build");
    net_ = std::make_unique<sim::PacketNetwork>(*topo_, cfg);
  }

  void run(Tracer& tr) override {
    {
      Span s(tr, "sim.run");
      net_->run(flows_);
    }
    Span s(tr, "metrics.summarize");
    fct_ = summarize(*net_);
  }

  Outputs outputs(Tracer& tr) override {
    const std::uint64_t events = net_->simulator().events_processed();
    Outputs o = packet_outputs(*net_, fct_, events);
    if (tr.enabled() && !pdes_) {
      // One pass of the same inputs through the parallel engine, which
      // must reproduce the serial engine bit for bit.
      sim::PacketNetwork par(*topo_, net_->config());
      sim::pdes::RunnerConfig pcfg;
      pcfg.threads = kPdesThreads;
      const double cpu0 = process_cpu_s();
      const auto w0 = wall_ns();
      {
        Span s(tr, "pdes.run");
        pdes_ = std::make_unique<sim::pdes::RunStats>(
            sim::pdes::run_parallel(par, flows_, pcfg));
      }
      pdes_cpu_per_wall_ = (process_cpu_s() - cpu0) / seconds_since(w0);
      pdes_matches_ =
          packet_outputs(par, summarize(par), pdes_->events).digest ==
          o.digest;
    }
    if (pdes_) o.checks.emplace_back("pdes_equals_serial", pdes_matches_);
    if (tr.enabled()) {
      // The ECMP build PacketNetwork runs at construction (and, under
      // faults, at every repair), timed on its own.
      Span s(tr, "routing.ecmp_build");
      const auto table = routing::EcmpTable::build(topo_->g, topo_->tors());
      (void)table;
    }
    return o;
  }

  [[nodiscard]] Counters counters() const override {
    const auto& net = *net_;
    const std::uint64_t events = net_->simulator().events_processed();
    std::uint64_t link_packets = 0;
    for (std::size_t i = 0; i < net.num_links(); ++i) {
      link_packets += net.link(static_cast<std::int32_t>(i)).packets_sent();
    }
    std::uint64_t data = 0;
    std::uint64_t rtx = 0;
    std::uint64_t rto = 0;
    const auto& eng = net.engine();
    for (std::size_t i = 0; i < eng.num_flows(); ++i) {
      const auto& f = eng.flow(static_cast<std::int32_t>(i));
      data += f.data_packets_sent;
      rtx += f.retransmits;
      rto += f.timeouts;
    }
    const auto fs = net.fault_stats();
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    Counters c = {
        {"sim.events", d(events)},
        {"sim.link_packets", d(link_packets)},
        {"sim.events_per_link_packet",
         link_packets ? d(events) / d(link_packets) : 0.0},
        {"sim.drops", d(net.total_drops())},
        {"sim.ecn_marks", d(net.total_ecn_marks())},
        {"transport.data_packets", d(data)},
        {"transport.retransmits", d(rtx)},
        {"transport.timeouts", d(rto)},
        {"transport.useful_ratio", data ? d(data - rtx) / d(data) : 0.0},
        {"fault.repairs", d(fs.repairs)},
        {"fault.detections", d(fs.detections)},
        {"fault.gray_loss_drops", d(fs.gray_loss_drops)},
        {"fault.blackhole_drops", d(fs.blackhole_drops)},
        {"fault.expelled_packets", d(fs.expelled_packets)},
        {"fault.post_repair_blackholes", d(fs.post_repair_blackholes)},
    };
    if (pdes_) {
      c.emplace_back("pdes.epochs", d(pdes_->epochs));
      c.emplace_back("pdes.events_per_epoch",
                     pdes_->epochs ? d(pdes_->events) / d(pdes_->epochs) : 0.0);
      c.emplace_back("pdes.serial_timestamps", d(pdes_->serial_timestamps));
      c.emplace_back("pdes.cpu_per_wall", pdes_cpu_per_wall_);
    }
    return c;
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    Digest d;
    d.mix(topo_digest());
    for (const auto& f : flows_) {
      d.mix_time(f.start);
      d.mix(static_cast<std::uint64_t>(f.src_server));
      d.mix(static_cast<std::uint64_t>(f.dst_server));
      d.mix(static_cast<std::uint64_t>(f.size));
    }
    for (const char c : plan_.serialize()) d.mix(static_cast<unsigned char>(c));
    return d.value();
  }
  [[nodiscard]] std::uint64_t topo_digest() const override {
    return flow::build_throughput_cache(*topo_).topo_digest;
  }

 private:
  metrics::FctSummary summarize(const sim::PacketNetwork& net) const {
    std::vector<metrics::FlowRecord> records;
    records.reserve(flows_.size());
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
      if (f.start_time >= 0) {
        records.push_back({f.start_time, f.completion_time, f.size});
      } else {
        records.push_back({flows_[i].start, -1, flows_[i].size});
      }
    }
    // Every generated flow arrives inside the measurement window.
    return metrics::summarize(records, 0, sim::Simulator::kMaxTime,
                              workload::kShortFlowThreshold);
  }

  Outputs packet_outputs(const sim::PacketNetwork& net,
                         const metrics::FctSummary& fct,
                         std::uint64_t events) const {
    Outputs o;
    Digest d;
    std::uint64_t aborted = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
      d.mix_time(f.start_time);
      d.mix_time(f.completion_time);
      aborted += f.aborted ? 1 : 0;
    }
    const std::uint64_t fct_digest = d.value();
    const auto fs = net.fault_stats();
    o.exact.u64("flows", flows_.size())
        .u64("events", events)
        .u64("drops", net.total_drops())
        .u64("ecn_marks", net.total_ecn_marks())
        .num("avg_fct_ms", fct.avg_fct_ms)
        .num("p50_fct_ms", fct.p50_fct_ms)
        .num("p99_fct_ms", fct.p99_fct_ms)
        .num("p99_short_fct_ms", fct.p99_short_fct_ms)
        .num("avg_long_tput_gbps", fct.avg_long_tput_gbps)
        .u64("measured_flows", static_cast<std::uint64_t>(fct.measured_flows))
        .u64("incomplete_flows",
             static_cast<std::uint64_t>(fct.incomplete_flows))
        .u64("aborted_flows", aborted)
        .str("fct_digest", hex64(fct_digest));
    for (const double v : {fct.avg_fct_ms, fct.p50_fct_ms, fct.p99_fct_ms,
                           fct.p99_short_fct_ms, fct.avg_long_tput_gbps}) {
      d.mix_double(v);
    }
    d.mix(events);
    d.mix(net.total_drops());
    d.mix(net.total_ecn_marks());
    if (spec_.gray) {
      o.exact.u64("repairs", fs.repairs)
          .u64("detections", fs.detections)
          .u64("gray_loss_drops", fs.gray_loss_drops)
          .u64("blackhole_drops", fs.blackhole_drops)
          .u64("expelled_packets", fs.expelled_packets)
          .u64("post_repair_blackholes", fs.post_repair_blackholes);
      for (const auto v : {fs.repairs, fs.detections, fs.gray_loss_drops,
                           fs.blackhole_drops, fs.expelled_packets}) {
        d.mix(v);
      }
    }
    o.digest = d.value();
    o.attempted = flows_.size();
    o.failed = static_cast<std::uint64_t>(fct.incomplete_flows) + aborted;
    o.failed = std::min<std::uint64_t>(o.failed, o.attempted);
    o.checks.emplace_back("post_repair_blackholes_zero",
                          fs.post_repair_blackholes == 0);
    o.checks.emplace_back(
        "every_flow_measured",
        static_cast<std::size_t>(fct.measured_flows) == flows_.size());
    return o;
  }

  PacketSpec spec_;
  std::uint64_t seed_;
  std::unique_ptr<topo::Topology> topo_;
  std::vector<workload::FlowSpec> flows_;
  fault::FaultPlan plan_;
  std::unique_ptr<sim::PacketNetwork> net_;
  metrics::FctSummary fct_;
  std::unique_ptr<sim::pdes::RunStats> pdes_;  // the traced PDES pass
  double pdes_cpu_per_wall_ = 0.0;
  bool pdes_matches_ = false;
};

// ---------------------------------------------------------------------------
// GK fluid workload: serial max_concurrent_flow per point.

class GkWorkload final : public Workload {
 public:
  static constexpr double kEps = 0.1;
  static constexpr int kPoints = 10;

  explicit GkWorkload(std::uint64_t seed) : seed_(seed) {}

  void release() override {
    instances_.clear();
    tms_.clear();
    topo_.reset();
  }

  void setup(Tracer& tr) override {
    {
      Span s(tr, "topo.build");
      topo_ = std::make_unique<topo::Topology>(topo::jellyfish(64, 8, 4, seed_));
    }
    {
      Span s(tr, "flow.cache_build");
      cache_ = flow::build_throughput_cache(*topo_);
    }
    tms_.resize(kPoints);
    {
      // Fractions 0.1 .. 1.0 of the racks, alternating longest-matching
      // (even points) and all-to-all (odd points) TMs.
      Span s(tr, "flow.tm_build");
      const auto tors = topo_->tors().size();
      for (int i = 0; i < kPoints; ++i) {
        const double x = (i + 1) / static_cast<double>(kPoints);
        const int count = std::clamp<int>(
            static_cast<int>(std::llround(x * static_cast<double>(tors))), 2,
            static_cast<int>(tors));
        const auto active =
            flow::pick_active_racks(*topo_, count, hash_words(seed_, i));
        tms_[i] = is_lm(i) ? flow::longest_matching_tm(*topo_, active)
                           : flow::all_to_all_tm(*topo_, active);
      }
    }
    Span s(tr, "flow.instance_build");
    for (const auto& tm : tms_) {
      instances_.push_back(flow::build_mcf_instance(cache_, tm));
    }
  }

  void run(Tracer& tr) override {
    results_.clear();
    for (int i = 0; i < kPoints; ++i) {
      Span s(tr, is_lm(i) ? "flow.gk_solve.lm" : "flow.gk_solve.a2a");
      const auto& inst = instances_[static_cast<std::size_t>(i)];
      results_.push_back(flow::max_concurrent_flow(
          inst.num_nodes, inst.edges, inst.commodities, kEps));
    }
  }

  Outputs outputs(Tracer& tr) override {
    if (brackets_.empty() || tr.enabled()) {
      // Sound bounds on lambda* from the CSR twin. GK's lambda is feasible
      // (<= upper) and within (1 - eps)^3 of lambda* (>= that * lower).
      Span s(tr, "flow.bracket");
      const auto csr = topo::csr_from(*topo_);
      brackets_.clear();
      for (const auto& tm : tms_) {
        brackets_.push_back(flow::throughput_bracket(
            csr, flow::TmView::from_traffic_matrix(tm)));
      }
    }
    Outputs o;
    Digest d;
    std::vector<std::string> points;
    bool in_bracket = true;
    for (int i = 0; i < kPoints; ++i) {
      const auto& r = results_[static_cast<std::size_t>(i)];
      const auto& b = brackets_[static_cast<std::size_t>(i)];
      const double lambda = std::clamp(r.lambda, 0.0, 1.0);
      const double slack = std::pow(1.0 - kEps, 3);
      const bool ok_bracket =
          b.status.ok() && lambda <= b.upper * (1.0 + 1e-12) &&
          lambda >= slack * b.lower * (1.0 - 1e-12);
      in_bracket = in_bracket && ok_bracket;
      const bool failed = !r.status.ok() || !ok_bracket;
      o.failed += failed ? 1 : 0;
      d.mix_double(lambda);
      d.mix(static_cast<std::uint64_t>(r.phases));
      d.mix(static_cast<std::uint64_t>(r.dijkstra_calls));
      Json p;
      p.str("tm", is_lm(i) ? "lm" : "a2a")
          .u64("commodities", instances_[static_cast<std::size_t>(i)]
                                  .commodities.size())
          .num("lambda", lambda)
          .str("lambda_bits", hex64(std::bit_cast<std::uint64_t>(lambda)))
          .u64("phases", static_cast<std::uint64_t>(r.phases))
          .u64("dijkstra_calls", static_cast<std::uint64_t>(r.dijkstra_calls))
          .str("status", r.status.ok() ? "ok" : r.status.to_string());
      points.push_back(p.text());
    }
    o.exact.arr("points", points).str("lambda_digest", hex64(d.value()));
    o.digest = d.value();
    o.attempted = kPoints;
    o.checks.emplace_back("lambda_within_bracket", in_bracket);
    return o;
  }

  [[nodiscard]] Counters counters() const override {
    std::uint64_t commodities = 0;
    for (const auto& inst : instances_) commodities += inst.commodities.size();
    long long phases = 0;
    long long dijkstra = 0;
    for (const auto& r : results_) {
      phases += r.phases;
      dijkstra += r.dijkstra_calls;
    }
    return {{"flow.commodities", static_cast<double>(commodities)},
            {"flow.phases", static_cast<double>(phases)},
            {"flow.dijkstra_calls", static_cast<double>(dijkstra)}};
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    Digest d;
    d.mix(topo_digest());
    for (const auto& tm : tms_) {
      for (const auto& c : tm.commodities) {
        d.mix(static_cast<std::uint64_t>(c.src_tor));
        d.mix(static_cast<std::uint64_t>(c.dst_tor));
        d.mix_double(c.demand);
      }
    }
    return d.value();
  }
  [[nodiscard]] std::uint64_t topo_digest() const override {
    return cache_.topo_digest;
  }

 private:
  static bool is_lm(int i) { return i % 2 == 0; }

  std::uint64_t seed_;
  std::unique_ptr<topo::Topology> topo_;
  flow::ThroughputCache cache_;
  std::vector<flow::TrafficMatrix> tms_;
  std::vector<flow::McfInstance> instances_;
  std::vector<flow::McfResult> results_;
  std::vector<flow::ThroughputBracket> brackets_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  PacketSpec xp;
  xp.make_topo = [](std::uint64_t s) { return topo::xpander(8, 12, 4, s).topo; };
  xp.mode = routing::RoutingMode::kHyb;
  xp.window = 2 * kMillisecond;
  if (name == "xpander_hyb") return std::make_unique<PacketWorkload>(xp, seed);
  if (name == "fattree_gray") {
    PacketSpec ft;
    ft.make_topo = [](std::uint64_t) { return topo::fat_tree(12).topo; };
    ft.mode = routing::RoutingMode::kEcmp;
    ft.window = 3 * kMillisecond;
    ft.gray = true;
    return std::make_unique<PacketWorkload>(ft, seed);
  }
  if (name == "jellyfish_gk") return std::make_unique<GkWorkload>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

constexpr int kMinIterations = 3;

int main_impl(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  auto w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tracer tr;
  CpuRotation cpus;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::vector<int> traced;  // per iteration: spans recorded?
  const std::uint64_t steal0 = steal_ticks();
  const auto loop_start = wall_ns();
  Outputs first;
  bool deterministic = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<Counters> counters;
  double last_iter_s = 0.0;
  for (int it = 0;; ++it) {
    const double elapsed = seconds_since(loop_start);
    if (it >= kMinIterations && elapsed + last_iter_s > args.seconds) break;
    const auto iter_start = wall_ns();
    // A traced run alternates traced and untraced iterations, so the
    // tracing overhead is measured inside one process.
    tr.set_enabled(args.trace && it % 2 == 0);
    tr.set_run(it);
    traced.push_back(tr.enabled() ? 1 : 0);
    w->release();
    cpus.pin(it);
    {
      Span iter(tr, "iteration");
      const auto t0 = wall_ns();
      {
        Span s(tr, "setup");
        w->setup(tr);
      }
      const auto t1 = wall_ns();
      const double c1 = process_cpu_s();
      {
        Span s(tr, "run");
        w->run(tr);
      }
      const double c2 = process_cpu_s();
      const auto t2 = wall_ns();
      setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      run_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
      cpu_s.push_back(c2 - c1);
      cpus.unpin();

      Span s(tr, "check");
      Outputs o = w->outputs(tr);
      attempted += o.attempted;
      failed += o.failed;
      if (it == 0) {
        first = o;
        checks = o.checks;
      } else {
        deterministic = deterministic && o.digest == first.digest &&
                        o.exact.text() == first.exact.text();
        for (std::size_t i = 0; i < checks.size() && i < o.checks.size();
             ++i) {
          checks[i].second = checks[i].second && o.checks[i].second;
        }
      }
    }
    counters.push_back(w->counters());
    last_iter_s = seconds_since(iter_start);
  }
  const std::uint64_t steal1 = steal_ticks();
  checks.emplace_back("deterministic_across_iterations", deterministic);

  Json manifest;
  manifest.u64("seed", args.seed)
      .str("topo_digest", hex64(w->topo_digest()))
      .str("input_digest", hex64(w->input_digest()))
      .u64("engine_threads", 1)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .u64("host_cores", std::thread::hardware_concurrency())
      .u64("rotated_cpus", cpus.size())
      .str("cpu_model", cpu_model())
      .u64("steal_ticks", steal1 - steal0);

  Json check_json;
  for (const auto& [name, ok] : checks) check_json.boolean(name, ok);

  Json out;
  out.str("workload", args.workload)
      .u64("iterations", run_s.size())
      .nums("setup_s", setup_s)
      .nums("run_s", run_s)
      .nums("cpu_s", cpu_s)
      .num("peak_rss_mb", peak_rss_mb())
      .u64("attempted", attempted)
      .u64("failed", failed)
      .obj("outputs", first.exact)
      .str("outputs_digest", hex64(first.digest))
      .obj("checks", check_json)
      .obj("manifest", manifest);

  if (args.trace) {
    // Per-layer metrics: span totals are medians over the traced
    // iterations; counters are exact (identical in every iteration).
    const std::vector<std::string> span_names = {
        "topo.build",        "workload.flowgen",  "fault.plan",
        "sim.network_build", "routing.ecmp_build", "sim.run",
        "pdes.run",          "metrics.summarize", "flow.cache_build",
        "flow.tm_build",     "flow.instance_build", "flow.gk_solve.lm",
        "flow.gk_solve.a2a", "flow.bracket"};
    Json layers;
    for (const auto& name : span_names) {
      std::vector<double> v;
      for (std::size_t it = 0; it < traced.size(); ++it) {
        const double s = tr.total_s(name, static_cast<int>(it));
        if (traced[it] && s > 0.0) v.push_back(s);
      }
      layers.nums(name, v);
    }
    std::vector<double> on;
    std::vector<double> off;
    for (std::size_t it = 0; it < traced.size(); ++it) {
      (traced[it] ? on : off).push_back(run_s[it]);
    }
    layers.num("trace.overhead_s", median(on) - median(off));
    Json exact;
    for (const auto& [name, value] : counters.back()) exact.num(name, value);
    const bool counts_repeat =
        std::all_of(counters.begin(), counters.end(),
                    [&](const Counters& c) { return c == counters.back(); });
    out.obj("layer_spans", layers)
        .obj("layer_counts", exact)
        .boolean("counts_repeat", counts_repeat);
    if (!args.trace_out.empty() && !tr.write_jsonl(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }

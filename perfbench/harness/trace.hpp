// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's calls into each flexnets layer (topo,
// workload, fault, routing, sim, sim/pdes, transport, metrics, flow).
// Each span keeps its name, start, end, parent and run id; nothing is
// written until the run ends. With tracing off a Span reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into records(), -1 for a root span
    int run_id = 0;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  // Spans opened from now on belong to run `id` (one benchmark iteration).
  void set_run(int id) { run_id_ = id; }

  int open(const char* name) {
    const int id = static_cast<int>(records_.size());
    records_.push_back({name, wall_ns(), 0,
                        stack_.empty() ? -1 : stack_.back(), run_id_});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    records_[static_cast<std::size_t>(id)].end_ns = wall_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  // Duration minus the part of it covered by direct children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[i] = records_[i].end_ns - records_[i].start_ns;
    }
    for (const auto& r : records_) {
      if (r.parent >= 0) {
        self[static_cast<std::size_t>(r.parent)] -= r.end_ns - r.start_ns;
      }
    }
    return self;
  }

  // Total duration (seconds) of spans named `name` in run `run_id`.
  [[nodiscard]] double total_s(const std::string& name, int run_id) const {
    std::int64_t ns = 0;
    for (const auto& r : records_) {
      if (r.run_id == run_id && r.name == name) ns += r.end_ns - r.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  // One JSON object per span, start/end relative to the first span.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto self = self_ns();
    const std::int64_t t0 = records_.empty() ? 0 : records_[0].start_ns;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"run\": %d, "
                   "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"self_ns\": %lld}\n",
                   i, r.name.c_str(), r.run_id, r.parent,
                   static_cast<long long>(r.start_ns - t0),
                   static_cast<long long>(r.end_ns - t0),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int run_id_ = 0;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

// RAII span; a no-op while the tracer is off.
class Span {
 public:
  Span(Tracer& t, const char* name)
      : t_(t), id_(t.enabled() ? t.open(name) : -1) {}
  ~Span() {
    if (id_ >= 0) t_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench

#include "perf_json.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace flexnets::bench {

namespace {

// Doubles that are whole numbers (counts, call totals) print as integers;
// everything else keeps full round-trip precision.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string case_line(const PerfCase& c) {
  std::string out = "    {\"name\": \"" + escape(c.name) + "\"";
  for (const auto& [key, value] : c.metrics) {
    out += ", \"" + escape(key) + "\": " + format_number(value);
  }
  out += "}";
  return out;
}

bool write_document(const std::string& path, const std::string& bench_name,
                    const std::vector<std::string>& case_lines,
                    std::size_t case_count) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_json: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"schema_version\": 1,\n"
               "  \"host_cores\": %u,\n  \"peak_rss_kb\": %s,\n"
               "  \"cases\": [\n",
               escape(bench_name).c_str(), std::thread::hardware_concurrency(),
               format_number(peak_rss_kb()).c_str());
  for (std::size_t i = 0; i < case_lines.size(); ++i) {
    std::fprintf(f, "%s%s\n", case_lines[i].c_str(),
                 i + 1 < case_lines.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %zu case(s) to %s\n", case_count, path.c_str());
  return true;
}

// The case name of a "    {\"name\": \"...\"" line, or empty.
std::string parse_case_name(const std::string& line) {
  const std::string prefix = "    {\"name\": \"";
  if (line.rfind(prefix, 0) != 0) return {};
  const auto end = line.find('"', prefix.size());
  if (end == std::string::npos) return {};
  return line.substr(prefix.size(), end - prefix.size());
}

}  // namespace

double monotonic_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kb = 0.0;
      if (std::sscanf(line.c_str(), "VmHWM: %lf", &kb) == 1) return kb;
    }
  }
  return 0.0;
}

bool write_perf_json(const std::string& path, const std::string& bench_name,
                     const std::vector<PerfCase>& cases) {
  std::vector<std::string> lines;
  lines.reserve(cases.size());
  for (const auto& c : cases) lines.push_back(case_line(c));
  return write_document(path, bench_name, lines, cases.size());
}

bool append_perf_json(const std::string& path, const std::string& bench_name,
                      const std::vector<PerfCase>& cases) {
  std::ifstream in(path);
  if (!in) return write_perf_json(path, bench_name, cases);

  // Preserve the existing bench name and case lines (minus any case being
  // replaced); the file is our own write_perf_json format, so line-wise
  // parsing is exact, and anything unexpected falls back to a fresh write.
  std::string existing_bench = bench_name;
  std::vector<std::string> lines;
  bool saw_cases_open = false;
  bool saw_cases_close = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  \"bench\": \"", 0) == 0) {
      const auto end = line.rfind('"');
      existing_bench = line.substr(12, end - 12);
    } else if (line == "  \"cases\": [") {
      saw_cases_open = true;
    } else if (saw_cases_open && !saw_cases_close) {
      if (line == "  ]") {
        saw_cases_close = true;
        continue;
      }
      auto name = parse_case_name(line);
      if (name.empty()) return write_perf_json(path, bench_name, cases);
      bool replaced = false;
      for (const auto& c : cases) {
        if (c.name == name) {
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        if (!line.empty() && line.back() == ',') line.pop_back();
        lines.push_back(line);
      }
    }
  }
  if (!saw_cases_close) return write_perf_json(path, bench_name, cases);

  for (const auto& c : cases) lines.push_back(case_line(c));
  return write_document(path, existing_bench, lines, cases.size());
}

bool parse_json_flag(int argc, char** argv, const std::string& default_path,
                     std::string* out_path) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      *out_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1]
                                                          : default_path;
      return true;
    }
  }
  return false;
}

}  // namespace flexnets::bench

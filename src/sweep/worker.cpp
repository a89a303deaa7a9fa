#include "sweep/worker.hpp"

#include <string>

#include "common/check.hpp"
#include "sweep/grid.hpp"
#include "sweep/process_supervisor.hpp"

namespace flexnets::sweep {

namespace {

// Newline-delimited reader over a raw fd. Frames are small (a lease is
// ~40 bytes), so a modest chunk size keeps latency low without syscall
// churn.
struct LineReader {
  int fd;
  std::string buf;

  // False on EOF or read error. A torn final line (no trailing newline)
  // is treated as EOF: the coordinator died mid-write.
  bool next(std::string* line) {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf, 0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const std::ptrdiff_t r =
          ProcessSupervisor::read_some(fd, chunk, sizeof(chunk));
      if (r <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(r));
    }
  }
};

bool send(int fd, std::string frame) {
  frame += '\n';
  return ProcessSupervisor::write_all(fd, frame);
}

}  // namespace

int run_worker(const WorkerOptions& opts) {
  // Checks throw for the whole serving loop, so contain_point can turn an
  // escaped check into a structured kInternal record.
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  if (!send(opts.result_fd, format_ready_frame())) return 1;
  LineReader reader{opts.lease_fd, {}};
  std::string line;
  while (reader.next(&line)) {
    auto frame = parse_wire_frame(line);
    if (!frame.ok()) {
      send(opts.result_fd, format_error_frame(frame.status().message()));
      return 2;
    }
    if (frame->type == FrameType::kShutdown) return 0;
    if (frame->type != FrameType::kLease) {
      send(opts.result_fd,
           format_error_frame("worker expected lease/shutdown, got frame type " +
                              std::to_string(static_cast<int>(frame->type))));
      return 2;
    }
    if (frame->index >= opts.num_points) {
      send(opts.result_fd,
           format_error_frame("lease index " + std::to_string(frame->index) +
                              " out of range (n=" +
                              std::to_string(opts.num_points) + ")"));
      return 2;
    }
    if (!send(opts.result_fd, format_start_frame(frame->index, frame->attempt))) {
      return 1;
    }
    // Deterministic fault injection (ci.sh chaos gate, tests/sweep):
    // crash/hang fire on the first attempt only, so the retry recovers and
    // the merged digest still equals the serial run's. FLEXNETS_FAIL_AT
    // fails on EVERY attempt — the quarantine path's test hook.
    if (ProcessSupervisor::injection_hit("FLEXNETS_CRASH_AT", frame->index,
                                         frame->attempt)) {
      ProcessSupervisor::hard_crash();
    }
    if (ProcessSupervisor::injection_hit("FLEXNETS_HANG_AT", frame->index,
                                         frame->attempt)) {
      ProcessSupervisor::hang_forever();
    }
    core::JournalRecord rec;
    if (ProcessSupervisor::injection_hit("FLEXNETS_FAIL_AT", frame->index,
                                         /*attempt=*/1)) {
      rec.key = opts.key_prefix + "/" + std::to_string(frame->index);
      rec.code = StatusCode::kInternal;
      rec.message = "injected failure (FLEXNETS_FAIL_AT)";
    } else {
      rec = contain_point(opts.fn, opts.key_prefix, frame->index);
    }
    if (!send(opts.result_fd,
              format_result_frame(frame->index, frame->attempt, rec))) {
      return 1;
    }
  }
  return 0;  // EOF: the coordinator closed the lease pipe
}

}  // namespace flexnets::sweep

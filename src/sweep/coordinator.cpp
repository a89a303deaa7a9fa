#include "sweep/coordinator.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sweep/lease_table.hpp"
#include "sweep/process_supervisor.hpp"
#include "sweep/wire.hpp"

namespace flexnets::sweep {

namespace {

// Upper bound on the event loop's poll sleep: deaths, deadline expiries,
// and elapsed backoffs are re-checked at least this often.
constexpr int kMaxPollMs = 200;

struct Slot {
  WorkerProcess proc;
  bool ready = false;  // saw the worker's `ready` frame
  std::optional<std::size_t> leased;
  int attempt = 0;
  std::int64_t lease_start_ms = 0;
  std::string rbuf;  // partial-line carry between reads

  void reset() {
    proc = WorkerProcess{};
    ready = false;
    leased.reset();
    attempt = 0;
    rbuf.clear();
  }
};

std::int64_t deadline_ms_from_env(std::int64_t fallback) {
  const char* e = std::getenv("FLEXNETS_SWEEP_DEADLINE_MS");
  if (e == nullptr || *e == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(e, &end, 10);
  if (end == e || *end != '\0' || v <= 0) return fallback;
  return static_cast<std::int64_t>(v);
}

// Everything run_sharded juggles, so helpers can mutate coherently.
struct Coordinator {
  const ShardedOptions& opts;
  std::size_t n;
  ProcessSupervisor sup;
  LeaseTable table;
  std::vector<Slot> slots;
  std::vector<core::JournalRecord> records;
  GridResult result;
  std::int64_t deadline_ms;
  std::size_t lease_count = 0;       // chaos-kill cadence
  std::size_t deaths_since_progress = 0;
  std::uint64_t chaos_counter = 0;

  Coordinator(std::size_t n_in, const ShardedOptions& o)
      : opts(o),
        n(n_in),
        table(n_in, o.max_attempts, o.backoff_base_ms),
        slots(static_cast<std::size_t>(std::max(1, o.workers))),
        records(n_in),
        deadline_ms(deadline_ms_from_env(o.heartbeat_deadline_ms)) {}

  [[nodiscard]] std::string key_of(std::size_t i) const {
    return opts.key_prefix + "/" + std::to_string(i);
  }

  // Finalize a point: store its record (stamping retry metadata) and
  // journal it durably. Only the coordinator writes the merged journal.
  Status finalize(std::size_t index, int attempt,
                  core::JournalRecord rec) {
    if (attempt > 1) rec.attempt = attempt;
    records[index] = rec;
    if (opts.journal != nullptr) {
      Status s = opts.journal->append(rec);
      if (!s.ok()) return s;
    }
    ++result.computed;
    deaths_since_progress = 0;
    return {};
  }

  // A leased point's worker vanished (crash, hang-kill, chaos) with the
  // verdict `why`. Retryable by definition (kInternal): reschedule or
  // quarantine with a synthesized structured record.
  Status fail_inflight(Slot* slot, const std::string& why) {
    const std::size_t index = *slot->leased;
    const int attempt = slot->attempt;
    slot->leased.reset();
    const PointState state =
        table.settle(index, StatusCode::kInternal, ProcessSupervisor::now_ms());
    if (state == PointState::kQuarantined) {
      core::JournalRecord rec;
      rec.key = key_of(index);
      rec.code = StatusCode::kInternal;
      rec.message = "quarantined after " + std::to_string(attempt) +
                    " attempts; last: " + why;
      return finalize(index, attempt, std::move(rec));
    }
    return {};  // kPending: requeued with backoff
  }

  // Worker death/violation cleanup. `why` travels into the in-flight
  // point's failure (if any). The slot respawns on the next loop pass.
  Status on_worker_gone(Slot* slot, const std::string& why) {
    ++result.worker_deaths;
    ++deaths_since_progress;
    Status s;
    if (slot->leased.has_value()) s = fail_inflight(slot, why);
    sup.kill_and_reap(&slot->proc);
    slot->reset();
    return s;
  }

  Status handle_frame(Slot* slot, const std::string& line) {
    auto frame = parse_wire_frame(line);
    Status order;
    if (frame.ok()) {
      order = validate_frame_order(*frame, slot->leased, slot->attempt);
    } else {
      order = frame.status();
    }
    if (order.ok() && frame->type == FrameType::kLease) {
      order = invalid_input_error("worker sent a lease frame");
    }
    if (order.ok() && frame->type == FrameType::kShutdown) {
      order = invalid_input_error("worker sent a shutdown frame");
    }
    if (order.ok() && frame->type == FrameType::kError) {
      order = invalid_input_error("worker error: ", frame->message);
    }
    if (!order.ok()) {
      // Protocol violation: the channel can no longer be trusted. The
      // worker dies; its in-flight point retries on a fresh one.
      return on_worker_gone(slot, order.message());
    }
    switch (frame->type) {
      case FrameType::kReady:
        slot->ready = true;
        return {};
      case FrameType::kStart:
        // Heartbeat: the worker picked the lease up; the hang deadline
        // runs from here.
        slot->lease_start_ms = ProcessSupervisor::now_ms();
        return {};
      case FrameType::kResult: {
        auto rec = core::parse_json_line(frame->record);
        if (!rec.ok() || rec->key != key_of(frame->index)) {
          return on_worker_gone(
              slot, !rec.ok() ? "unparseable result record: " +
                                    rec.status().message()
                              : "result key '" + rec->key +
                                    "' does not match lease " +
                                    key_of(frame->index));
        }
        const std::size_t index = *slot->leased;
        const int attempt = slot->attempt;
        slot->leased.reset();
        const PointState state =
            table.settle(index, rec->code, ProcessSupervisor::now_ms());
        if (state == PointState::kDone) {
          return finalize(index, attempt, std::move(*rec));
        }
        if (state == PointState::kQuarantined) {
          return finalize(index, attempt, std::move(*rec));
        }
        // kPending: a contained kInternal — the worker's process state is
        // suspect (a check fired mid-mutation), so the retry gets a FRESH
        // worker, same as after a crash.
        sup.kill_and_reap(&slot->proc);
        slot->reset();
        return {};
      }
      case FrameType::kLease:
      case FrameType::kShutdown:
      case FrameType::kError:
        break;  // rejected above
    }
    return {};
  }

  Status drain_slot(Slot* slot) {
    char chunk[4096];
    const std::ptrdiff_t r =
        ProcessSupervisor::read_some(slot->proc.result_rd, chunk,
                                     sizeof(chunk));
    if (r <= 0) {
      std::string detail = "result pipe closed";
      sup.try_reap(&slot->proc, &detail);
      return on_worker_gone(slot, detail);
    }
    slot->rbuf.append(chunk, static_cast<std::size_t>(r));
    for (;;) {
      const std::size_t nl = slot->rbuf.find('\n');
      if (nl == std::string::npos) return {};
      const std::string line = slot->rbuf.substr(0, nl);
      slot->rbuf.erase(0, nl + 1);
      Status s = handle_frame(slot, line);
      if (!s.ok()) return s;
      if (!slot->proc.alive()) return {};  // handle_frame tore it down
    }
  }

  void chaos_maybe_kill() {
    if (opts.chaos_kill_every <= 0) return;
    if (lease_count % static_cast<std::size_t>(opts.chaos_kill_every) != 0) {
      return;
    }
    std::vector<Slot*> live;
    for (Slot& s : slots) {
      if (s.proc.alive()) live.push_back(&s);
    }
    if (live.empty()) return;
    const std::uint64_t pick =
        hash_words(opts.chaos_seed, ++chaos_counter) % live.size();
    // No reap: the kill is discovered through pipe hangup like any
    // organic crash, which is exactly what the chaos test verifies.
    sup.kill_only(live[pick]->proc);
  }

  void shutdown_all() {
    for (Slot& slot : slots) {
      if (!slot.proc.alive()) continue;
      ProcessSupervisor::write_all(slot.proc.lease_wr,
                                   format_shutdown_frame() + "\n");
      sup.kill_and_reap(&slot.proc);
      slot.reset();
    }
  }

  Status orchestrate() {
    // Resume: journaled points are settled before any worker spawns.
    if (opts.completed != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto it = opts.completed->find(key_of(i));
        if (it == opts.completed->end()) continue;
        table.restore(i);
        records[i] = it->second;
        ++result.restored;
      }
    }
    const std::size_t death_cap =
        std::max<std::size_t>(8, slots.size() *
                                     static_cast<std::size_t>(
                                         std::max(1, opts.max_attempts)));
    while (!table.all_settled()) {
      // Respawn dead slots while unfinished points remain. A binary that
      // cannot even exec shows up as an immediate-death loop; the cap
      // turns that into a structured error instead of a spin.
      if (deaths_since_progress > death_cap) {
        shutdown_all();
        return internal_error(
            "sweep coordinator: ", deaths_since_progress,
            " consecutive worker deaths with no completed point; giving up");
      }
      for (Slot& slot : slots) {
        if (slot.proc.alive()) continue;
        auto spawned = sup.spawn(opts.exec_path, opts.args);
        if (!spawned.ok()) {
          shutdown_all();
          return spawned.status();
        }
        slot.proc = *spawned;
      }
      // Assign leases to idle ready workers, lowest point index first.
      const std::int64_t now = ProcessSupervisor::now_ms();
      for (Slot& slot : slots) {
        if (!slot.proc.alive() || !slot.ready || slot.leased.has_value()) {
          continue;
        }
        const auto lease = table.acquire(now);
        if (!lease.has_value()) break;  // nothing ready (backoff or done)
        slot.leased = lease->index;
        slot.attempt = lease->attempt;
        slot.lease_start_ms = now;
        ++lease_count;
        if (!ProcessSupervisor::write_all(
                slot.proc.lease_wr,
                format_lease_frame(lease->index, lease->attempt) + "\n")) {
          // The worker died before the lease reached it: the attempt
          // never ran, so hand it back rather than burning a retry.
          table.release(lease->index);
          slot.leased.reset();
          Status s = on_worker_gone(&slot, "died before lease delivery");
          if (!s.ok()) {
            shutdown_all();
            return s;
          }
          continue;
        }
        chaos_maybe_kill();
      }
      // Wait for results, bounded so deadlines and backoffs stay live.
      std::vector<int> fds(slots.size(), -1);
      for (std::size_t k = 0; k < slots.size(); ++k) {
        if (slots[k].proc.alive()) fds[k] = slots[k].proc.result_rd;
      }
      int timeout = kMaxPollMs;
      for (const Slot& slot : slots) {
        if (!slot.leased.has_value()) continue;
        const std::int64_t remain =
            slot.lease_start_ms + deadline_ms - ProcessSupervisor::now_ms();
        timeout = std::min<int>(
            timeout, static_cast<int>(std::max<std::int64_t>(0, remain)));
      }
      for (const std::size_t k :
           ProcessSupervisor::poll_readable(fds, timeout)) {
        Status s = drain_slot(&slots[k]);
        if (!s.ok()) {
          shutdown_all();
          return s;
        }
      }
      // Hang detection: a lease past its deadline forfeits the worker.
      const std::int64_t after = ProcessSupervisor::now_ms();
      for (Slot& slot : slots) {
        if (!slot.proc.alive() || !slot.leased.has_value()) continue;
        if (after - slot.lease_start_ms <= deadline_ms) continue;
        Status s = on_worker_gone(
            &slot, "hung: no result within " + std::to_string(deadline_ms) +
                       " ms of lease");
        if (!s.ok()) {
          shutdown_all();
          return s;
        }
      }
    }
    shutdown_all();
    result.retries = table.retries();
    result.quarantined = table.quarantined();
    for (std::size_t i = 0; i < n; ++i) {
      FLEXNETS_CHECK(!records[i].key.empty(),
                     "sweep coordinator: point ", i, " settled without a record");
    }
    result.records = std::move(records);
    return {};
  }
};

}  // namespace

StatusOr<GridResult> run_sharded(std::size_t n,
                                    const ShardedOptions& opts) {
  if (opts.exec_path.empty()) {
    return invalid_input_error("run_sharded: empty exec_path");
  }
  if (opts.workers < 1) {
    return invalid_input_error("run_sharded: workers must be >= 1, got ",
                               opts.workers);
  }
  Coordinator coord(n, opts);
  Status s = coord.orchestrate();
  if (!s.ok()) return s;
  return std::move(coord.result);
}

}  // namespace flexnets::sweep

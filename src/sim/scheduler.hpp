// Discrete-event scheduler: the single source of time for the whole
// architecture.
//
// The paper targets a wide-area deployment; reproducing it on one
// machine requires virtualising the network (DESIGN.md §2).  Every
// asynchronous action — message delivery, sensor ticks, monitoring
// sweeps, cache expiry — is an event on one scheduler queue, executed
// in deterministic order on the calling thread.
//
// Ordering is CONTENT-KEYED, not insertion-keyed: each task carries
// (time, owner, owner_seq) where `owner` is the host whose execution
// scheduled it (or kGlobalOwner for tasks scheduled from outside any
// event — test drivers, churn timers) and `owner_seq` is a per-owner
// counter.  Two properties follow:
//   1. Runs behave like the classic (time, FIFO) scheduler when
//      everything is scheduled from root context (all one owner).
//   2. A task's key depends only on its owner's own history, never on
//      how unrelated hosts' work interleaves, so observers can hang
//      deterministic decisions off it (trace sampling keys off
//      current_task_key(); see DESIGN.md §10 for why the order stays).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"

namespace aa::obs {
class Profiler;
}

namespace aa::sim {

/// Identifies a scheduled task so it can be cancelled.
using TaskId = std::uint64_t;
constexpr TaskId kInvalidTask = 0;

class Scheduler {
 public:
  /// Owner of tasks scheduled from outside any event (root context).
  static constexpr std::uint32_t kGlobalOwner = 0xFFFFFFFFu;

  Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time: the executing event's time inside a handler,
  /// the high-water mark outside one.
  SimTime now() const { return ctx_.in_task ? ctx_.now : now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now()).
  /// The task executes as the host whose event scheduled it.
  TaskId at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` after `delay` from now (negative delays clamp to 0).
  TaskId after(SimDuration delay, std::function<void()> fn);

  /// Schedules `fn` every `period`, starting after `period`.  The task
  /// keeps rescheduling itself until cancelled.  The callback lives in
  /// the scheduler (not in the queued closures), so cancel() — or
  /// destroying the scheduler — releases whatever state it captured.
  /// Periods below 1us clamp to 1us: a zero period would reschedule at
  /// a frozen virtual time and run() could never drain.
  TaskId every(SimDuration period, std::function<void()> fn);

  /// Schedules `fn` at `t` executing as `host`: tasks it schedules are
  /// owned by `host`.  Used by the network to hand a delivery to the
  /// destination host.  The ordering key is taken from the *scheduling*
  /// context, so deliveries from one sender stay FIFO per link.
  TaskId post_to_host(std::uint32_t host, SimTime t, std::function<void()> fn);

  /// Cancels a pending (or periodic) task.  Cancelling an already-run
  /// one-shot task is a harmless no-op (and does not corrupt pending():
  /// only ids actually in the queue are marked).  A cancelled periodic
  /// task's callback is destroyed immediately.
  void cancel(TaskId id);

  /// Runs events until the queue is empty.  Returns final time.
  SimTime run();

  /// Runs events with time <= deadline; leaves later events queued and
  /// sets now() = deadline.
  SimTime run_until(SimTime deadline);

  /// Runs for `d` beyond current time.
  SimTime run_for(SimDuration d) { return run_until(now() + d); }

  /// Executes a single event if one is pending; returns false when idle.
  bool step();

  /// Tasks queued and not cancelled.
  std::size_t pending() const { return heap_.size() - cancelled_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  /// Declares the host population (called by Network's constructor) so
  /// per-host ordering counters exist.  Growing is allowed; shrinking
  /// is ignored.
  void bind_hosts(std::uint32_t count);

  // --- Observability hooks (obs/ tracing + profiling) ---

  /// Content-based identity of the executing task, so observers can key
  /// deterministic decisions (trace sampling) off it.  Outside any task
  /// the rank/seq are zero (root context) and `time` is the high-water
  /// mark.
  struct TaskKey {
    SimTime time = 0;
    std::uint64_t owner_rank = 0;  // 0 = global/root, host h = h + 1
    std::uint64_t oseq = 0;
  };
  TaskKey current_task_key() const {
    if (ctx_.in_task) return {ctx_.now, ctx_.owner_rank, ctx_.oseq};
    return {now_, 0, 0};
  }

  /// Attaches a wall-clock profiler (nullptr detaches).  The scheduler
  /// times every task closure and snapshots counters at the end of each
  /// run.  Observation-only: execution order is unchanged.  The
  /// profiler must outlive the scheduler or be detached first.
  void set_profiler(obs::Profiler* p);

 private:
  struct Entry {
    SimTime time = 0;
    std::uint64_t owner_rank = 0;  // 0 = global, host h = h + 1
    std::uint64_t oseq = 0;        // per-owner counter: FIFO per owner
    TaskId id = kInvalidTask;
    std::uint32_t host = kGlobalOwner;  // executing host, or global
    std::function<void()> fn;
  };
  /// Strict weak order for a MIN-heap via std::*_heap with this as
  /// "greater": the heap front is the earliest (time, owner, oseq).
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.owner_rank != b.owner_rank) return a.owner_rank > b.owner_rank;
      return a.oseq > b.oseq;
    }
  };

  struct Periodic {
    SimDuration period;
    std::uint32_t owner = kGlobalOwner;
    std::function<void()> fn;
  };

  /// Execution context of the running task (in_task false at root).
  struct Ctx {
    bool in_task = false;
    std::uint32_t host = kGlobalOwner;  // ambient owner for spawned tasks
    SimTime now = 0;
    std::uint64_t owner_rank = 0;  // key of the executing task
    std::uint64_t oseq = 0;
  };

  /// Owner of tasks scheduled now: the executing host, or global.
  std::uint32_t current_owner() const { return ctx_.in_task ? ctx_.host : kGlobalOwner; }
  /// Stamps `e` with `owner`'s next (owner_rank, oseq) key.
  void stamp(Entry& e, std::uint32_t owner);
  TaskId make_task(std::uint32_t owner, std::uint32_t host, SimTime t,
                   std::function<void()> fn);
  void push_entry(Entry e);
  /// Pops cancelled entries off the heap front; the next live entry's
  /// time, or false when empty.
  bool peek_live(SimTime& t);
  /// Pops the live heap front (precondition: peek_live was true).
  Entry pop_front();
  void run_periodic(TaskId id);
  void execute(Entry e);
  SimTime run_until_impl(SimTime deadline, bool bounded);

  std::vector<Entry> heap_;  // binary min-heap (After comparator)
  std::unordered_set<TaskId> queued_;     // ids currently in `heap_`
  std::unordered_set<TaskId> cancelled_;  // queued ids awaiting discard
  std::unordered_map<TaskId, Periodic> periodic_;
  std::uint64_t executed_ = 0;
  std::uint32_t bound_hosts_ = 0;
  // Per-owner scheduling counters (slot h for host h; kGlobalOwner has
  // its own counter).
  std::vector<std::uint64_t> owner_seq_;
  std::uint64_t global_seq_ = 0;
  SimTime now_ = 0;  // high-water mark visible outside events
  Ctx ctx_;

  obs::Profiler* profiler_ = nullptr;  // null = profiling off
};

}  // namespace aa::sim

// Scheduler profiler: per-shard wall-clock attribution for the
// parallel discrete-event core.
//
// The C1(d) scaling curve showed sharding *costing* time on small
// machines (0.68x at 2 shards) with nothing saying where the time went.
// This profiler answers that: each scheduler slot (one per shard plus
// the global slot) accumulates wall-clock nanoseconds split into
//   - busy: inside task closures (counted per task by the scheduler),
//   - barrier_wait: epoch wall time minus the slot's own busy time —
//     what a shard spent parked at the epoch barrier,
//   - serialization: wall time inside run_sync_timestamp, the global-
//     task serialization points (charged to the global slot),
//   - merge: wall time draining cross-shard outboxes at barriers,
// plus a per-subsystem breakdown (broker route/match, store, overlay
// routing and upkeep, transport, pipeline, ...) fed by
// Network::SpanScope with *self time* semantics: a nested scope pauses
// its parent, so broker `match` time is not double-counted inside
// broker `route`.
//
// Like tracing, profiling is opt-in and observation-only: it reads
// clocks and bumps slot-local counters but never changes what the
// scheduler executes, so digests are bit-identical with it on or off
// (pinned by the chaos suite).  Wall-clock values themselves are of
// course machine-dependent — snapshot tooling treats them as noisy.
//
// Thread-safety: slot state is only written by the thread driving that
// slot during an epoch; barrier-level attribution (note_epoch, sample,
// the exporters) runs on the coordinator with workers parked, ordered
// by the scheduler's barrier handshake.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace aa::obs {

/// Fixed subsystem buckets for scoped attribution.  Mapping from span
/// vocabulary (component, action) is in bucket_for().
enum class ProfileBucket : std::uint8_t {
  kBrokerRoute = 0,
  kBrokerMatch,
  kStore,
  kOverlay,
  /// Overlay upkeep: join, announce and leaf-gossip handling plus the
  /// maintenance tick.  Charged through a bare Profiler::Scope (no
  /// span), so bucket_for() never returns it and traces are unchanged.
  kOverlayMaint,
  kTransport,
  kPipeline,
  kDeploy,
  kClient,
  kOther,
};
constexpr std::size_t kProfileBucketCount =
    static_cast<std::size_t>(ProfileBucket::kOther) + 1;

/// Snake-case name used for metrics keys and counter-track series.
std::string_view bucket_name(ProfileBucket b);

/// Maps a span's (component, action) to its bucket; unknown components
/// land in kOther.
ProfileBucket bucket_for(std::string_view component, std::string_view action);

class Profiler {
 public:
  struct SlotCounters {
    std::uint64_t tasks = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t serialization_ns = 0;
    std::uint64_t merge_ns = 0;
    std::uint64_t bucket_ns[kProfileBucketCount] = {};
  };
  /// One periodic snapshot: cumulative counters for every slot at a
  /// virtual time (taken at epoch barriers and at end of run).
  struct Sample {
    SimTime t = 0;
    std::vector<SlotCounters> slots;
  };

  /// Grows to `n` slots (never shrinks; ids/counters survive re-binds).
  /// Root context only.
  void bind_slots(std::uint32_t n);
  std::uint32_t slot_count() const { return static_cast<std::uint32_t>(slots_.size()); }

  // --- Scheduler hooks (hot path; slot-local) ---

  /// One task executed on `slot` for `ns` wall nanoseconds.
  void note_task(std::uint32_t slot, std::uint64_t ns) {
    if (slot >= slots_.size()) return;
    SlotState& st = slots_[slot];
    ++st.c.tasks;
    st.c.busy_ns += ns;
    st.epoch_busy_ns += ns;
  }
  /// Epoch barrier reached after `wall_ns`: every host slot's idle
  /// remainder is barrier-wait.  Coordinator only, workers parked.
  void note_epoch(std::uint64_t wall_ns, std::uint32_t host_slots);
  /// Wall time inside a run_sync_timestamp serialization point.
  void note_serialization(std::uint32_t slot, std::uint64_t ns) {
    if (slot < slots_.size()) slots_[slot].c.serialization_ns += ns;
  }
  /// Wall time merging cross-shard outboxes at a barrier.
  void note_merge(std::uint32_t slot, std::uint64_t ns) {
    if (slot < slots_.size()) slots_[slot].c.merge_ns += ns;
  }

  // --- Scoped subsystem attribution (self-time) ---

  /// RAII bucket scope.  Nesting pauses the parent: each scope is
  /// charged only the wall time no inner scope claims.  A null profiler
  /// makes it a no-op, so call sites need no branching.
  class Scope {
   public:
    Scope(Profiler* p, std::uint32_t slot, ProfileBucket bucket);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* p_ = nullptr;
    std::uint32_t slot_ = 0;
    ProfileBucket bucket_;
    Scope* parent_ = nullptr;
    std::uint64_t mark_ns_ = 0;
  };

  // --- Periodic sampling (ring buffer) ---

  /// Appends a cumulative snapshot at virtual time `t`; oldest samples
  /// fall off beyond the retention cap.  Coordinator/root context only.
  void sample(SimTime t);
  void set_sample_retention(std::size_t n) { retention_ = n; }
  const std::deque<Sample>& samples() const { return samples_; }

  // --- Reads (root context only) ---

  const SlotCounters& counters(std::uint32_t slot) const { return slots_[slot].c; }
  SlotCounters totals() const;
  /// Drops all counters and samples; keeps the slot layout.
  void reset();

  /// Perfetto counter tracks ("C" events, one track pair per slot:
  /// "sched" for busy/barrier/serialization/merge and "buckets" for the
  /// subsystem split, values in cumulative µs) plus process/thread
  /// naming metadata, appended to a Chrome trace_event stream.  The
  /// synthetic pid keeps the scheduler rows clear of host pids.
  void write_chrome_events(std::ostream& out, bool& first) const;
  static constexpr std::uint64_t kChromePid = 1000000;

 private:
  friend class Scope;
  struct alignas(64) SlotState {
    SlotCounters c;
    std::uint64_t epoch_busy_ns = 0;  // reset at each barrier
    Scope* active = nullptr;          // innermost open scope
  };
  static std::uint64_t now_ns();

  std::vector<SlotState> slots_{1};
  std::deque<Sample> samples_;
  std::size_t retention_ = 4096;
};

}  // namespace aa::obs

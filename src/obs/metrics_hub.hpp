// Unified metrics hub: snapshots every component's *Stats struct into
// one namespaced sim::MetricsRegistry.
//
// Each layer keeps counters (BrokerStats, NetworkStats, ...), and the
// paper's evolution engine "monitors the running system" (§4.4/§4.6),
// so the hub reads the whole system at once: it copies each struct's
// counters into the registry under a dotted namespace
// ("net.messages_sent", "broker.deliveries", ...), and
// MetricsRegistry::to_json() exports the full picture.
//
// A counter is declared once, in its struct's fields() (common/
// stats.hpp); export_stats iterates that list, so a new field is
// exported as soon as it is listed, and the build fails if it is not.
// Header-only: the hub uses the simulator's registry and scheduler,
// which the low-level aa_obs library must not link against.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"

namespace aa::obs {

/// Adds each counter (and derived value) of `s` to `reg` as "ns.key".
template <typename S>
void export_stats(sim::MetricsRegistry& reg, const std::string& ns, const S& s) {
  const auto add = [&](std::string_view key, std::uint64_t value) {
    std::string name = ns;
    name += '.';
    name += key;
    reg.add(name, value);
  };
  for (const StatField<S>& f : stat_fields<S>()) add(f.key, s.*f.member);
  if constexpr (requires { S::derived(); }) {
    for (const DerivedStat<S>& d : S::derived()) add(d.key, d.value(s));
  }
}

/// Per-delivery trace metrics → "ns.deliveries" counter plus
/// "ns.hops" / "ns.total_us" / "ns.wire_us" / "ns.match_us" /
/// "ns.queue_us" histograms.  No-op when tracing is off.
inline void export_trace_metrics(sim::MetricsRegistry& reg, const std::string& ns,
                                 const TraceCollector& tracer) {
  const auto deliveries = tracer.delivery_metrics();
  reg.add(ns + ".deliveries", deliveries.size());
  for (const auto& d : deliveries) {
    reg.histogram(ns + ".hops").record(static_cast<double>(d.hops));
    reg.histogram(ns + ".total_us").record(static_cast<double>(d.total));
    reg.histogram(ns + ".wire_us").record(static_cast<double>(d.wire));
    reg.histogram(ns + ".match_us").record(static_cast<double>(d.match));
    reg.histogram(ns + ".queue_us").record(static_cast<double>(d.queue));
  }
}

/// Scheduler profiler counters → "ns.total.*" keys.  Wall-clock
/// nanoseconds are exported as integer microseconds (the registry holds
/// integers, and bench tooling treats *_us keys as noisy).
inline void export_profiler(sim::MetricsRegistry& reg, const std::string& ns,
                            const Profiler& prof) {
  const std::string prefix = ns + ".total";
  const Profiler::SlotCounters& c = prof.totals();
  reg.add(prefix + ".tasks", c.tasks);
  reg.add(prefix + ".busy_us", c.busy_ns / 1000);
  for (std::size_t b = 0; b < kProfileBucketCount; ++b) {
    reg.add(prefix + "." + std::string(bucket_name(static_cast<ProfileBucket>(b))) + "_us",
            c.bucket_ns[b] / 1000);
  }
}

/// Collects (namespace, snapshot-function) pairs; snapshot() replays
/// them into a fresh registry, so one hub built at setup time can be
/// snapshotted repeatedly as the simulation advances.
///
/// The hub can also record a *timeline*: start_timeline() registers a
/// periodic global task on the scheduler that snapshots every source at
/// a fixed virtual-time interval into a ring buffer, giving counters as
/// curves over virtual time instead of a single end-of-run total.  The
/// periodic task reschedules itself forever, so drive the simulation
/// with run_for()/run_until() (a bare run() would never drain) and call
/// stop_timeline() — or let the destructor do it — before the scheduler
/// is destroyed.
class MetricsHub {
 public:
  using Source = std::function<void(sim::MetricsRegistry&)>;

  void add_source(Source source) { sources_.push_back(std::move(source)); }

  /// Convenience: registers a stats struct by reference.  The referent
  /// must outlive the hub (true for the facade's members).
  template <typename Stats>
  void add_stats(const std::string& ns, const Stats& stats) {
    sources_.push_back([ns, &stats](sim::MetricsRegistry& reg) {
      export_stats(reg, ns, stats);
    });
  }

  /// Snapshot every source into `reg` (callers clear() it if they want
  /// a point-in-time snapshot rather than accumulation).
  void snapshot(sim::MetricsRegistry& reg) const {
    for (const Source& s : sources_) s(reg);
  }

  sim::MetricsRegistry snapshot() const {
    sim::MetricsRegistry reg;
    snapshot(reg);
    return reg;
  }

  std::size_t source_count() const { return sources_.size(); }

  // --- Timeline sampling ---

  /// One periodic snapshot: every source exported at virtual time `t`.
  struct TimelineEntry {
    SimTime t = 0;
    sim::MetricsRegistry metrics;
  };

  /// Samples all sources every `interval` of virtual time (starting at
  /// now + interval), keeping the most recent `retention` entries.
  /// Root context only; restarts (cancels the previous task) if already
  /// running.  The hub must not outlive `sched` while active.
  void start_timeline(sim::Scheduler& sched, SimDuration interval,
                      std::size_t retention = 1024) {
    stop_timeline();
    timeline_sched_ = &sched;
    timeline_retention_ = retention == 0 ? 1 : retention;
    timeline_task_ = sched.every(interval, [this] {
      timeline_.push_back({timeline_sched_->now(), snapshot()});
      while (timeline_.size() > timeline_retention_) timeline_.pop_front();
    });
  }

  /// Cancels the periodic task (root context only).  Recorded entries
  /// are kept; call clear_timeline() to drop them.
  void stop_timeline() {
    if (timeline_sched_ != nullptr) {
      timeline_sched_->cancel(timeline_task_);
      timeline_sched_ = nullptr;
    }
  }

  void clear_timeline() { timeline_.clear(); }
  bool timeline_active() const { return timeline_sched_ != nullptr; }
  const std::deque<TimelineEntry>& timeline() const { return timeline_; }

  /// One JSON object per line: {"t_us": <virtual time>, "metrics":
  /// <MetricsRegistry::to_json()>}.  JSONL streams into pandas /
  /// jq without holding the whole timeline in one document.
  void write_timeline_jsonl(std::ostream& out) const {
    for (const TimelineEntry& e : timeline_) {
      out << "{\"t_us\":" << e.t << ",\"metrics\":" << e.metrics.to_json()
          << "}\n";
    }
  }

  ~MetricsHub() { stop_timeline(); }
  MetricsHub() = default;
  MetricsHub(const MetricsHub&) = delete;
  MetricsHub& operator=(const MetricsHub&) = delete;

 private:
  std::vector<Source> sources_;
  std::deque<TimelineEntry> timeline_;
  sim::Scheduler* timeline_sched_ = nullptr;
  sim::TaskId timeline_task_{};
  std::size_t timeline_retention_ = 1024;
};

}  // namespace aa::obs

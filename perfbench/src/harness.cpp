#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <string>

#include "common/rng.hpp"

namespace perfbench {

double host_probe() {
  // One random cycle through 2^19 slots (Sattolo's shuffle): every step
  // is a cache miss the prefetcher cannot predict.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> cycle(std::size_t{1} << 19);
    std::iota(cycle.begin(), cycle.end(), 0u);
    Rng rng(99);
    for (std::size_t i = cycle.size() - 1; i > 0; --i) std::swap(cycle[i], cycle[rng.below(i)]);
    return cycle;
  }();
  static volatile std::uint64_t sink = 0;
  auto pass = [] {
    std::uint32_t at = 0;
    for (int i = 0; i < 200000; ++i) at = next[at];
    std::map<std::uint64_t, std::uint64_t> churn;
    Rng rng(7);
    for (std::uint64_t i = 0; i < 20000; ++i) churn[rng.below(10000)] += i;
    // A small event loop: timed callbacks in an ordered queue, each
    // carrying a heap-allocated string and scheduling its successor.
    std::multimap<std::uint64_t, std::function<void()>> queue;
    std::uint64_t now = 0, fired = 0, chars = 0;
    std::function<void(std::string)> schedule = [&](std::string tag) {
      queue.emplace(now + rng.below(1000), [&, tag] {
        chars += tag.size();
        if (++fired < 30000) schedule(tag.substr(1) + static_cast<char>('a' + rng.below(26)));
      });
    };
    for (std::size_t i = 0; i < 64; ++i) schedule(std::string(24 + i % 16, 'x'));
    while (!queue.empty() && fired < 30000) {
      const auto first = queue.begin();
      now = first->first;
      const std::function<void()> fn = std::move(first->second);
      queue.erase(first);
      fn();
    }
    sink = sink + at + churn.size() + chars;
  };
  pass();
  const auto t0 = Clock::now();
  pass();
  return seconds_since(t0);
}

void Iteration::add_segment(std::uint64_t n, double seconds) {
  ops += n;
  measured_s += seconds;
  segments.push_back({n, seconds, probe_host ? host_probe() : 0.0});
}

double Iteration::host_scale() const {
  std::vector<double> probes;
  for (const Segment& s : segments) probes.push_back(s.probe_s);
  const double probe = quantile(std::move(probes), 0.5);
  return probe > 0 ? kProbeReferenceS / probe : 0.0;
}

void Digest::add_net(const sim::NetworkStats& s) {
  for (std::uint64_t v : {s.messages_sent, s.messages_delivered, s.messages_dropped, s.bytes_sent,
                          s.duplicated, s.retransmits, s.dropped_by_fault, s.frames_sent,
                          s.batched_messages, s.batch_flushes}) {
    add(v);
  }
}

void start_measured_phase(sim::Network& net, bool traced) {
  net.reset_stats();
  if (!traced) return;
  net.enable_profiling();
  net.profiler()->reset();
  net.enable_tracing();
}

Metrics zero_layers() {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"sim.busy_s", "s"},
      {"sim.tasks_per_op", "count"},
      {"sim.unattributed_s", "s"},
      {"pubsub.match_s", "s"},
      {"pubsub.route_s", "s"},
      {"pubsub.client_s", "s"},
      {"event.probes_per_publish", "count"},
      {"event.probes_per_match", "count"},
      {"event.index_match_us", "us"},
      {"event.index_update_us", "us"},
      {"pubsub.transit_entries", "count"},
      {"pubsub.max_table_entries", "count"},
      {"pubsub.subs_forwarded", "count"},
      {"pubsub.subs_suppressed", "count"},
      {"pubsub.aggregate_updates", "count"},
      {"pubsub.aggregate_absorbed", "count"},
      {"wire.bytes_per_publish", "B"},
      {"net.batch_members_per_frame", "count"},
      {"overlay.route_s", "s"},
      {"overlay.route_hops_mean", "count"},
      {"overlay.ring_build_s", "s"},
      {"storage.store_s", "s"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.heal_pushes", "count"},
      {"storage.timeouts", "count"},
      {"match.engine_us_per_event", "us"},
      {"match.candidates_per_event", "count"},
      {"pipeline.put_s", "s"},
      {"gloss.facts_s", "s"},
      {"gloss.deploy_s", "s"},
      {"gloss.subscribe_s", "s"},
      {"deploy.deploy_s", "s"},
      {"latency.wire_ms", "ms"},
      {"latency.match_ms", "ms"},
      {"latency.queue_ms", "ms"},
  };
  Metrics out;
  for (const auto& [name, unit] : kLayers) out[name] = Metric{0, unit, 0};
  return out;
}

void read_sim_layers(const sim::Network& net, const Iteration& it, std::uint64_t publishes,
                     Metrics& out) {
  auto set = [&out](const std::string& name, double value, std::uint64_t samples) {
    out.at(name).value = value;
    out.at(name).samples = samples;
  };
  if (const obs::Profiler* prof = net.profiler()) {
    const obs::Profiler::SlotCounters c = prof->totals();
    auto bucket_s = [&c](obs::ProfileBucket b) {
      return static_cast<double>(c.bucket_ns[static_cast<std::size_t>(b)]) / 1e9;
    };
    std::uint64_t attributed = 0;
    for (std::uint64_t ns : c.bucket_ns) attributed += ns;
    set("sim.busy_s", static_cast<double>(c.busy_ns) / 1e9, c.tasks);
    set("sim.tasks_per_op",
        it.ops > 0 ? static_cast<double>(c.tasks) / static_cast<double>(it.ops) : 0, it.ops);
    set("sim.unattributed_s",
        c.busy_ns > attributed ? static_cast<double>(c.busy_ns - attributed) / 1e9 : 0, c.tasks);
    set("pubsub.match_s", bucket_s(obs::ProfileBucket::kBrokerMatch), c.tasks);
    set("pubsub.route_s", bucket_s(obs::ProfileBucket::kBrokerRoute), c.tasks);
    set("pubsub.client_s", bucket_s(obs::ProfileBucket::kClient), c.tasks);
    set("overlay.route_s", bucket_s(obs::ProfileBucket::kOverlay), c.tasks);
    set("storage.store_s", bucket_s(obs::ProfileBucket::kStore), c.tasks);
    set("pipeline.put_s", bucket_s(obs::ProfileBucket::kPipeline), c.tasks);
    set("deploy.deploy_s", bucket_s(obs::ProfileBucket::kDeploy), c.tasks);
  }
  if (const obs::TraceCollector* tracer = net.tracer()) {
    const auto deliveries = tracer->delivery_metrics();
    double wire = 0, match = 0, queue = 0;
    for (const auto& d : deliveries) {
      wire += static_cast<double>(d.wire);
      match += static_cast<double>(d.match);
      queue += static_cast<double>(d.queue);
    }
    const double n = deliveries.empty() ? 1.0 : static_cast<double>(deliveries.size());
    set("latency.wire_ms", wire / n / 1e3, deliveries.size());
    set("latency.match_ms", match / n / 1e3, deliveries.size());
    set("latency.queue_ms", queue / n / 1e3, deliveries.size());
  }
  if (publishes > 0) {
    set("wire.bytes_per_publish",
        static_cast<double>(it.net.bytes_sent) / static_cast<double>(publishes), publishes);
  }
  if (it.net.frames_sent > 0) {
    set("net.batch_members_per_frame",
        static_cast<double>(it.net.batched_messages) / static_cast<double>(it.net.frames_sent),
        it.net.frames_sent);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench

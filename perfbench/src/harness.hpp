// Shared plumbing of the contextual-service benchmark: options, the
// per-iteration result every workload fills in, wall-clock timers, the
// benchmark's own spans around calls into each layer, and the per-layer
// readings taken from the public profiler, tracer and network counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/network.hpp"

namespace perfbench {

using namespace aa;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "full" (what BENCHMARK.json runs) or "tiny" (the smoke test).
  std::string scale = "full";
  bool tiny() const { return scale == "tiny"; }
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

/// One iteration: a fresh set-up of the system followed by one measured
/// phase over the seed's inputs.  Iterations of one run repeat the same
/// inputs, so every virtual-time quantity must come out identical.
struct Iteration {
  /// Runs the host probe after each segment.  Off in the cold, checked
  /// iteration, which does not feed the wall-clock metrics and whose peak
  /// RSS must be the system's alone.
  bool probe_host = true;
  double setup_s = 0;     // wall: start of construction .. first measured op
  double measured_s = 0;  // wall: the measured phase alone (oracle excluded)
  std::uint64_t ops = 0;  // operations completed in the measured phase
  /// The measured phase in consecutive segments (see reference_rate),
  /// each with the host probe timed right after it.
  struct Segment {
    std::uint64_t ops;
    double seconds;
    double probe_s;
  };
  std::vector<Segment> segments;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t results = 0;  // delivered results: base of the wire-cost ratios
  std::vector<double> latency_ms;
  sim::NetworkStats net;  // measured phase only
  /// Peak resident set when the measured phase ended (before the oracle,
  /// whose bookkeeping is the benchmark's, not the system's).
  double peak_rss_mb = 0;
  /// Fold of every deterministic counter and delivery of the iteration.
  std::uint64_t digest = 0;
  /// Per-layer readings; filled by traced iterations only.
  Metrics layers;

  /// Records one measured segment, `n` operations in `seconds` of wall
  /// time, and runs the host probe after it (outside the segment's time)
  /// unless probe_host is off.
  void add_segment(std::uint64_t n, double seconds);

  /// Reference host speed over the speed the iteration found: the
  /// factor that takes its wall times to the reference host (0 when it
  /// ran no probe).
  double host_scale() const;
};

/// Entry point of one workload.  `traced` turns on the network's
/// profiler and tracer for the measured phase and fills `layers`;
/// `oracle` checks every result against the workload's oracle (the
/// digest then covers the checked results, so a run checks its first
/// iteration and requires the others to reproduce its digest).
using WorkloadFn = Iteration (*)(const Options& opt, bool traced, bool oracle);
Iteration run_context(const Options& opt, bool traced, bool oracle);
Iteration run_bus_fanout(const Options& opt, bool traced, bool oracle);
Iteration run_bus_churn(const Options& opt, bool traced, bool oracle);
Iteration run_kb_store(const Options& opt, bool traced, bool oracle);

using Clock = std::chrono::steady_clock;

/// Host-speed probe: the seconds a fixed piece of the benchmark's own
/// work takes, a random pointer chase over 2 MiB, a std::map churn and
/// a small event loop of std::function callbacks (the cache- and
/// allocation-bound mix the simulator runs).  It is timed on the second
/// of two back-to-back passes, so its data is warm whatever the system
/// left in the caches.  On a shared host, other tenants slow such code
/// by up to 2x, in phases of seconds to minutes; the probe slows with it.
double host_probe();

/// The probe's duration at the reference host speed at which ops_per_s
/// is reported.
constexpr double kProbeReferenceS = 0.015;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accumulating stopwatch: the measured phase pauses it around oracle
/// bookkeeping so that only the system's own work is timed.
class Stopwatch {
 public:
  void start() { t0_ = Clock::now(); }
  void stop() { total_ += seconds_since(t0_); }
  double total() const { return total_; }

 private:
  Clock::time_point t0_ = Clock::now();
  double total_ = 0;
};

/// A benchmark-side span around one call into a layer: adds its wall
/// time to `into` (seconds) when it ends.
class Span {
 public:
  explicit Span(double& into) : into_(into) {}
  ~Span() { into_ += seconds_since(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& into_;
  Clock::time_point t0_ = Clock::now();
};

/// FNV-1a fold used for the determinism digests.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_net(const sim::NetworkStats& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Zeroes the network counters at the start of the measured phase and,
/// in a traced iteration, turns on the profiler and the tracer.
void start_measured_phase(sim::Network& net, bool traced);

/// Every per-layer metric with its unit, all zero: a workload overwrites
/// the ones its layers produce, and a bypassed layer reads 0.
Metrics zero_layers();

/// Profiler buckets, tracer per-delivery split and network ratios of the
/// measured phase.  `publishes` is the number of bus publishes the
/// workload made (0 when it makes none).
void read_sim_layers(const sim::Network& net, const Iteration& it, std::uint64_t publishes,
                     Metrics& out);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench

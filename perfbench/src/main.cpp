// perfbench: the contextual-service benchmark executable.
//
//   perfbench --workload <context|bus_fanout|bus_churn|kb_store>
//             --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//
// Untraced (--trace 0): repeats (set-up, measured phase) iterations on
// the seed's inputs for about --seconds and reports the end-to-end
// metrics: the virtual-time ones from the first, oracle-checked
// iteration, the wall-clock ones from at least three warm iterations
// after it (set-up time as their median; throughput at the reference
// host speed, see reference_rate; every iteration must reproduce the
// first one's digest).  Traced (--trace 1):
// after the checked iteration, pairs untraced with traced iterations,
// reports the traced per-layer metrics and the throughput lost to
// tracing, and requires every iteration to agree on every deterministic
// counter.
//
// The last line of stdout is one JSON object; the lines before it name
// every metric with its unit and sample count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

/// Warm iterations a run measures at least.
constexpr std::size_t kMinIterations = 3;

WorkloadFn workload_fn(const std::string& name) {
  if (name == "context") return run_context;
  if (name == "bus_fanout") return run_bus_fanout;
  if (name == "bus_churn") return run_bus_churn;
  if (name == "kb_store") return run_kb_store;
  return nullptr;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-30s %16.6f %-6s samples=%llu\n", name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("  oracle: attempted=%llu failed=%llu\n", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--scale") {
      opt.scale = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && workload_fn(opt.workload) != nullptr && opt.seconds > 0 &&
         (opt.scale == "full" || opt.scale == "tiny");
}

double ops_per_s(const Iteration& it) { return static_cast<double>(it.ops) / it.measured_s; }

/// Throughput of the measured phase at the reference host speed, over
/// `iters` (skipping the first `from`).  Each segment's wall time is
/// scaled by kProbeReferenceS over the probe timed right after it, and
/// segment j counts with the median of its scaled times: iterations
/// replay identical work, so segment j does the same work each time and
/// what varies is the host.  A shared host's speed drifts by more than
/// the metric's bound from one run to the next (other tenants' load),
/// and no estimator over a single run removes a slow phase that covers
/// the whole run; the probe measures that phase and the scaling takes
/// most of it out.  `raw` drops the scaling: the rate at
/// the host's speed as found.
double reference_rate(const std::vector<Iteration>& iters, std::size_t from = 0,
                      bool raw = false) {
  double seconds = 0;
  for (std::size_t j = 0; j < iters[from].segments.size(); ++j) {
    std::vector<double> times;
    for (std::size_t i = from; i < iters.size(); ++i) {
      const Iteration::Segment& s = iters[i].segments[j];
      times.push_back(raw ? s.seconds : s.seconds * kProbeReferenceS / s.probe_s);
    }
    seconds += median(times);
  }
  return static_cast<double>(iters[from].ops) / seconds;
}

/// Untraced run: end-to-end metrics.  The first iteration runs cold (a
/// fresh heap, first-touch page faults) and carries the oracle, so it
/// supplies the virtual-time metrics and the peak RSS; the wall-clock
/// metrics come from the warm iterations after it.
int run_untraced(const Options& opt, WorkloadFn fn) {
  const auto t0 = Clock::now();
  std::vector<Iteration> iters;
  double last = 0;
  while (iters.size() < kMinIterations + 1 || seconds_since(t0) + last <= opt.seconds) {
    const auto ti = Clock::now();
    iters.push_back(fn(opt, false, iters.empty()));
    last = seconds_since(ti);
  }
  const Iteration& first = iters.front();
  bool deterministic = true;
  std::vector<double> setup;
  std::uint64_t segments = 0;  // segment timings behind ops_per_s
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const Iteration& it = iters[i];
    std::printf("  iteration %zu%s: setup_s=%.4f measured_s=%.4f ops_per_s=%.1f (as found)",
                i, i == 0 ? " (cold, checked)" : "", it.setup_s, it.measured_s, ops_per_s(it));
    if (i > 0) std::printf(" host_scale=%.3f", it.host_scale());
    std::printf("\n");
    deterministic = deterministic && it.digest == first.digest;
    if (i == 0) continue;
    setup.push_back(it.setup_s);
    segments += it.segments.size();
  }
  const auto results = std::max<std::uint64_t>(first.results, 1);
  Metrics m;
  m["ops_per_s"] = {reference_rate(iters, 1), "1/s", segments};
  m["setup_s"] = {median(setup), "s", setup.size()};
  m["latency_p50_ms"] = {quantile(first.latency_ms, 0.50), "ms", first.latency_ms.size()};
  m["latency_p99_ms"] = {quantile(first.latency_ms, 0.99), "ms", first.latency_ms.size()};
  m["net_bytes_per_result"] = {
      static_cast<double>(first.net.bytes_sent) / static_cast<double>(results), "B",
      first.results};
  m["net_packets_per_result"] = {
      static_cast<double>(first.net.packets_sent()) / static_cast<double>(results), "count",
      first.results};
  m["peak_rss_mb"] = {first.peak_rss_mb, "MiB", 1};

  std::printf("workload %s seed %llu: %zu iterations, %llu ops per iteration\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), iters.size(),
              static_cast<unsigned long long>(first.ops));
  std::printf("  load is scheduled in virtual time, so the generator is never late; latency\n"
              "  runs from each operation's due time to its result\n");
  std::printf("  ops_per_s at the host's speed as found: %.1f; below, at the reference host\n"
              "  speed (host probe %.0f ms)\n",
              reference_rate(iters, 1, true), kProbeReferenceS * 1e3);
  std::printf("  determinism across iterations: %s\n", deterministic ? "identical" : "DIFFERENT");
  const bool correct = deterministic && first.failed == 0 && first.latency_ms.size() > 0;
  print_result(correct, first.attempted, first.failed, m);
  return 0;
}

/// Traced run: per-layer metrics and the tracing overhead.  A checked,
/// untimed warm-up iteration comes first; then untraced/traced pairs.
int run_traced(const Options& opt, WorkloadFn fn) {
  const auto t0 = Clock::now();
  const Iteration checked = fn(opt, false, true);
  std::vector<Iteration> plain, traced;
  double last = 0;
  while (plain.empty() || seconds_since(t0) + last <= opt.seconds) {
    const auto ti = Clock::now();
    plain.push_back(fn(opt, false, false));
    traced.push_back(fn(opt, true, false));
    last = seconds_since(ti);
  }
  bool same = true;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    same = same && plain[i].digest == checked.digest && traced[i].digest == checked.digest;
  }
  // Wall-clock layer readings: median over the traced iterations.
  Metrics m = traced.front().layers;
  for (auto& [name, metric] : m) {
    std::vector<double> values;
    for (const Iteration& it : traced) values.push_back(it.layers.at(name).value);
    metric.value = median(values);
  }
  const double untraced_ops = reference_rate(plain);
  const double traced_ops = reference_rate(traced);
  m["trace.overhead_ratio"] = {untraced_ops > 0 ? 1.0 - traced_ops / untraced_ops : 0, "ratio",
                               static_cast<std::uint64_t>(plain.size())};
  m["failed_ratio"] = {checked.attempted > 0 ? static_cast<double>(checked.failed) /
                                                   static_cast<double>(checked.attempted)
                                             : 0,
                       "ratio", checked.attempted};

  std::printf("workload %s seed %llu traced: %zu untraced/traced pairs\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), plain.size());
  std::printf("  ops_per_s untraced %.1f, traced %.1f\n", untraced_ops, traced_ops);
  std::printf("  traced counters equal untraced: %s\n", same ? "yes" : "NO");
  print_result(same && checked.failed == 0, checked.attempted, checked.failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <context|bus_fanout|bus_churn|kb_store> "
                 "--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]\n");
    return 2;
  }
  const WorkloadFn fn = workload_fn(opt.workload);
  return opt.trace ? run_traced(opt, fn) : run_untraced(opt, fn);
}

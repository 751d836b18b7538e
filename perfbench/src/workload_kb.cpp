// kb_store: the Plaxton/Pastry overlay and the replicated object store
// alone (no event bus, no matching), closed loop.
//
// Knowledge documents are stored PAST-style: every version is an
// immutable object named by its content hash, and a client reads a
// document through the id of its last acknowledged version.  Each of
// the clients waits for its request's callback, thinks, then issues the
// next: mostly gets of Zipf-popular documents (promiscuous caching
// answers the hot ones mid-route), some puts of new versions.  Overlay
// leaf-set maintenance and store healing keep running underneath.
// The oracle checks every get's bytes against the version it asked for,
// and counts any error callback (miss, timeout) as a failure.
//
// The document set and its popularity are C3's (bench_c3_caching: 150
// objects of 512..1023 bytes read under Zipf(0.9)).  The client count
// (four per host), the 10 % share of puts, each rewriting the next
// document in turn, and the think time are this benchmark's own choice,
// not taken from a measured trace.  No host fails here, so healing
// sweeps run but find nothing to repair: storage.heal_pushes reads 0 by
// design.
#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "harness.hpp"
#include "storage/object_store.hpp"

namespace perfbench {
namespace {

/// Overlay leaf-set maintenance and store healing period.
constexpr SimDuration kUpkeepPeriod = duration::seconds(30);

struct KbParams {
  std::size_t hosts = 64;
  std::size_t documents = 150;
  double zipf = 0.9;
  std::size_t clients = 256;
  /// Clients stop issuing after this much virtual time: three overlay
  /// maintenance and store healing rounds, whatever the seed.
  SimDuration horizon = duration::seconds(90);
  double put_share = 0.1;
  double think_mean_s = 1.5;
  std::size_t min_bytes = 512;
  std::size_t max_bytes = 1023;

  static KbParams make(const Options& opt) {
    KbParams p;
    if (opt.tiny()) {
      p.hosts = 16;
      p.documents = 32;
      p.clients = 8;
      p.horizon = duration::seconds(20);
    }
    return p;
  }
};

class KbStore {
 public:
  KbStore(const KbParams& p, std::uint64_t seed, double& ring_build_s)
      : p_(p), zipf_(p.documents, p.zipf), rng_(seed) {
    // A fixed planar wide-area deployment (as in the bus workloads): the
    // seed varies only the documents and the request stream.
    net_ = std::make_unique<sim::Network>(
        sched_, std::make_shared<sim::EuclideanTopology>(p.hosts, 1000.0, duration::millis(1),
                                                         duration::micros(100), 7));
    overlay::OverlayNetwork::Params op;
    op.maintenance_period = kUpkeepPeriod;
    overlay_ = std::make_unique<overlay::OverlayNetwork>(*net_, op);
    std::vector<sim::HostId> hosts;
    for (sim::HostId h = 0; h < p.hosts; ++h) hosts.push_back(h);
    {
      Span span(ring_build_s);
      overlay_->build_ring(hosts);
    }
    storage::ObjectStore::Params sp;
    sp.replicas = 3;
    sp.promiscuous_cache = true;
    sp.healing_period = kUpkeepPeriod;
    store_ = std::make_unique<storage::ObjectStore>(*net_, *overlay_, sp);
    docs_.resize(p.documents);
  }

  sim::Scheduler& sched() { return sched_; }
  sim::Network& net() { return *net_; }
  overlay::OverlayNetwork& overlay() { return *overlay_; }
  storage::ObjectStore& store() { return *store_; }

  /// Stores a new version of document `d` from `host`, its size and
  /// text drawn from `rng`; `done(ok)` runs at the acknowledgement.  The
  /// document's readable version advances only once the put is
  /// acknowledged.
  void put(sim::HostId host, std::size_t d, Rng& rng, std::function<void(bool)> done) {
    Doc& doc = docs_[d];
    const std::uint64_t version = doc.issued++;
    std::string text = "doc" + std::to_string(d) + "v" + std::to_string(version) + ":";
    const std::size_t size = p_.min_bytes + rng.below(p_.max_bytes - p_.min_bytes + 1);
    while (text.size() < size) text.push_back(static_cast<char>('a' + rng.below(26)));
    auto bytes = std::make_shared<Bytes>(to_bytes(text));
    store_->put(host, *bytes, [this, d, version, bytes, done](Result<ObjectId> r) {
      Doc& doc = docs_[d];
      if (r.is_ok() && version + 1 > doc.acked) {
        doc.acked = version + 1;
        doc.id = r.value();
        doc.bytes = bytes;
      }
      done(r.is_ok());
    });
  }

  /// Reads the last acknowledged version of document `d`; `done(ok)`
  /// reports whether the returned bytes are exactly that version's.
  void get(sim::HostId host, std::size_t d, std::function<void(bool)> done) {
    const Doc& doc = docs_[d];
    std::shared_ptr<const Bytes> want = doc.bytes;
    store_->get(host, doc.id, [want, done](Result<Bytes> r) {
      done(r.is_ok() && want != nullptr && r.value() == *want);
    });
  }

  std::size_t popular_doc() { return zipf_.sample(rng_); }
  Rng& rng() { return rng_; }
  storage::StoreNodeStats cache_stats() {
    storage::StoreNodeStats total;
    for (sim::HostId h = 0; h < p_.hosts; ++h) {
      if (const storage::StoreNode* n = store_->node(h)) {
        total.cache_hits += n->stats().cache_hits;
        total.cache_misses += n->stats().cache_misses;
      }
    }
    return total;
  }

 private:
  struct Doc {
    std::uint64_t issued = 0;  // versions put so far
    std::uint64_t acked = 0;   // newest acknowledged version + 1
    ObjectId id;
    std::shared_ptr<const Bytes> bytes;
  };

  KbParams p_;
  ZipfSampler zipf_;
  Rng rng_;
  sim::Scheduler sched_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<overlay::OverlayNetwork> overlay_;
  std::unique_ptr<storage::ObjectStore> store_;
  std::vector<Doc> docs_;
};

/// Runs virtual time in steps until `done()` (periodic maintenance keeps
/// the scheduler non-empty, so run() would never return).
template <typename Pred>
void run_until(sim::Scheduler& sched, Pred done) {
  for (int step = 0; step < 100000 && !done(); ++step) sched.run_for(duration::millis(500));
}

}  // namespace

Iteration run_kb_store(const Options& opt, bool traced, bool oracle) {
  const KbParams p = KbParams::make(opt);
  Iteration it;
  it.probe_host = !oracle;
  double ring_build_s = 0;
  const auto t0 = Clock::now();
  KbStore kb(p, opt.seed, ring_build_s);
  // Fact load: version 0 of every document.  Like the topology, the
  // document set is part of the fixed deployment (drawn, as in C3, from
  // seed 17), so seeds compare request streams over one deployment: the
  // workload seed varies the requests and the versions they write.
  // (Where the few hot documents land decides much of the latency; with
  // a per-seed document set, latency_p50_ms moved by 13 % between seeds.)
  Rng documents(17);
  std::size_t acked = 0;
  for (std::size_t d = 0; d < p.documents; ++d) {
    kb.put(static_cast<sim::HostId>(documents.below(p.hosts)), d, documents,
           [&acked](bool ok) { acked += ok ? 1 : 0; });
  }
  run_until(kb.sched(), [&]() { return acked == p.documents; });
  // The measured phase starts at a fixed virtual time, so the periodic
  // maintenance and healing rounds fall at the same points of it.
  kb.sched().run_until(duration::seconds(60));
  const storage::ObjectStoreStats store_before = kb.store().stats();
  const storage::StoreNodeStats cache_before = kb.cache_stats();
  kb.overlay().route_hops().clear();
  start_measured_phase(kb.net(), traced);
  it.setup_s = seconds_since(t0);

  // Closed loop: each client issues its next request when the previous
  // one's callback has run and its think time has passed.
  std::uint64_t issued = 0, completed = 0, failures = 0, puts = 0;
  const SimTime begin = kb.sched().now();
  const SimTime stop = begin + p.horizon;
  Digest digest;
  std::function<void(std::size_t)> issue = [&](std::size_t c) {
    if (kb.sched().now() >= stop) return;
    ++issued;
    const auto host = static_cast<sim::HostId>(c % p.hosts);
    const SimTime due = kb.sched().now();
    const bool is_put = kb.rng().chance(p.put_share);
    // Every document is rewritten at the same rate; reads favour the
    // popular ones.
    const std::size_t d = is_put ? puts++ % p.documents : kb.popular_doc();
    auto done = [&, c, due](bool ok) {
      ++completed;
      failures += ok ? 0 : 1;
      const double ms = to_millis(kb.sched().now() - due);
      it.latency_ms.push_back(ms);
      digest.add(static_cast<std::uint64_t>(ms * 1000.0 + 0.5));
      const auto think =
          static_cast<SimDuration>(kb.rng().exponential(p.think_mean_s) * 1e6);
      kb.sched().after(think, [&issue, c]() { issue(c); });
    };
    if (is_put) {
      kb.put(host, d, kb.rng(), done);
    } else {
      kb.get(host, d, done);
    }
  };
  for (std::size_t c = 0; c < p.clients; ++c) {
    const auto start = static_cast<SimDuration>(kb.rng().exponential(p.think_mean_s) * 1e6);
    kb.sched().after(start, [&issue, c]() { issue(c); });
  }
  // Measured segments of one upkeep period each (every segment carries
  // one maintenance and one healing round); the last one drains.
  const std::size_t segments = std::max<SimDuration>(p.horizon / kUpkeepPeriod, 1);
  std::uint64_t counted = 0;
  for (std::size_t k = 1; k <= segments; ++k) {
    const auto ts = Clock::now();
    const SimTime end = begin + static_cast<SimDuration>(k) * kUpkeepPeriod;
    kb.sched().run_until(k == segments ? stop : end);
    if (k == segments) run_until(kb.sched(), [&]() { return completed == issued; });
    it.add_segment(completed - counted, seconds_since(ts));
    counted = completed;
  }
  it.peak_rss_mb = peak_rss_mb();

  it.results = completed;
  it.net = kb.net().stats();
  if (oracle) {
    it.attempted = issued;
    it.failed = failures + (it.attempted - completed);
  }
  const storage::ObjectStoreStats& s = kb.store().stats();
  digest.add_net(it.net);
  for (std::uint64_t v : {s.puts, s.gets, s.local_hits, s.intercept_hits, s.root_hits, s.misses,
                          s.timeouts, s.heal_pushes, kb.overlay().routed_messages(), failures}) {
    digest.add(v);
  }
  it.digest = digest.value();

  if (traced) {
    it.layers = zero_layers();
    read_sim_layers(kb.net(), it, 0, it.layers);
    const storage::StoreNodeStats cache = kb.cache_stats();
    const std::uint64_t hits = cache.cache_hits - cache_before.cache_hits;
    const std::uint64_t lookups = hits + cache.cache_misses - cache_before.cache_misses;
    it.layers.at("storage.cache_hit_ratio") = Metric{
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0, "ratio",
        lookups};
    it.layers.at("storage.heal_pushes") =
        Metric{static_cast<double>(s.heal_pushes - store_before.heal_pushes), "count", 1};
    it.layers.at("storage.timeouts") =
        Metric{static_cast<double>(s.timeouts - store_before.timeouts), "count", 1};
    const sim::Histogram& hops = kb.overlay().route_hops();
    it.layers.at("overlay.route_hops_mean") = Metric{hops.mean(), "count", hops.count()};
    it.layers.at("overlay.ring_build_s") = Metric{ring_build_s, "s", 1};
  }
  return it;
}

}  // namespace perfbench

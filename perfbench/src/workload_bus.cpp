// bus_fanout and bus_churn: the content-based event bus alone.
//
// Both run one broker tier: 16 brokers in a binary tree over a planar
// wide-area network, clients spread evenly over the brokers,
// covering-based aggregation on "topic", the binary codec and same-tick
// batching.  About 10^4 clients each hold one
// bench::HotspotWorkload subscription (C1's Zipf-hotspot mix): a topic
// pin plus a window over "value".
//
//  * bus_fanout (read-heavy, open loop): publishers emit readings at a
//    fixed virtual rate; every delivery is checked against a brute-force
//    Filter::matches scan over the live subscriptions.
//  * bus_churn (write-heavy): in each round a share of the clients
//    unsubscribe, resubscribe with a new window, subscribe afresh, or
//    re-attach to another broker; once the round has settled, probe
//    publishes run against the same brute-force oracle.
#include <algorithm>
#include <memory>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "event/filter_index.hpp"
#include "harness.hpp"
#include "pubsub/siena_network.hpp"
#include "wire/codec.hpp"

namespace perfbench {
namespace {

struct BusParams {
  std::size_t brokers = 16;
  std::size_t clients = 10000;
  std::size_t publishers = 16;
  std::size_t topics = 64;
  double zipf = 0.9;
  /// Publishers take turns emitting bursts of readings (a sensor sweep)
  /// at a fixed virtual rate: 200 publishes/s in all.  A burst's copies
  /// to one neighbour share a batch frame.
  std::size_t publishes = 4000;
  std::size_t burst = 4;
  SimDuration burst_gap = duration::millis(20);
  /// bus_churn: rounds of subscription changes, then probes.
  std::size_t rounds = 8;
  std::size_t changes_per_round = 800;
  std::size_t probes_per_round = 40;

  static BusParams make(const Options& opt) {
    BusParams p;
    if (opt.tiny()) {
      p.clients = 300;
      p.publishes = 60;
      p.rounds = 2;
      p.changes_per_round = 30;
      p.probes_per_round = 10;
    }
    return p;
  }
};

/// The deployment is fixed; the seed varies only the workload's inputs.
/// Hosts lie on a 1000 x 1000 plane, 0.1 ms per unit of distance plus
/// 1 ms, so wide-area paths take up to about 150 ms and every host pair
/// has its own latency.
constexpr double kSide = 1000.0;
constexpr std::uint64_t kTopologySeed = 7;

/// All clients subscribe at start, drained in waves of this many as in
/// C1's scale sweep (bench_c1_event_scalability, section e).
constexpr std::size_t kInstallWave = 4096;

/// bus_fanout times its measured phase in segments of this many publishes.
constexpr std::size_t kSegmentPublishes = 400;

/// (subscription uid, publication seq): one delivery.
using Delivery = std::pair<std::uint64_t, std::int64_t>;

class BusTier {
 public:
  BusTier(const BusParams& p, std::uint64_t seed)
      : p_(p), hotspot_(p.topics, p.zipf, seed ^ 0x5DEECE66DULL), rng_(seed) {
    topo_ = std::make_shared<sim::EuclideanTopology>(p.brokers + p.clients + p.publishers,
                                                     kSide, duration::millis(1),
                                                     duration::micros(100), kTopologySeed);
    net_ = std::make_unique<sim::Network>(sched_, topo_);
    for (sim::HostId h = 0; h < p.brokers; ++h) brokers_.push_back(h);
    bus_ = std::make_unique<pubsub::SienaNetwork>(*net_, brokers_);
    bus_->connect_tree();
    bus_->set_codec(wire::WireCodec::kBinary);
    net_->enable_batching(0, [](std::span<const std::size_t> sizes) {
      return wire::binary_codec().frame_size(sizes);
    });
    bus_->enable_aggregation({"topic", 8});
    // Clients and publishers are spread round-robin over the brokers,
    // as in C1: every broker serves the same number of them.
    for (auto h = static_cast<sim::HostId>(p.brokers); h < topo_->size(); ++h) {
      access_.push_back(brokers_[h % brokers_.size()]);
      bus_->attach_client(h, access_.back());
    }
  }

  sim::Scheduler& sched() { return sched_; }
  sim::Network& net() { return *net_; }
  pubsub::SienaNetwork& bus() { return *bus_; }
  Rng& rng() { return rng_; }

  sim::HostId client_host(std::size_t i) const {
    return static_cast<sim::HostId>(p_.brokers + i);
  }

  /// The k-th publish of a schedule starting at `start`: its due time
  /// and its publisher's host.
  SimTime due_time(SimTime start, std::size_t k) const {
    return start + static_cast<SimDuration>(k / p_.burst) * p_.burst_gap;
  }
  sim::HostId publisher_host(std::size_t k) const {
    return static_cast<sim::HostId>(p_.brokers + p_.clients + (k / p_.burst) % p_.publishers);
  }

  /// Subscription shapes are bench::HotspotWorkload's: shape j pins
  /// topic j % topics with window j % 5, so a uniform draw from
  /// [0, 5 * topics) picks a uniform topic and window, and shape
  /// j % topics + k * topics for a uniform k < 5 keeps j's topic under a
  /// uniformly drawn window.
  std::size_t random_shape() { return rng_.below(5 * p_.topics); }
  std::size_t rewindow(std::size_t shape) {
    return shape % p_.topics + p_.topics * rng_.below(5);
  }
  event::Filter filter_for(std::size_t shape) const { return hotspot_.subscriber_filter(shape); }

  /// One reading (Zipf-ranked topic, uniform value) whose key carries
  /// its sequence number, due at `due`.
  event::Event make_event(std::int64_t seq, SimTime due) {
    event::Event e = hotspot_.sample_event(std::to_string(seq));
    e.set_time(due);
    return e;
  }
  static std::int64_t seq_of(const event::Event& e) {
    return std::stoll(e.get_string("key").value_or("-1"));
  }

  /// Subscribes client `i`; returns the bench-side uid of the subscription.
  std::uint64_t subscribe(std::size_t i, const event::Filter& f) {
    const std::uint64_t uid = subs_.size();
    const std::uint64_t id = bus_->subscribe(client_host(i), f, [this, uid](const event::Event& e) {
      deliveries_.emplace_back(uid, seq_of(e));
      latency_ms_.push_back(to_millis(sched_.now() - e.time()));
    });
    subs_.push_back(Sub{i, f, id, true});
    return uid;
  }
  void unsubscribe(std::uint64_t uid) {
    Sub& s = subs_[uid];
    bus_->unsubscribe(client_host(s.client), s.bus_id);
    s.live = false;
  }
  const event::Filter& filter_of(std::uint64_t uid) const { return subs_[uid].filter; }

  /// Moves client `i` to a different, randomly drawn broker.
  void reattach(std::size_t i) {
    sim::HostId b = access_[i];
    while (b == access_[i]) b = brokers_[rng_.below(brokers_.size())];
    bus_->attach_client(client_host(i), b);
    access_[i] = b;
  }

  /// Brute-force oracle: the deliveries `e` must produce over the live
  /// subscriptions.
  void expect(const event::Event& e, std::vector<Delivery>& out) const {
    const std::int64_t seq = seq_of(e);
    for (std::uint64_t uid = 0; uid < subs_.size(); ++uid) {
      if (subs_[uid].live && subs_[uid].filter.matches(e)) out.emplace_back(uid, seq);
    }
  }

  /// Sizes the delivery log up front, so that recording stays cheap in
  /// the measured phase.
  void reserve(std::size_t deliveries) {
    deliveries_.reserve(deliveries);
    latency_ms_.reserve(deliveries);
  }
  std::vector<Delivery>& deliveries() { return deliveries_; }
  std::vector<double>& latency_ms() { return latency_ms_; }

  /// The live filters, keyed by uid (standalone index replays).
  std::vector<std::pair<std::uint64_t, event::Filter>> live_filters() const {
    std::vector<std::pair<std::uint64_t, event::Filter>> out;
    for (std::uint64_t uid = 0; uid < subs_.size(); ++uid) {
      if (subs_[uid].live) out.emplace_back(uid, subs_[uid].filter);
    }
    return out;
  }

 private:
  struct Sub {
    std::size_t client;
    event::Filter filter;
    std::uint64_t bus_id;
    bool live;
  };

  BusParams p_;
  bench::HotspotWorkload hotspot_;
  Rng rng_;
  sim::Scheduler sched_;
  std::shared_ptr<sim::EuclideanTopology> topo_;
  std::unique_ptr<sim::Network> net_;
  std::vector<sim::HostId> brokers_;
  std::vector<sim::HostId> access_;  // access broker per client, then publisher
  std::unique_ptr<pubsub::SienaNetwork> bus_;
  std::vector<Sub> subs_;
  std::vector<Delivery> deliveries_;
  std::vector<double> latency_ms_;
};

/// Counts publications whose delivery sets differ from the oracle's.
std::uint64_t failed_publishes(std::vector<Delivery> expected, std::vector<Delivery> actual) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  std::vector<Delivery> diff;
  std::set_symmetric_difference(expected.begin(), expected.end(), actual.begin(), actual.end(),
                                std::back_inserter(diff));
  std::vector<std::int64_t> bad;
  for (const Delivery& d : diff) bad.push_back(d.second);
  std::sort(bad.begin(), bad.end());
  return static_cast<std::uint64_t>(std::unique(bad.begin(), bad.end()) - bad.begin());
}

void digest_bus(BusTier& tier, Iteration& it) {
  Digest d;
  d.add_net(it.net);
  std::vector<Delivery> sorted = tier.deliveries();
  std::sort(sorted.begin(), sorted.end());
  for (const Delivery& x : sorted) {
    d.add(x.first);
    d.add(static_cast<std::uint64_t>(x.second));
  }
  for (double ms : tier.latency_ms()) d.add(static_cast<std::uint64_t>(ms * 1000.0 + 0.5));
  const pubsub::BrokerStats b = tier.bus().total_broker_stats();
  for (std::uint64_t v : {b.publications_routed, b.deliveries, b.subscriptions_forwarded,
                          b.subscriptions_suppressed, b.index_probes, b.aggregate_updates,
                          b.aggregate_absorbed, b.aggregate_retractions}) {
    d.add(v);
  }
  d.add(tier.bus().total_transit_entries());
  it.digest = d.value();
}

/// Standalone FilterIndex timing on the workload's own filters and
/// events: µs per match over `events`, median of five passes.
double index_match_us(const std::vector<std::pair<std::uint64_t, event::Filter>>& filters,
                      const std::vector<event::Event>& events) {
  event::FilterIndex index;
  for (const auto& [uid, f] : filters) index.add(uid, f);
  std::vector<std::uint64_t> out;
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    for (const event::Event& e : events) {
      out.clear();
      index.match(e, out);
    }
    passes.push_back(seconds_since(t0) * 1e6 / static_cast<double>(events.size()));
  }
  return quantile(passes, 0.5);
}

/// Broker-tier per-layer readings shared by both workloads.
void read_bus_layers(BusTier& tier, const pubsub::BrokerStats& before, const Iteration& it,
                     std::uint64_t publishes, Metrics& m) {
  read_sim_layers(tier.net(), it, publishes, m);
  const pubsub::BrokerStats after = tier.bus().total_broker_stats();
  auto set = [&m](const char* name, double v, std::uint64_t n) {
    m.at(name) = Metric{v, m.at(name).unit, n};
  };
  const double probes = static_cast<double>(after.index_probes - before.index_probes);
  const std::uint64_t useful = (after.deliveries - before.deliveries) +
                               (after.publications_routed - before.publications_routed);
  set("event.probes_per_publish", publishes > 0 ? probes / static_cast<double>(publishes) : 0,
      publishes);
  set("event.probes_per_match", useful > 0 ? probes / static_cast<double>(useful) : 0, useful);
  set("pubsub.transit_entries", static_cast<double>(tier.bus().total_transit_entries()), 1);
  set("pubsub.max_table_entries", static_cast<double>(tier.bus().max_table_entries()), 1);
  set("pubsub.subs_forwarded",
      static_cast<double>(after.subscriptions_forwarded - before.subscriptions_forwarded), 1);
  set("pubsub.subs_suppressed",
      static_cast<double>(after.subscriptions_suppressed - before.subscriptions_suppressed), 1);
  set("pubsub.aggregate_updates",
      static_cast<double>(after.aggregate_updates - before.aggregate_updates), 1);
  set("pubsub.aggregate_absorbed",
      static_cast<double>(after.aggregate_absorbed - before.aggregate_absorbed), 1);
}

}  // namespace

Iteration run_bus_fanout(const Options& opt, bool traced, bool oracle) {
  const BusParams p = BusParams::make(opt);
  Iteration it;
  it.probe_host = !oracle;
  const auto t0 = Clock::now();
  BusTier tier(p, opt.seed);
  for (std::size_t i = 0; i < p.clients; ++i) {
    tier.subscribe(i, tier.filter_for(tier.random_shape()));
    if (i % kInstallWave == kInstallWave - 1) tier.sched().run();
  }
  tier.sched().run();
  // Inputs: the whole publication schedule, generated before timing.
  const SimTime start = tier.sched().now() + duration::millis(100);
  std::vector<event::Event> events;
  for (std::size_t k = 0; k < p.publishes; ++k) {
    events.push_back(tier.make_event(static_cast<std::int64_t>(k),
                                     tier.due_time(start, k)));
  }
  tier.reserve(p.publishes * 80);
  const pubsub::BrokerStats before = tier.bus().total_broker_stats();
  start_measured_phase(tier.net(), traced);
  it.setup_s = seconds_since(t0);

  for (std::size_t k = 0; k < p.publishes; ++k) {
    const sim::HostId host = tier.publisher_host(k);
    tier.sched().at(events[k].time(),
                    [&tier, host, &e = events[k]]() { tier.bus().publish(host, e); });
  }
  // Segments: runs of kSegmentPublishes publishes; the last one drains.
  for (std::size_t k = 0; k < p.publishes; k += kSegmentPublishes) {
    const std::size_t n = std::min(kSegmentPublishes, p.publishes - k);
    const auto ts = Clock::now();
    if (k + n < p.publishes) {
      tier.sched().run_until(events[k + n].time() - 1);
    } else {
      tier.sched().run();
    }
    it.add_segment(n, seconds_since(ts));
  }
  it.peak_rss_mb = peak_rss_mb();

  it.net = tier.net().stats();
  it.results = tier.deliveries().size();
  it.latency_ms = tier.latency_ms();
  if (oracle) {
    std::vector<Delivery> expected;
    for (const event::Event& e : events) tier.expect(e, expected);
    it.attempted = p.publishes;
    it.failed = failed_publishes(std::move(expected), tier.deliveries());
  }
  digest_bus(tier, it);
  if (traced) {
    it.layers = zero_layers();
    read_bus_layers(tier, before, it, p.publishes, it.layers);
    const auto filters = tier.live_filters();
    it.layers.at("event.index_match_us") =
        Metric{index_match_us(filters, events), "us", events.size()};
    // Index update cost on this workload's subscription stream: inserts.
    event::FilterIndex index;
    const auto tu = Clock::now();
    for (const auto& [uid, f] : filters) index.add(uid, f);
    it.layers.at("event.index_update_us") =
        Metric{seconds_since(tu) * 1e6 / static_cast<double>(filters.size()), "us",
               filters.size()};
  }
  return it;
}

Iteration run_bus_churn(const Options& opt, bool traced, bool oracle) {
  const BusParams p = BusParams::make(opt);
  Iteration it;
  it.probe_host = !oracle;
  const auto t0 = Clock::now();
  BusTier tier(p, opt.seed);
  // Per client: its live subscription uid (or none) and its shape.
  constexpr std::uint64_t kNone = UINT64_MAX;
  std::vector<std::uint64_t> current(p.clients, kNone);
  std::vector<std::size_t> shape(p.clients);
  std::vector<std::pair<std::uint64_t, event::Filter>> initial;
  for (std::size_t i = 0; i < p.clients; ++i) {
    shape[i] = tier.random_shape();
    const event::Filter f = tier.filter_for(shape[i]);
    current[i] = tier.subscribe(i, f);
    initial.emplace_back(current[i], f);
    if (i % kInstallWave == kInstallWave - 1) tier.sched().run();
  }
  tier.sched().run();
  tier.reserve(p.rounds * p.probes_per_round * 80);
  const pubsub::BrokerStats before = tier.bus().total_broker_stats();
  start_measured_phase(tier.net(), traced);
  it.setup_s = seconds_since(t0);

  // The churn's index updates in order, for the standalone replay.
  struct IndexOp {
    bool add;
    std::uint64_t uid;
  };
  std::vector<IndexOp> index_ops;
  std::vector<Delivery> expected;
  std::vector<event::Event> probes;
  std::int64_t seq = 0;
  for (std::size_t round = 0; round < p.rounds; ++round) {
    // Each round is one measured segment, its probes' oracle excluded.
    Stopwatch timed;
    timed.start();
    for (std::size_t c = 0; c < p.changes_per_round; ++c) {
      const std::size_t i = tier.rng().below(p.clients);
      const std::uint64_t r = tier.rng().below(10);
      if (current[i] == kNone) {  // join: subscribe afresh
        shape[i] = tier.random_shape();
        current[i] = tier.subscribe(i, tier.filter_for(shape[i]));
        index_ops.push_back({true, current[i]});
      } else if (r < 2) {  // leave
        tier.unsubscribe(current[i]);
        index_ops.push_back({false, current[i]});
        current[i] = kNone;
      } else if (r < 6) {  // resubscribe with a new window on the same topic
        tier.unsubscribe(current[i]);
        index_ops.push_back({false, current[i]});
        shape[i] = tier.rewindow(shape[i]);
        current[i] = tier.subscribe(i, tier.filter_for(shape[i]));
        index_ops.push_back({true, current[i]});
      } else {  // re-attach to another broker
        tier.reattach(i);
      }
    }
    tier.sched().run();  // settle: routing state is quiescent before probes
    const SimTime start = tier.sched().now() + duration::millis(100);
    std::vector<event::Event> round_probes;
    timed.stop();
    for (std::size_t k = 0; k < p.probes_per_round; ++k) {
      round_probes.push_back(tier.make_event(seq++, tier.due_time(start, k)));
      if (oracle) tier.expect(round_probes.back(), expected);
    }
    timed.start();
    for (std::size_t k = 0; k < round_probes.size(); ++k) {
      const sim::HostId host = tier.publisher_host(k);
      tier.sched().at(round_probes[k].time(),
                      [&tier, host, e = round_probes[k]]() { tier.bus().publish(host, e); });
    }
    tier.sched().run();
    timed.stop();
    it.add_segment(p.changes_per_round, timed.total());
    probes.insert(probes.end(), round_probes.begin(), round_probes.end());
  }
  it.peak_rss_mb = peak_rss_mb();
  it.net = tier.net().stats();
  it.results = tier.deliveries().size();
  it.latency_ms = tier.latency_ms();
  if (oracle) {
    it.attempted = probes.size();
    it.failed = failed_publishes(std::move(expected), tier.deliveries());
  }
  digest_bus(tier, it);
  if (traced) {
    it.layers = zero_layers();
    read_bus_layers(tier, before, it, probes.size(), it.layers);
    it.layers.at("event.index_match_us") =
        Metric{index_match_us(tier.live_filters(), probes), "us", probes.size()};
    // Replay the churn stream into a standalone index holding the
    // initial subscriptions; time the inserts and erases alone.
    event::FilterIndex index;
    for (const auto& [uid, f] : initial) index.add(uid, f);
    const auto tu = Clock::now();
    for (const IndexOp& op : index_ops) {
      if (op.add) {
        index.add(op.uid, tier.filter_of(op.uid));
      } else {
        index.remove(op.uid);
      }
    }
    const double updates = static_cast<double>(std::max<std::size_t>(index_ops.size(), 1));
    it.layers.at("event.index_update_us") =
        Metric{seconds_since(tu) * 1e6 / updates, "us", index_ops.size()};
  }
  return it;
}

}  // namespace perfbench

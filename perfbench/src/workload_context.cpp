// context: the full facade path (sensor -> bus -> pipeline -> matchlet
// -> bus -> device), open loop in virtual time.
//
// Users report their location every 30 s and four regional weather
// sensors report every 60 s, offset by 15 s.  One service, deployed
// through gloss::ActiveArchitecture on two matchlet instances, holds two
// rules over per-user preference facts:
//
//  * "ack" (no cooldown) answers every location reading with a
//    suggestion that copies the reading's seq, so each reading is timed
//    from when it was due to when the user's device receives it;
//  * "heat" joins location and weather against the preference threshold
//    under a cooldown: the distillation path of the paper's Figure 1.
//
// The oracle replays the same facts and readings through a standalone
// match::MatchEngine.  Readings are due on a 15 s grid, and every window
// and cooldown boundary sits at least 7 s away from a grid point (the
// cooldown is 10 min 7 s, not 10 min), so network latencies of well
// under a second cannot change which bindings fire: each device must
// receive exactly one "ack" per reading per instance, and exactly the
// replay's "heat" count per instance.
#include <map>

#include "common/rng.hpp"
#include "gloss/active_architecture.hpp"
#include "harness.hpp"
#include "match/engine.hpp"

namespace perfbench {
namespace {

struct ContextParams {
  std::size_t users = 512;
  std::size_t ticks = 30;  // kTick apart
  std::size_t sensors = 4;

  static ContextParams make(const Options& opt) {
    ContextParams p;
    if (opt.tiny()) {
      p.users = 24;
      p.ticks = 6;
    }
    return p;
  }
};

constexpr std::size_t kHosts = 32;
/// Users report their location once per tick.
constexpr SimDuration kTick = duration::seconds(30);
/// Measured segments span two ticks: 60 s is a multiple of every period
/// of the facade's background tasks (evolution 10 s, adverts 20 s,
/// overlay upkeep and store healing 30 s), so every segment carries the
/// same background work.
constexpr SimDuration kSegment = 2 * kTick;

event::Filter type_is(const std::string& type) {
  return event::Filter().where("type", event::Op::kEq, type);
}

std::vector<match::Rule> service_rules() {
  match::Rule ack;
  ack.name = "ack";
  ack.triggers = {{"loc", type_is("user-location"), duration::minutes(1)}};
  ack.facts = {{"pref", event::Filter().where("kind", event::Op::kEq, "preference")}};
  ack.joins = {{match::Operand::ref("loc", "user"), event::Op::kEq,
                match::Operand::ref("pref", "user")}};
  ack.emit.type = "suggestion";
  ack.emit.sets = {{"user", std::nullopt, "loc", "user"}, {"seq", std::nullopt, "loc", "seq"}};

  match::Rule heat;
  heat.name = "heat";
  heat.cooldown = duration::minutes(10) + duration::seconds(7);
  heat.triggers = {{"loc", type_is("user-location"), duration::minutes(2)},
                   {"w", type_is("temperature"), duration::minutes(5)}};
  heat.facts = {{"pref", event::Filter().where("kind", event::Op::kEq, "preference")}};
  heat.joins = {
      {match::Operand::ref("loc", "user"), event::Op::kEq, match::Operand::ref("pref", "user")},
      {match::Operand::ref("w", "celsius"), event::Op::kGe,
       match::Operand::ref("pref", "min_celsius")},
  };
  heat.emit.type = "suggestion";
  heat.emit.sets = {{"user", std::nullopt, "loc", "user"}};
  return {ack, heat};
}

std::string user_name(std::size_t u) { return "user" + std::to_string(u); }

/// A reverse-geocoded place description of 16..255 characters: readings
/// differ in size, so their serialisation and queueing delays differ.
std::string place_name(Rng& rng) {
  std::string out(16 + rng.below(240), ' ');
  for (char& c : out) c = static_cast<char>('a' + rng.below(26));
  return out;
}

/// The seed's inputs: preference facts and the reading schedule.
struct Inputs {
  std::vector<match::Fact> facts;
  std::vector<sim::HostId> user_host;  // each user's device
  struct Reading {
    event::Event event;
    sim::HostId host;
  };
  std::vector<Reading> readings;  // in due-time order
  // Per location reading, indexed by its seq: its user and due time.
  std::vector<std::size_t> seq_user;
  std::vector<SimTime> seq_due;
};

Inputs make_inputs(const ContextParams& p, std::uint64_t seed, SimTime start) {
  Rng rng(seed);
  Inputs in;
  for (std::size_t u = 0; u < p.users; ++u) {
    match::Fact pref;
    pref.set("kind", "preference").set("user", user_name(u)).set("min_celsius",
                                                                  rng.uniform(15.0, 25.0));
    in.facts.push_back(pref);
    in.user_host.push_back(static_cast<sim::HostId>(u % kHosts));
  }
  std::int64_t seq = 0;
  std::vector<std::size_t> order(p.users);
  for (std::size_t u = 0; u < p.users; ++u) order[u] = u;
  for (std::size_t tick = 0; tick < p.ticks; ++tick) {
    const SimTime t = start + static_cast<SimDuration>(tick) * kTick;
    // Users' clocks are not synchronised: the reports due at one instant
    // reach the network in a different order every tick.
    for (std::size_t i = p.users; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    // Users roam: each report enters the network at a random access host,
    // while suggestions go to the user's device at its home host.
    for (std::size_t u : order) {
      event::Event loc("user-location");
      loc.set("channel", "sensors")
          .set("user", user_name(u))
          .set("seq", seq++)
          .set("lat", rng.uniform(56.0, 56.7))
          .set("lon", rng.uniform(-3.0, -2.0))
          .set("place", place_name(rng))
          .set_time(t);
      in.readings.push_back({loc, static_cast<sim::HostId>(rng.below(kHosts))});
      in.seq_user.push_back(u);
      in.seq_due.push_back(t);
    }
    if (tick % 2 == 0) {
      for (std::size_t s = 0; s < p.sensors; ++s) {
        event::Event w("temperature");
        w.set("channel", "sensors")
            .set("sensor", static_cast<std::int64_t>(s))
            .set("celsius", rng.uniform(10.0, 30.0))
            .set_time(t + duration::seconds(15));
        in.readings.push_back({w, static_cast<sim::HostId>(s * (kHosts / p.sensors))});
      }
    }
  }
  return in;
}

/// Standalone replay of the service's rules over the inputs.
struct Replay {
  std::map<std::string, std::uint64_t> heat_per_user;
  std::uint64_t acks = 0;
  double seconds = 0;
  match::EngineStats stats;
};

Replay replay(const Inputs& in) {
  match::KnowledgeBase kb;
  for (const match::Fact& f : in.facts) kb.add(f);
  match::MatchEngine engine(kb);
  for (match::Rule& r : service_rules()) engine.add_rule(std::move(r));
  Replay out;
  const auto t0 = Clock::now();
  for (const Inputs::Reading& r : in.readings) {
    // A positive arrival lag, as on the network; any lag under 7 s
    // gives the same firings (see the header comment).
    engine.on_event(r.event, r.event.time() + duration::millis(1), [&out](const event::Event& e) {
      if (e.get_string("rule") == "heat") {
        ++out.heat_per_user[e.get_string("user").value_or("")];
      } else {
        ++out.acks;
      }
    });
  }
  out.seconds = seconds_since(t0);
  out.stats = engine.stats();
  return out;
}

}  // namespace

Iteration run_context(const Options& opt, bool traced, bool oracle) {
  const ContextParams p = ContextParams::make(opt);
  Iteration it;
  it.probe_host = !oracle;
  double construct_s = 0, facts_s = 0, deploy_s = 0, subscribe_s = 0;
  std::string service_id;
  const auto t0 = Clock::now();

  gloss::ActiveArchitecture::Config config;
  config.hosts = kHosts;
  config.brokers = 8;
  // One region per host: with roaming users (see make_inputs) readings
  // cross thousands of distinct wide-area paths, so latency percentiles
  // move smoothly with the seed instead of sitting on a few constants.
  config.regions = static_cast<int>(kHosts);
  std::unique_ptr<gloss::ActiveArchitecture> arch_ptr;
  {
    Span span(construct_s);
    arch_ptr = std::make_unique<gloss::ActiveArchitecture>(config);
  }
  gloss::ActiveArchitecture& arch = *arch_ptr;
  const SimTime start = arch.scheduler().now() + duration::seconds(60);
  const Inputs in = make_inputs(p, opt.seed, start);
  {
    Span span(facts_s);
    for (const match::Fact& f : in.facts) arch.add_fact(f);
  }
  {
    Span span(deploy_s);
    gloss::ServiceSpec spec;
    spec.name = "ctx";
    spec.input = event::Filter().where("channel", event::Op::kEq, "sensors");
    spec.rules = service_rules();
    spec.min_instances = 2;
    service_id = arch.deploy_service(spec);
    arch.run_for(duration::seconds(30));
  }

  // Devices subscribe to their own suggestions.
  std::vector<std::vector<std::int64_t>> acks(p.users);  // seqs received, per user
  std::vector<std::uint64_t> heat(p.users, 0);
  {
    Span span(subscribe_s);
    for (std::size_t u = 0; u < p.users; ++u) {
      event::Filter f = type_is("suggestion");
      f.where("user", event::Op::kEq, user_name(u));
      arch.subscribe_user(in.user_host[u], f,
                          [&, u](const event::Event& e) {
                            const auto seq = e.get_int("seq");
                            if (!seq) {
                              ++heat[u];
                              return;
                            }
                            acks[u].push_back(*seq);
                            const auto i = static_cast<std::size_t>(*seq);
                            if (i < in.seq_due.size()) {
                              it.latency_ms.push_back(
                                  to_millis(arch.scheduler().now() - in.seq_due[i]));
                            }
                          });
    }
  }
  arch.scheduler().run_until(start);
  arch.overlay().route_hops().clear();
  const auto instances = static_cast<std::uint64_t>(arch.evolution().live_instances(service_id));
  const pubsub::BrokerStats before = arch.bus().total_broker_stats();
  start_measured_phase(arch.network(), traced);
  it.setup_s = seconds_since(t0);

  // Measured segments of kSegment; the last one drains.
  auto ts = Clock::now();
  std::uint64_t segment_ops = 0;
  SimTime segment_end = start + kSegment;
  for (const Inputs::Reading& r : in.readings) {
    if (r.event.time() >= segment_end) {
      arch.scheduler().run_until(segment_end);
      it.add_segment(segment_ops, seconds_since(ts));
      ts = Clock::now();
      segment_ops = 0;
      segment_end += kSegment;
    }
    arch.scheduler().run_until(r.event.time());
    arch.publish(r.host, r.event);
    ++segment_ops;
  }
  arch.run_for(kTick);
  it.add_segment(segment_ops, seconds_since(ts));
  it.peak_rss_mb = peak_rss_mb();

  it.net = arch.network().stats();
  for (std::size_t u = 0; u < p.users; ++u) it.results += acks[u].size() + heat[u];
  const bool stable =
      arch.evolution().live_instances(service_id) == static_cast<int>(instances) && instances > 0;
  if (oracle) {
    // One check per location reading (exactly one ack per instance, at
    // its user), one per user (its heat count matches the replay's), and
    // one for the run (the instances stayed up and the replay acked
    // every reading); each check fails at most once.
    const Replay expected = replay(in);
    std::vector<std::uint64_t> per_seq(in.seq_user.size(), 0);
    bool run_ok = stable && expected.acks == in.seq_user.size();
    for (std::size_t u = 0; u < p.users; ++u) {
      for (std::int64_t s : acks[u]) {
        const auto i = static_cast<std::size_t>(s);
        if (s < 0 || i >= per_seq.size()) {
          run_ok = false;
        } else {
          per_seq[i] += in.seq_user[i] == u ? 1 : instances + 1;  // a stray ack fails it
        }
      }
    }
    std::uint64_t failed = run_ok ? 0 : 1;
    for (std::uint64_t n : per_seq) failed += n == instances ? 0 : 1;
    for (std::size_t u = 0; u < p.users; ++u) {
      const auto e = expected.heat_per_user.find(user_name(u));
      const std::uint64_t want = instances * (e == expected.heat_per_user.end() ? 0 : e->second);
      failed += heat[u] == want ? 0 : 1;
    }
    it.attempted = per_seq.size() + p.users + 1;
    it.failed = failed;
  }

  Digest digest;
  digest.add_net(it.net);
  digest.add(instances);
  for (std::size_t u = 0; u < p.users; ++u) {
    digest.add(heat[u]);
    for (std::int64_t s : acks[u]) digest.add(static_cast<std::uint64_t>(s));
  }
  for (double ms : it.latency_ms) digest.add(static_cast<std::uint64_t>(ms * 1000.0 + 0.5));
  const pubsub::BrokerStats after = arch.bus().total_broker_stats();
  digest.add(after.publications_routed - before.publications_routed);
  digest.add(after.deliveries - before.deliveries);
  it.digest = digest.value();

  if (traced) {
    it.layers = zero_layers();
    read_sim_layers(arch.network(), it, in.readings.size(), it.layers);
    const double probes = static_cast<double>(after.index_probes - before.index_probes);
    const std::uint64_t useful = (after.deliveries - before.deliveries) +
                                 (after.publications_routed - before.publications_routed);
    it.layers.at("event.probes_per_publish").value = probes / static_cast<double>(it.ops);
    it.layers.at("event.probes_per_publish").samples = it.ops;
    it.layers.at("event.probes_per_match").value =
        useful > 0 ? probes / static_cast<double>(useful) : 0;
    it.layers.at("event.probes_per_match").samples = useful;
    it.layers.at("pubsub.transit_entries") =
        Metric{static_cast<double>(arch.bus().total_transit_entries()), "count", 1};
    it.layers.at("pubsub.max_table_entries") =
        Metric{static_cast<double>(arch.bus().max_table_entries()), "count", 1};
    const sim::Histogram& hops = arch.overlay().route_hops();
    it.layers.at("overlay.route_hops_mean") = Metric{hops.mean(), "count", hops.count()};
    it.layers.at("overlay.ring_build_s") = Metric{construct_s, "s", 1};
    it.layers.at("gloss.facts_s") = Metric{facts_s, "s", in.facts.size()};
    it.layers.at("gloss.deploy_s") = Metric{deploy_s, "s", 1};
    it.layers.at("gloss.subscribe_s") = Metric{subscribe_s, "s", p.users};
    const Replay r = replay(in);
    const double events = static_cast<double>(r.stats.events_processed);
    it.layers.at("match.engine_us_per_event") =
        Metric{r.seconds * 1e6 / events, "us", r.stats.events_processed};
    it.layers.at("match.candidates_per_event") =
        Metric{static_cast<double>(r.stats.candidate_bindings) / events, "count",
               r.stats.events_processed};
  }
  return it;
}

}  // namespace perfbench

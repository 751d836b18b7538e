// Tests for the matching engine: knowledge base indexing, rule XML
// round-trips, temporal windows, joins, spatial predicates, cooldowns,
// the full ice-cream scenario from §1.1, equivalence with the naive
// baseline, and discovery matchlets.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "event/filter_parser.hpp"
#include "match/discovery.hpp"
#include "match/engine.hpp"
#include "match/matchlet.hpp"
#include "match/naive_engine.hpp"
#include "overlay/overlay_network.hpp"
#include "pipeline/components.hpp"

namespace aa::match {
namespace {

using event::Event;
using event::Filter;
using event::Op;

Filter f(const std::string& text) {
  auto r = event::parse_filter(text);
  EXPECT_TRUE(r.is_ok()) << text << ": " << r.status().to_string();
  return r.value_or(Filter());
}

// --- KnowledgeBase ---

TEST(Knowledge, AddQueryRemove) {
  KnowledgeBase kb;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("likes", "icecream");
  const FactId id = kb.add(pref);
  EXPECT_EQ(kb.query(f("kind = preference and user = bob")).size(), 1u);
  EXPECT_TRUE(kb.remove(id));
  EXPECT_TRUE(kb.query(f("kind = preference")).empty());
  EXPECT_FALSE(kb.remove(id));
}

TEST(Knowledge, UpdateReindexes) {
  KnowledgeBase kb;
  Fact fact;
  fact.set("kind", "shop").set("name", "janettas");
  const FactId id = kb.add(fact);
  Fact updated;
  updated.set("kind", "restaurant").set("name", "janettas");
  ASSERT_TRUE(kb.update(id, updated));
  EXPECT_TRUE(kb.query(f("kind = shop")).empty());
  EXPECT_EQ(kb.query(f("kind = restaurant")).size(), 1u);
}

TEST(Knowledge, IndexedProbeExaminesFewerFacts) {
  KnowledgeBase kb;
  for (int i = 0; i < 1000; ++i) {
    Fact fact;
    fact.set("kind", i % 2 == 0 ? "a" : "b").set("user", "u" + std::to_string(i));
    kb.add(fact);
  }
  const auto before = kb.stats().facts_examined;
  EXPECT_EQ(kb.query(f("user = u77")).size(), 1u);
  EXPECT_EQ(kb.stats().facts_examined - before, 1u);  // index hit exactly one
  EXPECT_GE(kb.stats().indexed_queries, 1u);
}

TEST(Knowledge, NonStringFilterFallsBackToScan) {
  KnowledgeBase kb;
  Fact fact;
  fact.set("level", 5);
  kb.add(fact);
  EXPECT_EQ(kb.query(Filter().where("level", Op::kGt, 3)).size(), 1u);
  EXPECT_GE(kb.stats().scan_queries, 1u);
}

// --- Rule XML round-trip ---

Rule ice_cream_rule() {
  Rule rule;
  rule.name = "icecream-meetup";
  rule.cooldown = duration::minutes(10);
  rule.triggers = {
      {"loc", f("type = user-location and user = bob"), duration::minutes(5)},
      {"temp", f("type = temperature"), duration::minutes(15)},
  };
  rule.facts = {
      {"pref", f("kind = preference and likes = icecream")},
      {"shop", f("kind = shop and sells = icecream")},
  };
  rule.joins = {
      {Operand::ref("loc", "user"), Op::kEq, Operand::ref("pref", "user")},
      {Operand::ref("temp", "celsius"), Op::kGe, Operand::ref("pref", "min_celsius")},
  };
  rule.spatials = {{"loc", "shop", -1.0, 600.0}};  // within 10 min walk
  rule.emit.type = "suggestion";
  rule.emit.sets = {
      {"user", std::nullopt, "loc", "user"},
      {"place", std::nullopt, "shop", "name"},
      {"what", event::AttrValue("icecream"), "", ""},
  };
  return rule;
}

TEST(RuleXml, RoundTrip) {
  const Rule rule = ice_cream_rule();
  auto back = Rule::parse(rule.to_xml_string());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string() << "\n" << rule.to_xml_string();
  const Rule& r = back.value();
  EXPECT_EQ(r.name, rule.name);
  EXPECT_EQ(r.cooldown, rule.cooldown);
  ASSERT_EQ(r.triggers.size(), 2u);
  EXPECT_EQ(r.triggers[0].alias, "loc");
  EXPECT_EQ(r.triggers[0].window, duration::minutes(5));
  EXPECT_EQ(r.triggers[0].filter, rule.triggers[0].filter);
  ASSERT_EQ(r.facts.size(), 2u);
  ASSERT_EQ(r.joins.size(), 2u);
  EXPECT_EQ(r.joins[1].op, Op::kGe);
  ASSERT_EQ(r.spatials.size(), 1u);
  EXPECT_DOUBLE_EQ(r.spatials[0].max_walk_seconds, 600.0);
  ASSERT_EQ(r.emit.sets.size(), 3u);
  EXPECT_EQ(r.emit.sets[2].constant->str(), "icecream");
}

TEST(RuleXml, RejectsMalformed) {
  EXPECT_FALSE(Rule::parse("<rule name=\"x\"/>").is_ok());  // no trigger/emit
  EXPECT_FALSE(Rule::parse("<notarule/>").is_ok());
  EXPECT_FALSE(
      Rule::parse("<rule name=\"x\"><trigger alias=\"a\" filter=\"t = 1\"/></rule>").is_ok());
}

// --- Engine semantics ---

struct EngineFixture {
  KnowledgeBase kb;
  MatchEngine engine{kb};
  std::vector<Event> out;
  MatchEngine::Sink sink = [this](const Event& e) { out.push_back(e); };
};

Event loc_event(const std::string& user, double lat, double lon, SimTime t) {
  Event e("user-location");
  e.set("user", user).set("lat", lat).set("lon", lon).set_time(t);
  return e;
}

Event temp_event(double celsius, SimTime t) {
  Event e("temperature");
  e.set("celsius", celsius).set_time(t);
  return e;
}

TEST(Engine, SingleTriggerWithFactJoin) {
  EngineFixture fx;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("min_celsius", 18.0);
  fx.kb.add(pref);

  Rule rule;
  rule.name = "hot-for-bob";
  rule.triggers = {{"temp", f("type = temperature"), duration::minutes(5)}};
  rule.facts = {{"pref", f("kind = preference and user = bob")}};
  rule.joins = {{Operand::ref("temp", "celsius"), Op::kGe, Operand::ref("pref", "min_celsius")}};
  rule.emit.type = "hot";
  rule.emit.sets = {{"user", std::nullopt, "pref", "user"}};
  fx.engine.add_rule(rule);

  fx.engine.on_event(temp_event(20.0, 1000), 1000, fx.sink);
  fx.engine.on_event(temp_event(15.0, 2000), 2000, fx.sink);
  ASSERT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.out[0].type(), "hot");
  EXPECT_EQ(fx.out[0].get_string("user").value(), "bob");
  EXPECT_EQ(fx.out[0].get_string("rule").value(), "hot-for-bob");
}

TEST(Engine, TwoTriggerTemporalJoinWithinWindow) {
  EngineFixture fx;
  Rule rule;
  rule.name = "both";
  rule.triggers = {
      {"a", f("type = alpha"), duration::seconds(10)},
      {"b", f("type = beta"), duration::seconds(10)},
  };
  rule.emit.type = "correlated";
  fx.engine.add_rule(rule);

  Event alpha("alpha");
  alpha.set_time(duration::seconds(1));
  fx.engine.on_event(alpha, duration::seconds(1), fx.sink);
  EXPECT_TRUE(fx.out.empty());  // beta not seen yet

  Event beta("beta");
  beta.set_time(duration::seconds(5));
  fx.engine.on_event(beta, duration::seconds(5), fx.sink);
  EXPECT_EQ(fx.out.size(), 1u);  // alpha still in window
}

TEST(Engine, WindowExpiryPreventsStaleJoin) {
  EngineFixture fx;
  Rule rule;
  rule.name = "both";
  rule.triggers = {
      {"a", f("type = alpha"), duration::seconds(10)},
      {"b", f("type = beta"), duration::seconds(10)},
  };
  rule.emit.type = "correlated";
  fx.engine.add_rule(rule);

  Event alpha("alpha");
  alpha.set_time(duration::seconds(1));
  fx.engine.on_event(alpha, duration::seconds(1), fx.sink);
  Event beta("beta");
  beta.set_time(duration::seconds(30));
  fx.engine.on_event(beta, duration::seconds(30), fx.sink);  // alpha expired
  EXPECT_TRUE(fx.out.empty());
}

TEST(Engine, CooldownSuppressesRepeats) {
  EngineFixture fx;
  Rule rule;
  rule.name = "r";
  rule.cooldown = duration::minutes(10);
  rule.triggers = {{"t", f("type = temperature"), duration::minutes(1)}};
  rule.emit.type = "alert";
  fx.engine.add_rule(rule);

  for (int i = 0; i < 5; ++i) {
    fx.engine.on_event(temp_event(20.0, duration::seconds(i)), duration::seconds(i), fx.sink);
  }
  EXPECT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.engine.stats().cooldown_suppressed, 4u);

  // After the cooldown elapses it fires again.
  fx.engine.on_event(temp_event(20.0, duration::minutes(20)), duration::minutes(20), fx.sink);
  EXPECT_EQ(fx.out.size(), 2u);
}

TEST(Engine, SpatialPredicateFiltersFarApart) {
  EngineFixture fx;
  Fact shop;
  shop.set("kind", "shop").set("name", "janettas").set("lat", 56.3403).set("lon", -2.7957);
  fx.kb.add(shop);

  Rule rule;
  rule.name = "nearby";
  rule.triggers = {{"loc", f("type = user-location"), duration::minutes(5)}};
  rule.facts = {{"shop", f("kind = shop")}};
  rule.spatials = {{"loc", "shop", 500.0, -1.0}};
  rule.emit.type = "near-shop";
  rule.emit.sets = {{"user", std::nullopt, "loc", "user"}};
  fx.engine.add_rule(rule);

  fx.engine.on_event(loc_event("bob", 56.3417, -2.7972, 1000), 1000, fx.sink);  // ~200 m
  EXPECT_EQ(fx.out.size(), 1u);
  fx.engine.on_event(loc_event("anna", 56.5, -2.5, 2000), 2000, fx.sink);  // ~25 km
  EXPECT_EQ(fx.out.size(), 1u);
}

TEST(Engine, RemoveRuleStopsMatching) {
  EngineFixture fx;
  Rule rule;
  rule.name = "r";
  rule.triggers = {{"t", f("type = temperature"), duration::minutes(1)}};
  rule.emit.type = "alert";
  fx.engine.add_rule(rule);
  EXPECT_TRUE(fx.engine.remove_rule("r"));
  EXPECT_FALSE(fx.engine.remove_rule("r"));
  fx.engine.on_event(temp_event(20.0, 0), 0, fx.sink);
  EXPECT_TRUE(fx.out.empty());
}

TEST(Engine, HandlesTypeReflectsTriggers) {
  EngineFixture fx;
  Rule rule;
  rule.name = "r";
  rule.triggers = {{"t", f("type = temperature and celsius > 5"), duration::minutes(1)}};
  rule.emit.type = "alert";
  fx.engine.add_rule(rule);
  EXPECT_TRUE(fx.engine.handles_type("temperature"));
  EXPECT_FALSE(fx.engine.handles_type("humidity"));
}

// --- The §1.1 ice-cream scenario, end to end ---

TEST(Engine, IceCreamScenario) {
  EngineFixture fx;
  // The paper's items of knowledge:
  Fact pref;  // "Bob likes ice cream, but only when the weather is hot"
  pref.set("kind", "preference").set("user", "bob").set("likes", "icecream")
      .set("min_celsius", 18.0);  // "Bob is Scottish ... regards 20º as hot"
  fx.kb.add(pref);
  Fact shop;  // "Janetta's in Market Street sells ice cream, open 9-17"
  shop.set("kind", "shop").set("name", "janettas").set("sells", "icecream")
      .set("lat", 56.3403).set("lon", -2.7957).set("opens", 9.0).set("closes", 17.0);
  fx.kb.add(shop);

  fx.engine.add_rule(ice_cream_rule());

  const SimTime t0 = duration::hours(16) + duration::minutes(45);
  // "it is 20ºC ... at 16.30"
  fx.engine.on_event(temp_event(20.0, t0 - duration::minutes(15) + duration::seconds(1)),
                     t0 - duration::minutes(15) + duration::seconds(1), fx.sink);
  EXPECT_TRUE(fx.out.empty());
  // "Bob is in North Street at 16.45" (~200 m from Janetta's)
  fx.engine.on_event(loc_event("bob", 56.3417, -2.7972, t0), t0, fx.sink);

  ASSERT_EQ(fx.out.size(), 1u);
  const Event& suggestion = fx.out[0];
  EXPECT_EQ(suggestion.type(), "suggestion");
  EXPECT_EQ(suggestion.get_string("user").value(), "bob");
  EXPECT_EQ(suggestion.get_string("place").value(), "janettas");
  EXPECT_EQ(suggestion.get_string("what").value(), "icecream");
}

TEST(Engine, IceCreamScenarioColdWeatherNoMatch) {
  EngineFixture fx;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("likes", "icecream")
      .set("min_celsius", 18.0);
  fx.kb.add(pref);
  Fact shop;
  shop.set("kind", "shop").set("name", "janettas").set("sells", "icecream")
      .set("lat", 56.3403).set("lon", -2.7957);
  fx.kb.add(shop);
  fx.engine.add_rule(ice_cream_rule());

  fx.engine.on_event(temp_event(10.0, 1000), 1000, fx.sink);  // too cold for Bob
  fx.engine.on_event(loc_event("bob", 56.3417, -2.7972, 2000), 2000, fx.sink);
  EXPECT_TRUE(fx.out.empty());
}

// --- Naive equivalence ---

TEST(NaiveEquivalence, SameMatchesOnInWindowWorkload) {
  KnowledgeBase kb;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("min_celsius", 15.0);
  kb.add(pref);

  Rule rule;
  rule.name = "r";
  rule.triggers = {
      {"loc", f("type = user-location"), duration::minutes(10)},
      {"temp", f("type = temperature"), duration::minutes(10)},
  };
  rule.facts = {{"pref", f("kind = preference")}};
  rule.joins = {{Operand::ref("loc", "user"), Op::kEq, Operand::ref("pref", "user")},
                {Operand::ref("temp", "celsius"), Op::kGe,
                 Operand::ref("pref", "min_celsius")}};
  rule.emit.type = "match";
  rule.emit.sets = {{"user", std::nullopt, "loc", "user"}};

  MatchEngine incremental(kb);
  incremental.add_rule(rule);
  NaiveEngine naive(kb);
  naive.add_rule(rule);

  int inc_count = 0, naive_count = 0;
  Rng rng(3);
  SimTime t = 0;
  for (int i = 0; i < 120; ++i) {
    t += duration::seconds(static_cast<std::int64_t>(rng.below(30)));
    Event e = rng.chance(0.5)
                  ? loc_event(rng.chance(0.7) ? "bob" : "anna", 56.0, -2.0, t)
                  : temp_event(rng.uniform(5.0, 25.0), t);
    incremental.on_event(e, t, [&](const Event&) { ++inc_count; });
    naive.on_event(e, t, [&](const Event&) { ++naive_count; });
  }
  EXPECT_GT(inc_count, 0);
  EXPECT_EQ(inc_count, naive_count);
  // And the incremental engine explored far fewer candidates.
  EXPECT_LT(incremental.stats().candidate_bindings, naive.candidate_bindings());
}

// --- Differential oracle: the incremental engine against NaiveEngine ---
//
// Random rules (1-2 triggers, 0-2 fact patterns, eq/ge/ne joins over
// bound aliases, constants and an alias no pattern binds, emit sets with
// constants and a `type` overwrite) and random streams over mixed-type
// attributes.  The engines must emit the same ordered sequence of
// events, attribute for attribute.  NaiveEngine has no cooldown, so its
// stream passes through CooldownReference first.

/// The cooldown contract restated over emitted events: key
/// "rule|atom=text;..." over every attribute but `time`, in the event's
/// canonical (AtomId) order; a firing is suppressed while the previous
/// admitted firing with the same key is younger than the cooldown.
class CooldownReference {
 public:
  bool admit(const Event& e, SimDuration cooldown, SimTime now) {
    if (cooldown <= 0) return true;
    std::string key = e.get_string("rule").value() + "|";
    for (const auto& [atom, value] : e.attributes()) {
      if (atom == event::time_atom()) continue;
      key += event::atom_name(atom) + "=" + value.to_text() + ";";
    }
    auto it = last_.find(key);
    if (it != last_.end() && now - it->second < cooldown) return false;
    last_[key] = now;
    return true;
  }

 private:
  std::map<std::string, SimTime> last_;
};

event::AttrValue random_value(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return "u" + std::to_string(rng.below(8));
    case 1: return static_cast<std::int64_t>(rng.below(4));
    case 2: return static_cast<double>(rng.below(8)) / 2.0;
    default: return rng.chance(0.5) ? event::AttrValue(1) : event::AttrValue("1");
  }
}

const char* const kOracleAttrs[] = {"user", "v", "x", "s", "missing"};

std::string random_attr(Rng& rng) { return kOracleAttrs[rng.below(5)]; }

Event random_oracle_event(Rng& rng, SimTime t) {
  Event e(std::string(1, static_cast<char>('a' + rng.below(3))));
  e.set("user", "u" + std::to_string(rng.below(8)));
  if (rng.chance(0.8)) e.set("v", static_cast<std::int64_t>(rng.below(4)));
  if (rng.chance(0.5)) e.set("x", static_cast<double>(rng.below(8)) / 2.0);
  if (rng.chance(0.5)) e.set("s", rng.chance(0.5) ? event::AttrValue(1) : event::AttrValue("1"));
  e.set_time(t);
  return e;
}

Fact random_oracle_fact(Rng& rng) {
  Fact fact;
  fact.set("kind", rng.chance(0.5) ? "pref" : "shop");
  fact.set("user", "u" + std::to_string(rng.below(8)));
  if (rng.chance(0.8)) fact.set("v", static_cast<std::int64_t>(rng.below(4)));
  if (rng.chance(0.5)) fact.set("x", static_cast<double>(rng.below(8)) / 2.0);
  if (rng.chance(0.3)) fact.set("s", rng.chance(0.5) ? event::AttrValue(1) : event::AttrValue("1"));
  return fact;
}

Operand random_operand(Rng& rng, const std::vector<std::string>& aliases) {
  if (rng.chance(0.2)) return Operand::lit(random_value(rng));
  return Operand::ref(aliases[rng.below(aliases.size())], random_attr(rng));
}

Rule random_oracle_rule(Rng& rng, int index, bool overwrite_type) {
  Rule rule;
  rule.name = "r" + std::to_string(index);
  rule.cooldown = rng.chance(0.5) ? duration::seconds(rng.range(5, 90)) : 0;
  // Every alias a join or emit set may name, including one no pattern
  // binds: conditions over it are vacuous, sets from it are skipped.
  std::vector<std::string> aliases = {"ghost"};
  const std::size_t n_triggers = 1 + rng.below(2);
  for (std::size_t i = 0; i < n_triggers; ++i) {
    Filter filter = Filter().where("type", Op::kEq,
                                   std::string(1, static_cast<char>('a' + rng.below(3))));
    if (rng.chance(0.3)) filter.where("v", Op::kGe, static_cast<std::int64_t>(rng.below(3)));
    rule.triggers.push_back(
        {"t" + std::to_string(i), filter, duration::seconds(rng.range(5, 60))});
    aliases.push_back(rule.triggers.back().alias);
  }
  const std::size_t n_facts = rng.below(3);
  for (std::size_t i = 0; i < n_facts; ++i) {
    Filter filter;
    switch (rng.below(4)) {
      case 0: break;  // scan every fact
      case 1: filter.where("v", Op::kGe, 1); break;  // scan, non-string probe
      default: filter.where("kind", Op::kEq, rng.chance(0.5) ? "pref" : "shop");
    }
    rule.facts.push_back({"f" + std::to_string(i), filter});
    aliases.push_back(rule.facts.back().alias);
  }
  const Op kOps[] = {Op::kEq, Op::kEq, Op::kGe, Op::kNe};
  const std::size_t n_joins = rng.below(4);
  for (std::size_t i = 0; i < n_joins; ++i) {
    rule.joins.push_back(
        {random_operand(rng, aliases), kOps[rng.below(4)], random_operand(rng, aliases)});
  }
  rule.emit.type = "out";
  const char* const kNames[] = {"user", "v", "w", "k"};
  const std::size_t n_sets = rng.below(4);
  for (std::size_t i = 0; i < n_sets; ++i) {
    const std::string name = kNames[rng.below(4)];
    if (rng.chance(0.3)) {
      rule.emit.sets.push_back({name, random_value(rng), "", ""});
    } else {
      rule.emit.sets.push_back(
          {name, std::nullopt, aliases[rng.below(aliases.size())], random_attr(rng)});
    }
  }
  if (overwrite_type) {
    rule.emit.sets.push_back({"type", std::nullopt, rule.triggers[0].alias, "user"});
  }
  return rule;
}

std::string describe_all(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) out += e.describe() + "\n";
  return out;
}

TEST(NaiveEquivalence, SameOrderedEmissionsOnRandomRules) {
  constexpr int kCases = 240;
  std::uint64_t total_emitted = 0, total_suppressed = 0, total_fact_rules = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(1000 + static_cast<std::uint64_t>(c));
    KnowledgeBase kb;
    const std::size_t n_facts = 4 + rng.below(12);
    for (std::size_t i = 0; i < n_facts; ++i) kb.add(random_oracle_fact(rng));

    MatchEngine incremental(kb);
    NaiveEngine naive(kb);
    std::map<std::string, SimDuration> cooldowns;
    const int n_rules = 1 + static_cast<int>(rng.below(2));
    for (int r = 0; r < n_rules; ++r) {
      const Rule rule = random_oracle_rule(rng, r, c % 4 == 0 && r == 0);
      cooldowns[rule.name] = rule.cooldown;
      if (!rule.facts.empty()) ++total_fact_rules;
      incremental.add_rule(rule);
      naive.add_rule(rule);
    }

    std::vector<Event> got, want;
    CooldownReference reference;
    SimTime t = 0;
    for (int i = 0; i < 40; ++i) {
      t += duration::seconds(rng.range(1, 8));
      const Event e = random_oracle_event(rng, t);
      incremental.on_event(e, t, [&](const Event& out) { got.push_back(out); });
      naive.on_event(e, t, [&](const Event& out) {
        if (reference.admit(out, cooldowns.at(out.get_string("rule").value()), t)) {
          want.push_back(out);
        }
      });
    }
    ASSERT_TRUE(got == want) << "case " << c << "\n--- incremental\n"
                             << describe_all(got) << "--- naive\n"
                             << describe_all(want);
    EXPECT_EQ(incremental.stats().matches_emitted, got.size());
    total_emitted += got.size();
    total_suppressed += incremental.stats().cooldown_suppressed;
  }
  // The cases exercise what they claim to: many emissions, rules with
  // fact patterns, and cooldown suppression.
  EXPECT_GT(total_emitted, 2000u);
  EXPECT_GT(total_fact_rules, 100u);
  EXPECT_GT(total_suppressed, 100u);
}

// --- Cooldown-key and alias-binding semantics, pinned ---

Rule ping_rule(SimDuration cooldown, std::vector<Assignment> sets) {
  Rule rule;
  rule.name = "r";
  rule.cooldown = cooldown;
  rule.triggers = {{"t", f("type = ping"), duration::minutes(1)}};
  rule.emit.type = "alert";
  rule.emit.sets = std::move(sets);
  return rule;
}

Event ping(std::optional<event::AttrValue> v, SimTime t) {
  Event e("ping");
  if (v.has_value()) e.set("v", *v);
  e.set_time(t);
  return e;
}

TEST(Engine, CooldownKeyComparesValuesAsTextAndIgnoresTime) {
  EngineFixture fx;
  fx.engine.add_rule(ping_rule(duration::minutes(10), {{"v", std::nullopt, "t", "v"}}));
  const SimTime s = duration::seconds(1);
  fx.engine.on_event(ping(event::AttrValue(1), s), s, fx.sink);
  // String "1" renders like int 1, and the differing `time` is not part
  // of the key: suppressed.
  fx.engine.on_event(ping(event::AttrValue("1"), 2 * s), 2 * s, fx.sink);
  fx.engine.on_event(ping(event::AttrValue(2), 3 * s), 3 * s, fx.sink);
  ASSERT_EQ(fx.out.size(), 2u);
  EXPECT_EQ(fx.engine.stats().cooldown_suppressed, 1u);
  EXPECT_EQ(fx.out[0].get_int("v").value(), 1);
  EXPECT_EQ(fx.out[1].get_int("v").value(), 2);
}

TEST(Engine, CooldownKeyUsesTheLastResolvedSetOfAName) {
  EngineFixture fx;
  fx.engine.add_rule(ping_rule(duration::minutes(10), {{"v", event::AttrValue(0), "", ""},
                                                      {"v", std::nullopt, "t", "v"}}));
  const SimTime s = duration::seconds(1);
  fx.engine.on_event(ping(event::AttrValue(1), s), s, fx.sink);         // v=1
  fx.engine.on_event(ping(event::AttrValue(2), 2 * s), 2 * s, fx.sink); // v=2: new key
  fx.engine.on_event(ping(event::AttrValue(1), 3 * s), 3 * s, fx.sink); // v=1 again
  fx.engine.on_event(ping(std::nullopt, 4 * s), 4 * s, fx.sink);        // constant v=0
  fx.engine.on_event(ping(std::nullopt, 5 * s), 5 * s, fx.sink);        // v=0 again
  ASSERT_EQ(fx.out.size(), 3u);
  EXPECT_EQ(fx.engine.stats().cooldown_suppressed, 2u);
  EXPECT_EQ(fx.out[0].get_int("v").value(), 1);
  EXPECT_EQ(fx.out[1].get_int("v").value(), 2);
  EXPECT_EQ(fx.out[2].get_int("v").value(), 0);
}

TEST(Engine, CooldownTableStaysBoundedUnderDistinctKeys) {
  KnowledgeBase kb;
  MatchEngine engine(kb);
  engine.add_rule(ping_rule(duration::seconds(1), {{"v", std::nullopt, "t", "v"}}));
  constexpr int kKeys = 100000;
  std::uint64_t emitted = 0;
  std::size_t peak = 0;
  const MatchEngine::Sink sink = [&emitted](const Event&) { ++emitted; };
  for (int i = 0; i < kKeys; ++i) {
    const SimTime t = i * duration::millis(100);
    engine.on_event(ping(event::AttrValue(i), t), t, sink);
    // The previous key fired 100 ms ago: still cooling down, whatever
    // the table has forgotten in between.
    if (i > 0) engine.on_event(ping(event::AttrValue(i - 1), t), t, sink);
    peak = std::max(peak, engine.cooldown_entries());
  }
  EXPECT_EQ(emitted, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(engine.stats().cooldown_suppressed, static_cast<std::uint64_t>(kKeys - 1));
  // Ten keys are live at a time; the table holds a constant multiple.
  EXPECT_LE(peak, 128u);
}

TEST(Engine, RepeatedAliasSharesOneWindowAndFirstBindingWins) {
  EngineFixture fx;
  Rule rule;
  rule.name = "dup";
  rule.triggers = {{"x", f("type = a"), duration::minutes(1)},
                   {"x", f("type = b"), duration::minutes(1)}};
  rule.emit.type = "o";
  rule.emit.sets = {{"v", std::nullopt, "x", "v"}};
  fx.engine.add_rule(rule);
  const SimTime s = duration::seconds(1);
  Event a1("a"), b1("b"), a2("a");
  a1.set("v", 1).set_time(s);
  b1.set("v", 2).set_time(2 * s);
  a2.set("v", 3).set_time(3 * s);
  fx.engine.on_event(a1, s, fx.sink);      // the shared window is empty
  fx.engine.on_event(b1, 2 * s, fx.sink);  // joins a1; "x" resolves to b1
  fx.engine.on_event(a2, 3 * s, fx.sink);  // joins a1 and b1; "x" is a2
  ASSERT_EQ(fx.out.size(), 3u);
  EXPECT_EQ(fx.out[0].get_int("v").value(), 2);
  EXPECT_EQ(fx.out[1].get_int("v").value(), 3);
  EXPECT_EQ(fx.out[2].get_int("v").value(), 3);
}

// --- Matchlet as pipeline component ---

TEST(Matchlet, EmitsDownstream) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(4, 1000);
  sim::Network net(sched, topo);
  pipeline::PipelineNetwork pipes(net);
  KnowledgeBase kb;

  auto matchlet = std::make_unique<Matchlet>("m", kb);
  Rule rule;
  rule.name = "r";
  rule.triggers = {{"t", f("type = temperature and celsius > 10"), duration::minutes(1)}};
  rule.emit.type = "hot";
  matchlet->add_rule(rule);

  auto m_ref = pipes.add(0, std::move(matchlet));
  std::vector<Event> got;
  auto sink = pipes.add(0, std::make_unique<pipeline::SinkComponent>(
                               "s", [&](const Event& e) { got.push_back(e); }));
  ASSERT_TRUE(pipes.connect(m_ref, sink).is_ok());

  pipes.inject(m_ref, temp_event(20.0, 0));
  sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type(), "hot");
}

// --- Discovery ---

struct DiscoveryFixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo = std::make_shared<sim::UniformTopology>(16, 1000);
  sim::Network net{sched, topo};
  overlay::OverlayNetwork overlay;
  storage::ObjectStore store;
  bundle::ThinServerRuntime runtime{net, "secret"};
  bundle::BundleDeployer deployer{net, runtime};
  pipeline::PipelineNetwork pipes{net};
  KnowledgeBase kb;

  DiscoveryFixture()
      : overlay(net, no_maintenance()), store(net, overlay, storage::ObjectStore::Params{}) {
    std::vector<sim::HostId> hosts;
    for (sim::HostId h = 0; h < 16; ++h) hosts.push_back(h);
    overlay.build_ring(hosts);
    store.sync_hosts();
    register_matchlet_installer(runtime, pipes, [this](sim::HostId) -> KnowledgeBase& {
      return kb;
    });
    for (sim::HostId h = 0; h < 16; ++h) runtime.start_server(h, {"run.matchlet"});
  }
  static overlay::OverlayNetwork::Params no_maintenance() {
    overlay::OverlayNetwork::Params p;
    p.maintenance_period = 0;
    return p;
  }
};

TEST(Discovery, FetchesAndDeploysHandlerForUnknownType) {
  DiscoveryFixture fx;
  // Publish a handler bundle for "pollen" events in the code directory.
  Rule rule;
  rule.name = "pollen-alert";
  rule.triggers = {{"p", f("type = pollen and level > 5"), duration::minutes(1)}};
  rule.emit.type = "pollen-warning";
  xml::Element config("config");
  config.add_child(rule.to_xml());
  bundle::CodeBundle handler("pollen-handler", "matchlet", config);
  handler.require_capability("run.matchlet");
  fx.store.put_named(0, DiscoveryService::handler_key("pollen"),
                     to_bytes(handler.to_xml_string()));
  fx.sched.run();

  DiscoveryService discovery(
      3, fx.store, fx.deployer,
      [&](const std::string& type) {
        // "handled" = some matchlet on host 5 handles it.
        const auto* c = fx.pipes.component(pipeline::ComponentRef{5, "pollen-handler"});
        return c != nullptr && type == "pollen";
      },
      [](const std::string&) { return sim::HostId{5}; });

  Event pollen("pollen");
  pollen.set("level", 8);
  EXPECT_FALSE(discovery.consider(pollen));
  fx.sched.run();

  EXPECT_EQ(discovery.stats().handlers_deployed, 1u);
  EXPECT_TRUE(discovery.deployed_types().contains("pollen"));
  EXPECT_TRUE(fx.pipes.exists(pipeline::ComponentRef{5, "pollen-handler"}));
  EXPECT_TRUE(discovery.consider(pollen));  // now handled
}

TEST(Discovery, UnpublishedTypeFailsOnce) {
  DiscoveryFixture fx;
  DiscoveryService discovery(
      3, fx.store, fx.deployer, [](const std::string&) { return false; },
      [](const std::string&) { return sim::HostId{5}; });
  Event mystery("mystery");
  EXPECT_FALSE(discovery.consider(mystery));
  fx.sched.run();
  EXPECT_EQ(discovery.stats().lookup_failures, 1u);
  // Subsequent sightings do not retry (remembered as unpublished).
  EXPECT_FALSE(discovery.consider(mystery));
  fx.sched.run();
  EXPECT_EQ(discovery.stats().lookups, 1u);
  discovery.reset_failed();
  EXPECT_FALSE(discovery.consider(mystery));
  fx.sched.run();
  EXPECT_EQ(discovery.stats().lookups, 2u);
}

TEST(Discovery, MatchletPassesEventsThrough) {
  DiscoveryFixture fx;
  DiscoveryService discovery(
      3, fx.store, fx.deployer, [](const std::string&) { return true; },
      [](const std::string&) { return sim::HostId{5}; });
  auto watcher =
      fx.pipes.add(0, std::make_unique<DiscoveryMatchlet>("disc", discovery));
  std::vector<Event> got;
  auto sink = fx.pipes.add(0, std::make_unique<pipeline::SinkComponent>(
                                  "s", [&](const Event& e) { got.push_back(e); }));
  ASSERT_TRUE(fx.pipes.connect(watcher, sink).is_ok());
  fx.pipes.inject(watcher, temp_event(5.0, 0));
  fx.sched.run();
  EXPECT_EQ(got.size(), 1u);
}

}  // namespace
}  // namespace aa::match

#include "match/engine.hpp"

#include <algorithm>
#include <optional>
#include <span>

namespace aa::match {

namespace {
// Hard cap per trigger window so a silent subscriber can't accumulate
// unbounded state; oldest events are shed first.
constexpr std::size_t kMaxWindowEvents = 4096;
// The cooldown table is not swept below this size.
constexpr std::size_t kMinSweepEntries = 64;

using event::AtomId;
using event::AttrValue;
using event::Event;
using Slots = std::vector<const Event*>;

/// One operand, compiled: a constant, or attribute `attr` of the event
/// bound in slot `slot`.
struct Side {
  const AttrValue* constant = nullptr;
  std::size_t slot = 0;
  AtomId attr = event::kNoAtom;

  bool bound(const Slots& slots) const { return constant != nullptr || slots[slot] != nullptr; }
  /// The operand's value; null when its slot is unbound or the bound
  /// event lacks the attribute.
  const AttrValue* value(const Slots& slots) const {
    if (constant != nullptr) return constant;
    const Event* e = slots[slot];
    return e == nullptr ? nullptr : e->get(attr);
  }
};

struct CompiledJoin {
  Side left;
  event::Op op = event::Op::kEq;
  Side right;

  /// join_holds() over slots: vacuous while a side is unbound, false
  /// when a bound side lacks its attribute.
  bool holds(const Slots& slots) const {
    if (!left.bound(slots) || !right.bound(slots)) return true;
    const AttrValue* l = left.value(slots);
    const AttrValue* r = right.value(slots);
    return l != nullptr && r != nullptr && event::op_holds(op, *l, *r);
  }
};

struct CompiledSpatial {
  const SpatialCondition* cond = nullptr;
  std::size_t left = 0;
  std::size_t right = 0;

  bool holds(const Slots& slots) const {
    const Event* l = slots[left];
    const Event* r = slots[right];
    return l == nullptr || r == nullptr || spatial_holds(*cond, *l, *r);
  }
};

/// An equality join pushed into a fact pattern's probe: the fact's
/// `fact_attr` must equal the other side's value.
struct Pushdown {
  AtomId fact_attr = event::kNoAtom;
  Side other;
};

struct FactStep {
  std::size_t slot = 0;
  // The pattern's own constraints, then room for one constraint per
  // pushdown; probe() overwrites that tail in place.
  std::vector<event::Constraint> probe;
  std::size_t base = 0;
  std::vector<Pushdown> pushdowns;
};

struct EmitSet {
  std::size_t target = 0;  // index into CompiledEmit::atoms
  Side source;
};

struct CompiledEmit {
  // Output attributes but `time`, in AtomId order: the suggestion's
  // canonical attribute order, hence also the cooldown key's.
  std::vector<AtomId> atoms;
  std::vector<std::string> labels;  // "name=" per atom
  std::size_t type_index = 0;
  std::size_t rule_index = 0;
  AttrValue type_value;
  AttrValue rule_value;
  std::vector<EmitSet> sets;
  std::vector<const AttrValue*> values;  // per atom, for one firing
};

/// Appends AttrValue::to_text() without a temporary for strings.
void append_text(std::string& out, const AttrValue& v) {
  if (v.is_string()) {
    out += v.str();
  } else {
    out += v.to_text();
  }
}
}  // namespace

struct MatchEngine::CompiledRule {
  Rule rule;
  // Binding slots, one per distinct alias (trigger aliases first, then
  // fact aliases, in rule order).  A pattern whose alias is already
  // bound when its turn comes is still enumerated but stays invisible:
  // the alias keeps resolving to its first binding.
  std::vector<std::size_t> trigger_slot;
  // One window per distinct trigger alias, indexed by its slot; triggers
  // sharing an alias share the window.
  std::vector<std::deque<Event>> windows;
  std::vector<FactStep> facts;
  std::vector<CompiledJoin> joins;  // joins over aliases some pattern binds
  std::vector<CompiledSpatial> spatials;
  // Per slot: the joins/spatials that become checkable when it binds.
  std::vector<std::vector<std::size_t>> joins_at;
  std::vector<std::vector<std::size_t>> spatials_at;
  bool constants_hold = true;  // joins between two constants
  CompiledEmit emit;

  Slots slots;  // the current binding
  std::vector<std::size_t> matching;

  explicit CompiledRule(Rule r);

  /// partial_ok() after `slot` became visible: only the conditions that
  /// mention it can have changed.
  bool holds_at(std::size_t slot) const {
    for (std::size_t j : joins_at[slot]) {
      if (!joins[j].holds(slots)) return false;
    }
    for (std::size_t s : spatials_at[slot]) {
      if (!spatials[s].holds(slots)) return false;
    }
    return true;
  }

  /// Fills fact step `k`'s probe for the current binding.
  std::span<const event::Constraint> probe(std::size_t k) {
    FactStep& step = facts[k];
    std::size_t n = step.base;
    for (const Pushdown& p : step.pushdowns) {
      const AttrValue* v = p.other.value(slots);
      if (v == nullptr) continue;
      step.probe[n].atom = p.fact_attr;
      step.probe[n].value = *v;
      ++n;
    }
    return {step.probe.data(), n};
  }

  /// Resolves the emit spec under the current binding into emit.values.
  void resolve_emit() {
    std::fill(emit.values.begin(), emit.values.end(), nullptr);
    emit.values[emit.type_index] = &emit.type_value;
    for (const EmitSet& set : emit.sets) {
      if (const AttrValue* v = set.source.value(slots)) emit.values[set.target] = v;
    }
    emit.values[emit.rule_index] = &emit.rule_value;
  }
};

MatchEngine::CompiledRule::CompiledRule(Rule r) : rule(std::move(r)) {
  std::vector<std::string> aliases;
  auto slot_of = [&aliases](const std::string& alias) -> std::optional<std::size_t> {
    const auto it = std::find(aliases.begin(), aliases.end(), alias);
    if (it == aliases.end()) return std::nullopt;
    return static_cast<std::size_t>(it - aliases.begin());
  };
  auto add_alias = [&](const std::string& alias) {
    if (auto s = slot_of(alias)) return *s;
    aliases.push_back(alias);
    return aliases.size() - 1;
  };
  for (const TriggerPattern& t : rule.triggers) trigger_slot.push_back(add_alias(t.alias));
  windows.resize(aliases.size());
  std::vector<std::size_t> fact_slots;
  for (const FactPattern& f : rule.facts) fact_slots.push_back(add_alias(f.alias));
  slots.assign(aliases.size(), nullptr);
  joins_at.resize(aliases.size());
  spatials_at.resize(aliases.size());

  // An operand over an alias no pattern binds compiles to nullopt: a
  // condition over it is vacuous and a set from it never applies.
  auto side_of = [&](const Operand& op) -> std::optional<Side> {
    if (op.constant.has_value()) return Side{&*op.constant};
    const auto slot = slot_of(op.alias);
    if (!slot) return std::nullopt;
    return Side{nullptr, *slot, event::intern(op.attr)};
  };

  for (const JoinCondition& j : rule.joins) {
    const auto left = side_of(j.left);
    const auto right = side_of(j.right);
    if (!left || !right) continue;
    const CompiledJoin join{*left, j.op, *right};
    if (left->constant != nullptr && right->constant != nullptr) {
      constants_hold = constants_hold && join.holds(slots);
      continue;
    }
    const std::size_t index = joins.size();
    joins.push_back(join);
    if (left->constant == nullptr) joins_at[left->slot].push_back(index);
    if (right->constant == nullptr && (left->constant != nullptr || right->slot != left->slot)) {
      joins_at[right->slot].push_back(index);
    }
  }
  for (const SpatialCondition& s : rule.spatials) {
    const auto left = slot_of(s.left_alias);
    const auto right = slot_of(s.right_alias);
    if (!left || !right) continue;
    const std::size_t index = spatials.size();
    spatials.push_back({&s, *left, *right});
    spatials_at[*left].push_back(index);
    if (*right != *left) spatials_at[*right].push_back(index);
  }

  // Join pushdown: equality joins between a fact pattern and another
  // operand become extra probe constraints, so the knowledge-base index
  // narrows candidates to the joined value instead of every fact
  // matching the base filter ("pref.user = loc.user" probes user=bob,
  // not all preferences).  Planned by alias name, like the binding
  // lookup it feeds.
  for (std::size_t k = 0; k < rule.facts.size(); ++k) {
    const FactPattern& pattern = rule.facts[k];
    FactStep step;
    step.slot = fact_slots[k];
    step.probe = pattern.filter.constraints();
    step.base = step.probe.size();
    for (const JoinCondition& j : rule.joins) {
      if (j.op != event::Op::kEq) continue;
      const Operand* fact_side = nullptr;
      const Operand* other_side = nullptr;
      if (j.left.alias == pattern.alias && !j.left.constant.has_value()) {
        fact_side = &j.left;
        other_side = &j.right;
      } else if (j.right.alias == pattern.alias && !j.right.constant.has_value()) {
        fact_side = &j.right;
        other_side = &j.left;
      } else {
        continue;
      }
      const auto other = side_of(*other_side);
      if (!other) continue;
      step.pushdowns.push_back({event::intern(fact_side->attr), *other});
      step.probe.emplace_back(step.pushdowns.back().fact_attr, event::Op::kEq);
    }
    facts.push_back(std::move(step));
  }

  // The suggestion: Event(type), the sets in order (a later resolved set
  // of a name wins), then `time` and `rule`, which override any set.
  emit.atoms = {event::type_atom(), event::intern("rule")};
  for (const Assignment& a : rule.emit.sets) emit.atoms.push_back(event::intern(a.name));
  std::erase(emit.atoms, event::time_atom());
  std::sort(emit.atoms.begin(), emit.atoms.end());
  emit.atoms.erase(std::unique(emit.atoms.begin(), emit.atoms.end()), emit.atoms.end());
  auto index_of = [this](AtomId atom) {
    return static_cast<std::size_t>(
        std::lower_bound(emit.atoms.begin(), emit.atoms.end(), atom) - emit.atoms.begin());
  };
  for (AtomId atom : emit.atoms) emit.labels.push_back(event::atom_name(atom) + "=");
  emit.type_index = index_of(event::type_atom());
  emit.rule_index = index_of(event::intern("rule"));
  emit.type_value = rule.emit.type;
  emit.rule_value = rule.name;
  for (const Assignment& a : rule.emit.sets) {
    const AtomId atom = event::intern(a.name);
    if (atom == event::time_atom()) continue;
    const std::optional<Side> source =
        a.constant.has_value() ? Side{&*a.constant} : side_of(Operand::ref(a.from_alias, a.from_attr));
    if (source) emit.sets.push_back({index_of(atom), *source});
  }
  emit.values.resize(emit.atoms.size());
}

MatchEngine::MatchEngine(KnowledgeBase& kb) : kb_(kb) {}
MatchEngine::~MatchEngine() = default;

void MatchEngine::add_rule(Rule rule) {
  rules_.push_back(std::make_unique<CompiledRule>(std::move(rule)));
}

bool MatchEngine::remove_rule(const std::string& name) {
  const auto it = std::find_if(rules_.begin(), rules_.end(),
                               [&name](const auto& r) { return r->rule.name == name; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  return true;
}

bool MatchEngine::handles_type(const std::string& type) const {
  return std::any_of(rules_.begin(), rules_.end(),
                     [&type](const auto& r) { return r->rule.could_handle_type(type); });
}

void MatchEngine::expire(CompiledRule& rule, SimTime now) {
  for (std::size_t i = 0; i < rule.rule.triggers.size(); ++i) {
    const SimDuration window = rule.rule.triggers[i].window;
    auto& events = rule.windows[rule.trigger_slot[i]];
    while (!events.empty() &&
           (events.front().time() < now - window || events.size() > kMaxWindowEvents)) {
      events.pop_front();
    }
  }
}

void MatchEngine::on_event(const Event& e, SimTime now, const Sink& sink) {
  ++stats_.events_processed;
  latest_ = std::max(latest_, now);
  for (const auto& compiled : rules_) {
    CompiledRule& rule = *compiled;
    expire(rule, now);
    // An arriving event seeds at most one firing attempt per trigger it
    // matches; it joins other aliases only via their windows, so a
    // single event never binds two aliases of the same firing.
    rule.matching.clear();
    for (std::size_t i = 0; i < rule.rule.triggers.size(); ++i) {
      if (rule.rule.triggers[i].filter.matches(e)) rule.matching.push_back(i);
    }
    for (std::size_t i : rule.matching) {
      ++stats_.trigger_matches;
      try_fire(rule, i, e, now, sink);
    }
    for (std::size_t i : rule.matching) rule.windows[rule.trigger_slot[i]].push_back(e);
  }
}

void MatchEngine::try_fire(CompiledRule& rule, std::size_t seed_trigger, const Event& seed,
                           SimTime now, const Sink& sink) {
  if (!rule.constants_hold) return;
  const std::size_t slot = rule.trigger_slot[seed_trigger];
  rule.slots[slot] = &seed;
  if (rule.holds_at(slot)) extend(rule, 0, seed_trigger, now, sink);
  rule.slots[slot] = nullptr;
}

void MatchEngine::extend(CompiledRule& rule, std::size_t next_trigger, std::size_t seed_trigger,
                         SimTime now, const Sink& sink) {
  if (next_trigger == seed_trigger) ++next_trigger;
  if (next_trigger == rule.rule.triggers.size()) {
    bind_facts(rule, 0, now, sink);
    return;
  }
  const SimTime oldest = now - rule.rule.triggers[next_trigger].window;
  const std::size_t slot = rule.trigger_slot[next_trigger];
  const bool visible = rule.slots[slot] == nullptr;
  for (const Event& candidate : rule.windows[slot]) {
    if (candidate.time() < oldest) continue;  // stale
    ++stats_.candidate_bindings;
    if (visible) {
      rule.slots[slot] = &candidate;
      if (!rule.holds_at(slot)) continue;
    }
    extend(rule, next_trigger + 1, seed_trigger, now, sink);
  }
  if (visible) rule.slots[slot] = nullptr;
}

void MatchEngine::bind_facts(CompiledRule& rule, std::size_t next_fact, SimTime now,
                             const Sink& sink) {
  if (next_fact == rule.facts.size()) {
    fire(rule, now, sink);
    return;
  }
  const std::size_t slot = rule.facts[next_fact].slot;
  const bool visible = rule.slots[slot] == nullptr;
  kb_.visit(rule.probe(next_fact), [&](const Fact& fact) {
    ++stats_.candidate_bindings;
    if (visible) {
      rule.slots[slot] = &fact;
      if (!rule.holds_at(slot)) return;
    }
    bind_facts(rule, next_fact + 1, now, sink);
  });
  if (visible) rule.slots[slot] = nullptr;
}

void MatchEngine::fire(CompiledRule& rule, SimTime now, const Sink& sink) {
  rule.resolve_emit();
  const CompiledEmit& emit = rule.emit;
  if (rule.rule.cooldown > 0) {
    std::string& key = cooldown_key_;
    key.assign(rule.rule.name);
    key += '|';
    for (std::size_t i = 0; i < emit.atoms.size(); ++i) {
      if (emit.values[i] == nullptr) continue;
      key += emit.labels[i];
      append_text(key, *emit.values[i]);
      key += ';';
    }
    const auto it = last_fired_.find(key);
    if (it != last_fired_.end()) {
      if (now - it->second.at < rule.rule.cooldown) {
        ++stats_.cooldown_suppressed;
        return;
      }
      it->second = {now, rule.rule.cooldown};
    } else {
      last_fired_.emplace(key, LastFired{now, rule.rule.cooldown});
      if (last_fired_.size() >= sweep_at_) sweep_cooldowns();
    }
  }
  Event out;
  for (std::size_t i = 0; i < emit.atoms.size(); ++i) {
    if (emit.values[i] != nullptr) out.set(emit.atoms[i], *emit.values[i]);
  }
  out.set_time(now);
  ++stats_.matches_emitted;
  sink(out);
}

void MatchEngine::sweep_cooldowns() {
  // With `now` never going backwards, an entry whose cooldown has
  // elapsed at the latest `now` can never suppress again; forgetting it
  // changes no outcome.
  std::erase_if(last_fired_, [this](const auto& entry) {
    return latest_ - entry.second.at >= entry.second.cooldown;
  });
  sweep_at_ = std::max(kMinSweepEntries, 2 * last_fired_.size());
}

}  // namespace aa::match

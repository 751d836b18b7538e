// The incremental matching engine.
//
// §1.1: "It is relatively straightforward to make these inferences if
// the small set of items is known; the major difficulty is in
// extracting the correlated set in the first place, from the huge
// number of items available."  The engine does that extraction
// incrementally: each trigger pattern keeps a sliding window of the
// events that matched it; an arriving event only joins against those
// windows and against indexed knowledge-base probes, instead of
// rescanning history (the naive strategy NaiveEngine implements for the
// C7 ablation).
//
// add_rule() compiles each rule once (DESIGN.md §14): aliases become
// binding slots, attribute names become AtomIds, equality joins against
// each fact pattern become a planned probe, and the emit spec becomes a
// fixed list of output attributes.  Matching an event then does no
// string work and no allocation per candidate binding; the suggestion
// event is built only when a firing survives its cooldown.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "match/knowledge.hpp"
#include "match/rule.hpp"

namespace aa::match {

struct EngineStats {
  std::uint64_t events_processed = 0;
  std::uint64_t trigger_matches = 0;
  std::uint64_t candidate_bindings = 0;  // partial bindings explored
  std::uint64_t matches_emitted = 0;
  std::uint64_t cooldown_suppressed = 0;
};

class MatchEngine {
 public:
  using Sink = std::function<void(const event::Event&)>;

  explicit MatchEngine(KnowledgeBase& kb);
  ~MatchEngine();

  void add_rule(Rule rule);
  bool remove_rule(const std::string& name);

  /// True if some rule's triggers accept events of this type — the
  /// "unknown event type" test that routes to discovery matchlets (§5).
  bool handles_type(const std::string& type) const;

  /// Feeds one event at virtual time `now`; synthesised events go to
  /// `sink`.
  ///
  /// `now` must not go backwards from one call to the next: windows
  /// expire, and the cooldown table forgets entries, relative to the
  /// largest `now` seen.  `sink` runs synchronously while the engine
  /// holds pointers into its windows and into the knowledge base, so it
  /// must not call back into this engine or modify the knowledge base.
  void on_event(const event::Event& e, SimTime now, const Sink& sink);

  const EngineStats& stats() const { return stats_; }

  /// Entries in the cooldown table.  A firing's entry is forgotten once
  /// the cooldown of the rule that wrote it has elapsed (checked each
  /// time the table has doubled), so the table stays proportional to the
  /// distinct suggestions of the last cooldown period.
  std::size_t cooldown_entries() const { return last_fired_.size(); }

 private:
  struct CompiledRule;
  struct LastFired {
    SimTime at = 0;
    SimDuration cooldown = 0;
  };

  void expire(CompiledRule& rule, SimTime now);
  void try_fire(CompiledRule& rule, std::size_t seed_trigger, const event::Event& seed,
                SimTime now, const Sink& sink);
  void extend(CompiledRule& rule, std::size_t next_trigger, std::size_t seed_trigger,
              SimTime now, const Sink& sink);
  void bind_facts(CompiledRule& rule, std::size_t next_fact, SimTime now, const Sink& sink);
  void fire(CompiledRule& rule, SimTime now, const Sink& sink);
  /// Drops cooldown entries that can no longer suppress anything.
  void sweep_cooldowns();

  KnowledgeBase& kb_;
  // Owned through pointers: compiled plans point into their own rule.
  std::vector<std::unique_ptr<CompiledRule>> rules_;
  // Cooldown key ("rule|atom=value;..." over the suggestion's attributes
  // but `time`, in AtomId order) -> the last emission with that key.
  std::unordered_map<std::string, LastFired> last_fired_;
  std::string cooldown_key_;  // reused by fire(): no allocation once warm
  std::size_t sweep_at_ = 0;  // sweep when last_fired_ reaches this size
  SimTime latest_ = 0;        // largest `now` seen
  EngineStats stats_;
};

}  // namespace aa::match

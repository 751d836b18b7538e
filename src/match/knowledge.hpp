// The knowledge base: the "global knowledge base comprising elements
// such as GIS, web-based systems, databases, semi-structured data"
// (§1.1) that the matching service correlates event streams against.
//
// Facts are typed attribute records (the same representation as events:
// a fact is knowledge shaped like "user=bob likes=icecream
// min_celsius=18").  The store maintains an inverted index over
// (attribute, string-value) equality pairs so the common rule probe —
// "facts with kind=preference and user=bob" — touches only candidate
// facts rather than scanning; the C7 bench quantifies the difference.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "event/event.hpp"
#include "event/filter.hpp"

namespace aa::match {

/// Knowledge is represented exactly like events: named typed attributes.
using Fact = event::Event;
using FactId = std::uint64_t;

struct KnowledgeStats {
  std::uint64_t indexed_queries = 0;
  std::uint64_t scan_queries = 0;
  std::uint64_t facts_examined = 0;

  static constexpr auto fields() {
    using S = KnowledgeStats;
    return std::to_array<StatField<S>>({
        {"indexed_queries", &S::indexed_queries},
        {"scan_queries", &S::scan_queries},
        {"facts_examined", &S::facts_examined},
    });
  }
};

class KnowledgeBase {
 public:
  FactId add(Fact fact);
  /// Inserts a fact under an externally assigned id (replication path:
  /// replicas must agree with the authority on ids).  Replaces any
  /// existing fact with that id.
  void insert(FactId id, Fact fact);
  bool remove(FactId id);
  /// Replaces the fact with `id`; false if absent.
  bool update(FactId id, Fact fact);

  const Fact* fact(FactId id) const;
  std::size_t size() const { return facts_.size(); }

  /// Calls `fn(fact)` for every fact satisfying all `probe`
  /// constraints, in fact-id order.  Uses the inverted index when the
  /// probe has at least one string-equality constraint (the most
  /// selective one); scans otherwise.  Allocates nothing.  `fn` must not
  /// modify this knowledge base.
  template <class Fn>
  void visit(std::span<const event::Constraint> probe, Fn&& fn) const {
    if (const std::set<FactId>* ids = candidates(probe)) {
      for (FactId id : *ids) {
        ++stats_.facts_examined;
        const Fact& f = facts_.at(id);
        if (event::matches_all(probe, f)) fn(f);
      }
    } else {
      for (const auto& [id, f] : facts_) {
        ++stats_.facts_examined;
        if (event::matches_all(probe, f)) fn(f);
      }
    }
  }

  /// All facts matching the filter (visit() collected into a vector).
  std::vector<const Fact*> query(const event::Filter& filter) const;

  /// Every fact, unindexed (the naive baseline's access path).
  std::vector<const Fact*> all() const;

  /// Every (id, fact) pair in id order (replication state transfer).
  std::vector<std::pair<FactId, const Fact*>> snapshot() const;

  const KnowledgeStats& stats() const { return stats_; }

 private:
  /// The candidate set for `probe`, counting the query as indexed or
  /// scanned: the smallest posting list among its string-equality
  /// constraints (an empty set when one of them has none), or nullptr
  /// to scan every fact.
  const std::set<FactId>* candidates(std::span<const event::Constraint> probe) const;
  void index_fact(FactId id, const Fact& fact);
  void unindex_fact(FactId id, const Fact& fact);

  using IndexKey = std::pair<event::AtomId, std::string>;
  using IndexKeyView = std::pair<event::AtomId, std::string_view>;
  /// Orders keys and views alike, so probes look up by view and copy no
  /// string.
  struct IndexLess {
    using is_transparent = void;
    static IndexKeyView view(const IndexKey& k) { return {k.first, k.second}; }
    static IndexKeyView view(const IndexKeyView& k) { return k; }
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      return view(a) < view(b);
    }
  };

  std::map<FactId, Fact> facts_;
  // String-equality index: (interned attribute, string value) -> fact ids.
  std::map<IndexKey, std::set<FactId>, IndexLess> index_;
  FactId next_id_ = 1;
  mutable KnowledgeStats stats_;
};

}  // namespace aa::match

// One overlay node: Pastry-style routing state and forwarding rules
// (Rowstron & Druschel 2001, built on Plaxton's scheme [28] — the
// "deterministic routing algorithm ... which permits the discovery of
// documents stored in a wide area network" the paper selects over
// non-deterministic alternatives like Freenet, §3).
//
// State:
//   * routing table — kDigits rows × 16 columns; the entry at
//     (row r, column c) is a node whose id shares r digits with ours and
//     has digit c at position r.  With proximity neighbour selection
//     (PNS) enabled, among qualifying candidates the lowest-latency one
//     is kept; the C2 ablation compares PNS against first-come entries.
//   * leaf set — the L/2 numerically closest nodes on each side of our
//     id on the ring.  The leaf set determines root ownership: the root
//     of a key is the live node numerically closest to it.  It is read
//     off a bounded candidate pool kept ordered by clockwise distance
//     from our id: the pool's head is our successors, its tail (read
//     backwards) our predecessors, and the ring-farthest member — the
//     one an overflowing pool drops — sits where the order crosses the
//     antipode.  Each learn/forget is one binary search plus an in-place
//     insert or erase; nothing is ever re-sorted.
//
// Liveness: a sender checks Network::host_up() before forwarding and
// repairs its state when the candidate is dead.  This models per-hop
// ack timeouts (a real implementation would retransmit and fail over)
// without simulating the retransmission delay; DESIGN.md lists this as
// a substitution.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "overlay/messages.hpp"
#include "sim/network.hpp"

namespace aa::overlay {

struct NodeStats {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t repairs = 0;  // dead entries purged
  static constexpr auto fields() {
    using S = NodeStats;
    return std::to_array<StatField<S>>({
        {"forwarded", &S::forwarded},
        {"delivered", &S::delivered},
        {"repairs", &S::repairs},
    });
  }
};

class OverlayNode {
 public:
  static constexpr int kLeafSetSize = 8;  // L/2 = 4 each side

  OverlayNode(sim::Network& net, NodeRef self, bool proximity_selection);

  const NodeRef& self() const { return self_; }
  const NodeId& id() const { return self_.id; }
  sim::HostId host() const { return self_.host; }

  /// Learns about a peer: offered to the routing table and leaf set.
  void consider(const NodeRef& peer);
  /// Purges a (believed dead) peer from all state.
  void remove(const NodeId& id);

  /// Pastry forwarding decision for `key`; nullopt when this node is the
  /// key's root as far as it can tell.  Dead candidates are repaired and
  /// skipped.
  std::optional<NodeRef> next_hop(const ObjectId& key);

  /// The routing-table row a joiner with `shared` digits of shared
  /// prefix needs from us (our row at that depth), plus ourself.
  std::vector<NodeRef> row_contacts(int shared) const;

  std::vector<NodeRef> leaf_set() const { return leaf_; }
  /// This node plus its `count-1` leaf neighbours numerically closest
  /// to `key` — the natural replica set of a key rooted here.
  std::vector<NodeRef> replica_set(const ObjectId& key, int count) const;

  /// All distinct peers this node knows (for announcements).
  std::vector<NodeRef> known_peers() const;

  const NodeStats& stats() const { return stats_; }
  std::size_t routing_entries() const;

 private:
  /// A pool member and its clockwise distance from our id (the order
  /// key; distinct ids have distinct distances).
  struct PoolEntry {
    Uid160 cw;
    NodeRef ref;
  };

  bool alive(const NodeRef& ref) const;
  void repair(const NodeRef& dead);
  /// Inserts `peer` into the pool (or refreshes its host), trimming the
  /// ring-farthest member on overflow.
  void pool_insert(const NodeRef& peer);
  /// Re-derives leaf_ from the pool's head and tail.
  void rebuild_leaf();

  sim::Network& net_;
  NodeRef self_;
  bool proximity_selection_;
  std::array<std::array<NodeRef, 16>, Uid160::kDigits> table_{};
  std::vector<NodeRef> leaf_;     // successors nearest-first, then predecessors
  std::vector<PoolEntry> pool_;   // leaf candidates by cw distance; excludes self
  NodeStats stats_;
};

}  // namespace aa::overlay

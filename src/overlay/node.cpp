#include "overlay/node.hpp"

#include <algorithm>

namespace aa::overlay {

namespace {
constexpr std::size_t kCandidatePool = 48;
// lower_bound comparator for the pool's cw-distance order.
constexpr auto kBeforeDistance = [](const auto& entry, const Uid160& cw) {
  return entry.cw < cw;
};
}  // namespace

OverlayNode::OverlayNode(sim::Network& net, NodeRef self, bool proximity_selection)
    : net_(net), self_(self), proximity_selection_(proximity_selection) {}

bool OverlayNode::alive(const NodeRef& ref) const {
  return ref.valid() && net_.host_up(ref.host);
}

void OverlayNode::consider(const NodeRef& peer) {
  if (!peer.valid() || peer.id == self_.id) return;

  // Routing table slot for this peer.
  const int row = self_.id.shared_prefix_digits(peer.id);
  if (row < Uid160::kDigits) {
    const int col = peer.id.digit(row);
    NodeRef& slot = table_[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
    if (!slot.valid() || slot.id == peer.id) {
      slot = peer;
    } else if (proximity_selection_) {
      const auto& topo = net_.topology();
      if (topo.latency(self_.host, peer.host) < topo.latency(self_.host, slot.host)) {
        slot = peer;
      }
    }
  }

  pool_insert(peer);
  rebuild_leaf();
}

void OverlayNode::pool_insert(const NodeRef& peer) {
  // The leaf set is always re-derived from the pool, so departures can
  // be healed from it.
  const Uid160 cw = self_.id.ring_distance_cw(peer.id);
  auto it = std::lower_bound(pool_.begin(), pool_.end(), cw, kBeforeDistance);
  if (it != pool_.end() && it->cw == cw) {
    it->ref.host = peer.host;  // refresh placement
    return;
  }
  pool_.insert(it, PoolEntry{cw, peer});
  if (pool_.size() <= kCandidatePool) return;
  // Overflow: drop the ring-farthest member.  Ring distance grows along
  // the pool while members sit nearer clockwise, then shrinks, so the
  // farthest is one of the two members either side of that crossing
  // (ties go to the numerically larger id, as in closer_to).
  const auto cross = std::partition_point(pool_.begin(), pool_.end(), [&](const PoolEntry& e) {
    return e.cw <= e.ref.id.ring_distance_cw(self_.id);
  });
  auto far = cross == pool_.end() ? cross - 1 : cross;
  if (cross != pool_.begin() && cross != pool_.end() &&
      cross->ref.id.closer_to(self_.id, (cross - 1)->ref.id)) {
    far = cross - 1;
  }
  pool_.erase(far);
}

void OverlayNode::rebuild_leaf() {
  // L/2 nearest successors (the pool's head) and predecessors (its tail,
  // read backwards); on a ring smaller than L the two halves meet and
  // the tail stops where the head ends.
  const std::size_t n = pool_.size();
  const std::size_t head = std::min<std::size_t>(kLeafSetSize / 2, n);
  leaf_.clear();
  for (std::size_t i = 0; i < head; ++i) leaf_.push_back(pool_[i].ref);
  for (std::size_t i = n; i > std::max(head, n - head);) leaf_.push_back(pool_[--i].ref);
}

void OverlayNode::remove(const NodeId& id) {
  for (auto& row : table_) {
    for (auto& slot : row) {
      if (slot.valid() && slot.id == id) slot = NodeRef{};
    }
  }
  const Uid160 cw = self_.id.ring_distance_cw(id);
  auto it = std::lower_bound(pool_.begin(), pool_.end(), cw, kBeforeDistance);
  if (it != pool_.end() && it->cw == cw) pool_.erase(it);
  rebuild_leaf();
}

void OverlayNode::repair(const NodeRef& dead) {
  ++stats_.repairs;
  remove(dead.id);
}

std::optional<NodeRef> OverlayNode::next_hop(const ObjectId& key) {
  // Rule 1 — leaf-set rule.  Determine the ring segment the leaf set
  // covers (furthest predecessor .. furthest successor, through self);
  // if the key falls inside, the numerically closest member owns it.
  for (;;) {
    NodeRef furthest_cw{}, furthest_ccw{};
    Uid160 best_cw, best_ccw;
    bool repaired = false;
    for (const NodeRef& p : leaf_) {
      if (!alive(p)) {
        repair(p);
        repaired = true;
        break;
      }
      const Uid160 dcw = self_.id.ring_distance_cw(p.id);
      const Uid160 dccw = p.id.ring_distance_cw(self_.id);
      if (dcw <= dccw && dcw >= best_cw) {
        best_cw = dcw;
        furthest_cw = p;
      }
      if (dccw < dcw && dccw >= best_ccw) {
        best_ccw = dccw;
        furthest_ccw = p;
      }
    }
    if (repaired) continue;  // leaf changed; re-evaluate

    const NodeId lo = furthest_ccw.valid() ? furthest_ccw.id : self_.id;
    const NodeId hi = furthest_cw.valid() ? furthest_cw.id : self_.id;
    const bool in_range = leaf_.empty() ||
                          lo.ring_distance_cw(key) <= lo.ring_distance_cw(hi) ||
                          leaf_.size() < kLeafSetSize;  // sparse ring: leaf covers all
    if (in_range) {
      NodeRef best = self_;
      for (const NodeRef& p : leaf_) {
        if (p.id.closer_to(key, best.id)) best = p;
      }
      if (best.id == self_.id) return std::nullopt;  // we are the root
      return best;
    }
    break;
  }

  // Rule 2 — routing-table rule: strict prefix progress.
  const int row = self_.id.shared_prefix_digits(key);
  if (row < Uid160::kDigits) {
    NodeRef& slot = table_[static_cast<std::size_t>(row)][static_cast<std::size_t>(key.digit(row))];
    if (slot.valid()) {
      if (alive(slot)) return slot;
      repair(slot);
    }
  }

  // Rule 3 — rare case: any known node at least as good in prefix and
  // strictly closer on the ring.
  NodeRef best{};
  auto offer = [&](const NodeRef& p) {
    if (!p.valid() || p.id == self_.id) return;
    if (!alive(p)) return;
    if (p.id.shared_prefix_digits(key) < row) return;
    if (!p.id.closer_to(key, self_.id)) return;
    if (!best.valid() || p.id.closer_to(key, best.id)) best = p;
  };
  for (const NodeRef& p : leaf_) offer(p);
  for (const auto& r : table_) {
    for (const NodeRef& p : r) offer(p);
  }
  if (best.valid()) return best;
  return std::nullopt;  // nobody better known: deliver here
}

std::vector<NodeRef> OverlayNode::row_contacts(int shared) const {
  std::vector<NodeRef> out;
  if (shared >= 0 && shared < Uid160::kDigits) {
    for (const NodeRef& p : table_[static_cast<std::size_t>(shared)]) {
      if (p.valid()) out.push_back(p);
    }
  }
  out.push_back(self_);
  return out;
}

std::vector<NodeRef> OverlayNode::replica_set(const ObjectId& key, int count) const {
  std::vector<NodeRef> all = leaf_;
  all.push_back(self_);
  std::sort(all.begin(), all.end(), [&](const NodeRef& a, const NodeRef& b) {
    return a.id.closer_to(key, b.id);
  });
  if (static_cast<int>(all.size()) > count) all.resize(static_cast<std::size_t>(count));
  return all;
}

std::vector<NodeRef> OverlayNode::known_peers() const {
  std::vector<NodeRef> out = leaf_;
  for (const auto& row : table_) {
    for (const NodeRef& p : row) {
      if (p.valid() && std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
    }
  }
  return out;
}

std::size_t OverlayNode::routing_entries() const {
  std::size_t n = 0;
  for (const auto& row : table_) {
    for (const NodeRef& p : row) {
      if (p.valid()) ++n;
    }
  }
  return n;
}

}  // namespace aa::overlay

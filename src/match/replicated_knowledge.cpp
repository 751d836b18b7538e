#include "match/replicated_knowledge.hpp"

namespace aa::match {

ReplicatedKnowledge::ReplicatedKnowledge(pubsub::EventService& bus, sim::HostId authority_host)
    : bus_(bus), authority_(authority_host) {}

void ReplicatedKnowledge::publish_update(const char* op, FactId id, const Fact* fact) {
  event::Event update(kUpdateEventType);
  update.set("op", op);
  update.set("fact_id", static_cast<std::int64_t>(id));
  if (fact != nullptr) update.set("fact_xml", fact->to_xml_string());
  bus_.publish(authority_, update);
  ++stats_.updates_published;
}

FactId ReplicatedKnowledge::add(Fact fact) {
  const FactId id = master_.add(fact);
  publish_update("add", id, &fact);
  return id;
}

bool ReplicatedKnowledge::remove(FactId id) {
  if (!master_.remove(id)) return false;
  publish_update("remove", id, nullptr);
  return true;
}

bool ReplicatedKnowledge::update(FactId id, Fact fact) {
  if (!master_.update(id, fact)) return false;
  publish_update("add", id, &fact);  // replicas upsert on "add"
  return true;
}

void ReplicatedKnowledge::apply(KnowledgeBase& kb, const event::Event& update) {
  const auto op = update.get_string("op");
  const auto id = update.get_int("fact_id");
  if (!op || !id) return;
  if (*op == "remove") {
    kb.remove(static_cast<FactId>(*id));
    ++stats_.updates_applied;
    return;
  }
  const auto fact_xml = update.get_string("fact_xml");
  if (!fact_xml) return;
  auto fact = Fact::parse(*fact_xml);
  if (!fact.is_ok()) return;
  kb.insert(static_cast<FactId>(*id), std::move(fact).value());
  ++stats_.updates_applied;
}

KnowledgeBase& ReplicatedKnowledge::replica(sim::HostId host) {
  auto it = replicas_.find(host);
  if (it != replicas_.end()) return *it->second;

  auto kb = std::make_unique<KnowledgeBase>();
  // State transfer: bring the new replica up to the authority's state,
  // preserving fact ids so later remove/update events land correctly.
  ++stats_.state_transfers;
  for (const auto& [id, fact] : master_.snapshot()) {
    kb->insert(id, *fact);
  }
  KnowledgeBase* raw = kb.get();
  bus_.subscribe(host,
                 event::Filter().where("type", event::Op::kEq, kUpdateEventType),
                 [this, raw](const event::Event& e) { apply(*raw, e); });
  it = replicas_.emplace(host, std::move(kb)).first;
  return *it->second;
}

KnowledgeStats ReplicatedKnowledge::knowledge_stats() const {
  KnowledgeStats total = master_.stats();
  for (const auto& [host, kb] : replicas_) accumulate(total, kb->stats());
  return total;
}

}  // namespace aa::match

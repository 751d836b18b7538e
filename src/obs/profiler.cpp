#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

namespace aa::obs {

std::string_view bucket_name(ProfileBucket b) {
  switch (b) {
    case ProfileBucket::kBrokerRoute: return "broker_route";
    case ProfileBucket::kBrokerMatch: return "broker_match";
    case ProfileBucket::kStore: return "store";
    case ProfileBucket::kOverlay: return "overlay";
    case ProfileBucket::kOverlayMaint: return "overlay_maint";
    case ProfileBucket::kTransport: return "transport";
    case ProfileBucket::kPipeline: return "pipeline";
    case ProfileBucket::kDeploy: return "deploy";
    case ProfileBucket::kClient: return "client";
    case ProfileBucket::kOther: return "other";
  }
  return "other";
}

ProfileBucket bucket_for(std::string_view component, std::string_view action) {
  if (component == "broker") {
    return action == "match" ? ProfileBucket::kBrokerMatch : ProfileBucket::kBrokerRoute;
  }
  if (component == "store") return ProfileBucket::kStore;
  if (component == "overlay") return ProfileBucket::kOverlay;
  if (component == "transport" || component == "net") return ProfileBucket::kTransport;
  if (component == "pipeline") return ProfileBucket::kPipeline;
  if (component == "deploy" || component == "evolution") return ProfileBucket::kDeploy;
  if (component == "client") return ProfileBucket::kClient;
  return ProfileBucket::kOther;
}

std::uint64_t Profiler::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Profiler::bind_slots(std::uint32_t n) {
  if (n > slots_.size()) {
    // vector growth would move SlotState objects under concurrent
    // slot-local writers; binding is restricted to root context, where
    // no epoch is in flight, so the move is safe.
    std::vector<SlotState> grown(n);
    for (std::size_t i = 0; i < slots_.size(); ++i) grown[i].c = slots_[i].c;
    slots_ = std::move(grown);
  }
}

void Profiler::note_epoch(std::uint64_t wall_ns, std::uint32_t host_slots) {
  const std::uint32_t n =
      std::min(host_slots, static_cast<std::uint32_t>(slots_.size()));
  for (std::uint32_t i = 0; i < n; ++i) {
    SlotState& st = slots_[i];
    if (wall_ns > st.epoch_busy_ns) st.c.barrier_wait_ns += wall_ns - st.epoch_busy_ns;
    st.epoch_busy_ns = 0;
  }
}

Profiler::Scope::Scope(Profiler* p, std::uint32_t slot, ProfileBucket bucket)
    : p_(p), slot_(slot), bucket_(bucket) {
  if (p_ == nullptr || slot_ >= p_->slots_.size()) {
    p_ = nullptr;
    return;
  }
  SlotState& st = p_->slots_[slot_];
  const std::uint64_t now = now_ns();
  parent_ = st.active;
  if (parent_ != nullptr) {
    // Pause the parent: bank its elapsed self time before we start.
    st.c.bucket_ns[static_cast<std::size_t>(parent_->bucket_)] +=
        now - parent_->mark_ns_;
  }
  mark_ns_ = now;
  st.active = this;
}

Profiler::Scope::~Scope() {
  if (p_ == nullptr) return;
  SlotState& st = p_->slots_[slot_];
  const std::uint64_t now = now_ns();
  st.c.bucket_ns[static_cast<std::size_t>(bucket_)] += now - mark_ns_;
  st.active = parent_;
  if (parent_ != nullptr) parent_->mark_ns_ = now;  // resume
}

void Profiler::sample(SimTime t) {
  Sample s;
  s.t = t;
  s.slots.reserve(slots_.size());
  for (const SlotState& st : slots_) s.slots.push_back(st.c);
  samples_.push_back(std::move(s));
  while (samples_.size() > retention_) samples_.pop_front();
}

Profiler::SlotCounters Profiler::totals() const {
  SlotCounters t;
  for (const SlotState& st : slots_) {
    t.tasks += st.c.tasks;
    t.busy_ns += st.c.busy_ns;
    t.barrier_wait_ns += st.c.barrier_wait_ns;
    t.serialization_ns += st.c.serialization_ns;
    t.merge_ns += st.c.merge_ns;
    for (std::size_t b = 0; b < kProfileBucketCount; ++b) {
      t.bucket_ns[b] += st.c.bucket_ns[b];
    }
  }
  return t;
}

void Profiler::reset() {
  for (SlotState& st : slots_) {
    st.c = SlotCounters{};
    st.epoch_busy_ns = 0;
  }
  samples_.clear();
}

void Profiler::write_chrome_events(std::ostream& out, bool& first) const {
  auto comma = [&] {
    if (!first) out << ",";
    first = false;
  };
  // Track naming: one synthetic "scheduler" process, one thread row per
  // slot.  The last slot is the scheduler's global slot when sharded.
  comma();
  out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kChromePid
      << ",\"args\":{\"name\":\"scheduler\"}}";
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    comma();
    out << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kChromePid
        << ",\"tid\":" << i << ",\"args\":{\"name\":\"";
    if (slots_.size() == 1) {
      out << "scheduler";
    } else if (i + 1 == slots_.size()) {
      out << "global";
    } else {
      out << "shard " << i;
    }
    out << "\"}}";
  }
  for (const Sample& s : samples_) {
    for (std::uint32_t i = 0; i < s.slots.size(); ++i) {
      const SlotCounters& c = s.slots[i];
      comma();
      out << "\n{\"name\":\"sched\",\"ph\":\"C\",\"ts\":" << s.t
          << ",\"pid\":" << kChromePid << ",\"tid\":" << i << ",\"args\":{"
          << "\"busy_us\":" << c.busy_ns / 1000
          << ",\"barrier_wait_us\":" << c.barrier_wait_ns / 1000
          << ",\"serialization_us\":" << c.serialization_ns / 1000
          << ",\"merge_us\":" << c.merge_ns / 1000 << ",\"tasks\":" << c.tasks
          << "}}";
      comma();
      out << "\n{\"name\":\"buckets\",\"ph\":\"C\",\"ts\":" << s.t
          << ",\"pid\":" << kChromePid << ",\"tid\":" << i << ",\"args\":{";
      for (std::size_t b = 0; b < kProfileBucketCount; ++b) {
        if (b != 0) out << ",";
        out << "\"" << bucket_name(static_cast<ProfileBucket>(b))
            << "_us\":" << c.bucket_ns[b] / 1000;
      }
      out << "}}";
    }
  }
}

}  // namespace aa::obs

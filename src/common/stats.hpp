// Declare-once stats counters.
//
// Every layer keeps its counters in a plain struct of std::uint64_t
// members (NetworkStats, BrokerStats, ...).  Each struct that is
// exported or summed declares its counters once more, as a field list
// pairing the exported key with the member:
//
//   static constexpr auto fields() {
//     using S = NodeStats;
//     return std::to_array<StatField<S>>({{"forwarded", &S::forwarded}, ...});
//   }
//
// and every consumer iterates that list: accumulate() below sums two
// structs, obs::export_stats (obs/metrics_hub.hpp) copies one into a
// metrics registry.  A struct may also declare derived() — values
// computed from the counters, exported next to them but never summed
// (NetworkStats' packets_sent).
//
// Both go through stat_fields(), which checks that the list covers the
// whole struct, so a counter added to a struct but left out of its
// fields() fails the build wherever the struct is summed or exported.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace aa {

/// One counter of a stats struct: its key below the export namespace
/// and the member that holds it.
template <typename S>
struct StatField {
  std::string_view key;
  std::uint64_t S::*member;
};

/// A value computed from a struct's counters, exported under `key`.
template <typename S>
struct DerivedStat {
  std::string_view key;
  std::uint64_t (*value)(const S&);
};

/// S::fields(), checked to list every member of S.
template <typename S>
constexpr auto stat_fields() {
  static_assert(S::fields().size() * sizeof(std::uint64_t) == sizeof(S),
                "a stats struct's fields() must list every counter it holds");
  return S::fields();
}

/// into.x += from.x for every counter of S.
template <typename S>
void accumulate(S& into, const S& from) {
  for (const StatField<S>& f : stat_fields<S>()) into.*f.member += from.*f.member;
}

}  // namespace aa

// 160-bit identifiers, as used by the Plaxton-routing generation of P2P
// systems the paper builds on (Pastry, PAST, OceanStore): both node
// identifiers and object GUIDs live in the same circular 160-bit space,
// and routing proceeds digit by digit (base 2^b, here b=4 so digits are
// hex nibbles).
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.hpp"

namespace aa {

/// A 160-bit identifier in the Plaxton ring, held as machine-word limbs
/// most significant first: hi_ (bits 159..96), mid_ (95..32), lo_
/// (31..0).  Member order makes the defaulted operator<=> the numeric
/// order, which equals the lexicographic order of the big-endian byte
/// form; digit 0 (the one routing consumes first) is the top nibble of
/// hi_.
class Uid160 {
 public:
  static constexpr int kBits = 160;
  static constexpr int kDigits = 40;  // base-16 digits

  constexpr Uid160() = default;
  /// From the big-endian byte form (SHA-1 digests, the wire encoding).
  explicit constexpr Uid160(const std::array<std::uint8_t, 20>& bytes)
      : hi_(load_be(bytes, 0, 8)),
        mid_(load_be(bytes, 8, 8)),
        lo_(static_cast<std::uint32_t>(load_be(bytes, 16, 4))) {}

  /// Identifier derived from arbitrary content (secure hash), the way
  /// PAST derives object GUIDs from document content.
  static Uid160 from_content(std::string_view content) { return Uid160(Sha1::hash(content)); }

  /// Identifier derived from a name (e.g. a node's public key or a
  /// keyword set); equivalent digest path, separated for readability at
  /// call sites.
  static Uid160 from_name(std::string_view name) { return from_content(name); }

  /// Parses exactly 40 hex characters.  Returns all-zero id on bad input
  /// paired with `ok=false`.
  static Uid160 from_hex(std::string_view hex, bool* ok = nullptr);

  /// The big-endian byte form (the wire encoding).
  std::array<std::uint8_t, 20> bytes() const;

  /// The i-th base-16 digit, counting from the most significant (i=0).
  int digit(int i) const {
    if (i < 16) return static_cast<int>((hi_ >> (60 - 4 * i)) & 0xF);
    if (i < 32) return static_cast<int>((mid_ >> (60 - 4 * (i - 16))) & 0xF);
    return static_cast<int>((lo_ >> (28 - 4 * (i - 32))) & 0xF);
  }

  /// Returns a copy with the i-th base-16 digit replaced.
  Uid160 with_digit(int i, int value) const;

  /// Number of leading base-16 digits shared with `other` (0..40).
  int shared_prefix_digits(const Uid160& other) const {
    if (const std::uint64_t x = hi_ ^ other.hi_) return std::countl_zero(x) / 4;
    if (const std::uint64_t x = mid_ ^ other.mid_) return 16 + std::countl_zero(x) / 4;
    if (const std::uint32_t x = lo_ ^ other.lo_) return 32 + std::countl_zero(x) / 4;
    return kDigits;
  }

  /// Clockwise ring distance from this id to `other`: the full 160-bit
  /// difference (other - this) mod 2^160, returned as a Uid160 so that
  /// operator< compares distances numerically.
  Uid160 ring_distance_cw(const Uid160& other) const {
    const std::uint32_t lo = other.lo_ - lo_;
    const std::uint64_t b0 = other.lo_ < lo_ ? 1 : 0;
    const std::uint64_t mid = other.mid_ - mid_ - b0;
    const std::uint64_t b1 = (other.mid_ < mid_ || (other.mid_ == mid_ && b0 != 0)) ? 1 : 0;
    return Uid160(other.hi_ - hi_ - b1, mid, lo);
  }

  /// min(cw, ccw) ring distance as a 160-bit value.
  Uid160 ring_distance(const Uid160& other) const {
    const Uid160 cw = ring_distance_cw(other);
    const Uid160 ccw = other.ring_distance_cw(*this);
    return ccw < cw ? ccw : cw;
  }

  /// True if this id is numerically closer to `target` than `other` is;
  /// ties broken toward the numerically smaller id, so the relation is
  /// total and deterministic.
  bool closer_to(const Uid160& target, const Uid160& other) const {
    const Uid160 mine = ring_distance(target);
    const Uid160 theirs = other.ring_distance(target);
    if (mine != theirs) return mine < theirs;
    return *this < other;
  }

  std::string to_hex() const;

  bool is_zero() const { return (hi_ | mid_ | lo_) == 0; }

  auto operator<=>(const Uid160&) const = default;

 private:
  constexpr Uid160(std::uint64_t hi, std::uint64_t mid, std::uint32_t lo)
      : hi_(hi), mid_(mid), lo_(lo) {}

  static constexpr std::uint64_t load_be(const std::array<std::uint8_t, 20>& b,
                                         std::size_t at, std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | b[at + i];
    return v;
  }

  std::uint64_t hi_ = 0;
  std::uint64_t mid_ = 0;
  std::uint32_t lo_ = 0;
};

/// Identifier of a physical (simulated) node in the network.
using NodeId = Uid160;
/// Globally unique identifier of a stored object.
using ObjectId = Uid160;

}  // namespace aa

// Unit tests for src/common: hashing, identifiers, RNG, serialization,
// status/result, geographic primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/geo.hpp"
#include "common/hash.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace aa {
namespace {

std::string hex(const Sha1Digest& d) {
  static const char* k = "0123456789abcdef";
  std::string s;
  for (auto b : d) {
    s.push_back(k[b >> 4]);
    s.push_back(k[b & 0xF]);
  }
  return s;
}

// --- SHA-1 (FIPS 180-1 test vectors) ---

TEST(Sha1, EmptyString) {
  EXPECT_EQ(hex(Sha1::hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex(Sha1::hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1 s;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(hex(s.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Sha1 s;
  s.update("hello ");
  s.update("world");
  EXPECT_EQ(s.finish(), Sha1::hash("hello world"));
}

TEST(Sha1, ReusableAfterFinish) {
  Sha1 s;
  s.update("abc");
  (void)s.finish();
  s.update("abc");
  EXPECT_EQ(hex(s.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// --- Uid160 ---

TEST(Uid160, HexRoundTrip) {
  const Uid160 id = Uid160::from_content("some object");
  bool ok = false;
  const Uid160 back = Uid160::from_hex(id.to_hex(), &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(id, back);
}

TEST(Uid160, FromHexRejectsBadInput) {
  bool ok = true;
  (void)Uid160::from_hex("zz", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  (void)Uid160::from_hex(std::string(40, 'g'), &ok);
  EXPECT_FALSE(ok);
}

TEST(Uid160, DigitsMatchHex) {
  const Uid160 id = Uid160::from_content("x");
  const std::string h = id.to_hex();
  for (int i = 0; i < Uid160::kDigits; ++i) {
    const int expected = (h[i] <= '9') ? h[i] - '0' : h[i] - 'a' + 10;
    EXPECT_EQ(id.digit(i), expected) << "digit " << i;
  }
}

TEST(Uid160, WithDigit) {
  Uid160 id;
  id = id.with_digit(0, 0xF).with_digit(39, 0x3);
  EXPECT_EQ(id.digit(0), 0xF);
  EXPECT_EQ(id.digit(39), 0x3);
  EXPECT_EQ(id.digit(1), 0);
}

TEST(Uid160, SharedPrefix) {
  Uid160 a = Uid160::from_content("a");
  Uid160 b = a;
  EXPECT_EQ(a.shared_prefix_digits(b), 40);
  b = b.with_digit(5, (a.digit(5) + 1) % 16);
  EXPECT_EQ(a.shared_prefix_digits(b), 5);
}

TEST(Uid160, RingDistanceSymmetryAndZero) {
  const Uid160 a = Uid160::from_content("a");
  const Uid160 b = Uid160::from_content("b");
  EXPECT_EQ(a.ring_distance(b), b.ring_distance(a));
  EXPECT_TRUE(a.ring_distance(a).is_zero());
}

TEST(Uid160, RingDistanceCwWrapsAround) {
  // 0x00..01 and 0xFF..FF: cw distance from max to 1 is 2.
  Uid160 one;
  one = one.with_digit(39, 1);
  Uid160 max;
  for (int i = 0; i < 40; ++i) max = max.with_digit(i, 0xF);
  Uid160 two;
  two = two.with_digit(39, 2);
  EXPECT_EQ(max.ring_distance_cw(one), two);
}

TEST(Uid160, CloserToIsTotalAndAntisymmetric) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Uid160 t = rng.uid(), a = rng.uid(), b = rng.uid();
    if (a == b) continue;
    EXPECT_NE(a.closer_to(t, b), b.closer_to(t, a));
  }
}

// --- Uid160 limbs against a byte-wise reference ---
//
// Uid160 stores three machine words; these reference routines work on
// the big-endian byte form, one byte at a time, and define what the
// limb arithmetic must reproduce.

using IdBytes = std::array<std::uint8_t, 20>;

IdBytes ref_sub(const IdBytes& a, const IdBytes& b) {  // (a - b) mod 2^160
  IdBytes d{};
  int borrow = 0;
  for (int i = 19; i >= 0; --i) {
    const auto k = static_cast<std::size_t>(i);
    int v = a[k] - b[k] - borrow;
    borrow = v < 0 ? 1 : 0;
    d[k] = static_cast<std::uint8_t>(v + 256 * borrow);
  }
  return d;
}

int ref_digit(const IdBytes& b, int i) {
  const std::uint8_t byte = b[static_cast<std::size_t>(i / 2)];
  return i % 2 == 0 ? byte >> 4 : byte & 0x0F;
}

int ref_shared_prefix(const IdBytes& a, const IdBytes& b) {
  for (int i = 0; i < Uid160::kDigits; ++i) {
    if (ref_digit(a, i) != ref_digit(b, i)) return i;
  }
  return Uid160::kDigits;
}

IdBytes random_bytes(Rng& rng) {
  IdBytes b{};
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

// Every combination of {0, 1, top bit only, all ones} in each of the
// three limbs (bytes 0..7, 8..15, 16..19): operand pairs drawn from
// these borrow across both limb boundaries and wrap through zero.
std::vector<IdBytes> limb_edge_ids() {
  const std::pair<std::size_t, std::size_t> limbs[] = {{0, 8}, {8, 16}, {16, 20}};
  std::vector<IdBytes> out;
  for (int code = 0; code < 64; ++code) {
    IdBytes b{};
    for (int l = 0; l < 3; ++l) {
      const auto [first, last] = limbs[l];
      switch ((code >> (2 * l)) & 3) {
        case 0: break;
        case 1: b[last - 1] = 1; break;
        case 2: b[first] = 0x80; break;
        case 3: std::fill(b.begin() + first, b.begin() + last, 0xFF); break;
      }
    }
    out.push_back(b);
  }
  return out;
}

std::vector<std::pair<IdBytes, IdBytes>> limb_test_pairs() {
  std::vector<std::pair<IdBytes, IdBytes>> pairs;
  const auto edges = limb_edge_ids();
  for (const IdBytes& a : edges) {
    for (const IdBytes& b : edges) pairs.emplace_back(a, b);
  }
  Rng rng(160);
  for (int i = 0; i < 2000; ++i) pairs.emplace_back(random_bytes(rng), random_bytes(rng));
  return pairs;
}

TEST(Uid160Limbs, BytesRoundTrip) {
  for (const auto& [a, b] : limb_test_pairs()) {
    EXPECT_EQ(Uid160(a).bytes(), a);
    EXPECT_EQ(Uid160(b).bytes(), b);
  }
}

TEST(Uid160Limbs, RingDistanceCwMatchesByteReference) {
  for (const auto& [a, b] : limb_test_pairs()) {
    EXPECT_EQ(Uid160(a).ring_distance_cw(Uid160(b)).bytes(), ref_sub(b, a));
    EXPECT_EQ(Uid160(b).ring_distance_cw(Uid160(a)).bytes(), ref_sub(a, b));
  }
}

TEST(Uid160Limbs, BorrowCrossesBothLimbBoundaries) {
  const Uid160 one = Uid160().with_digit(39, 1);
  const Uid160 hi_limb_lsb = Uid160().with_digit(15, 1);  // 2^96, lowest bit of the top limb
  IdBytes below{};  // 2^96 - 1: the two lower limbs all ones
  std::fill(below.begin() + 8, below.end(), 0xFF);
  // 2^96 - (2^96 - 1) borrows out of lo, through mid, into hi.
  EXPECT_EQ(Uid160(below).ring_distance_cw(hi_limb_lsb), one);
  EXPECT_EQ(one.ring_distance_cw(hi_limb_lsb), Uid160(below));
  // Through zero: from 2^160 - 1 to 2^96 is 2^96 + 1.
  IdBytes max{};
  max.fill(0xFF);
  EXPECT_EQ(Uid160(max).ring_distance_cw(hi_limb_lsb), hi_limb_lsb.with_digit(39, 1));
}

TEST(Uid160Limbs, OrderEqualsByteLexicographicOrder) {
  // closer_to and the placement policies break ties with operator<, so
  // it must stay the big-endian byte order.
  for (const auto& [a, b] : limb_test_pairs()) {
    EXPECT_EQ(Uid160(a) <=> Uid160(b), a <=> b);
    EXPECT_EQ(Uid160(a) == Uid160(b), a == b);
  }
}

TEST(Uid160Limbs, DigitsAndSharedPrefixMatchByteReference) {
  for (const auto& [a, b] : limb_test_pairs()) {
    const Uid160 ua(a), ub(b);
    for (int i = 0; i < Uid160::kDigits; ++i) ASSERT_EQ(ua.digit(i), ref_digit(a, i)) << i;
    EXPECT_EQ(ua.shared_prefix_digits(ub), ref_shared_prefix(a, b));
    EXPECT_EQ(ub.shared_prefix_digits(ua), ref_shared_prefix(a, b));
  }
  // One differing digit at every position, including both limb edges.
  const Uid160 base = Uid160::from_content("prefix");
  for (int i = 0; i < Uid160::kDigits; ++i) {
    const Uid160 other = base.with_digit(i, (base.digit(i) + 1) % 16);
    EXPECT_EQ(base.shared_prefix_digits(other), i);
  }
}

TEST(Uid160Limbs, WithDigitTouchesOnlyItsNibble) {
  Rng rng(161);
  for (int trial = 0; trial < 200; ++trial) {
    const IdBytes b = random_bytes(rng);
    const int i = static_cast<int>(rng.below(Uid160::kDigits));
    const int v = static_cast<int>(rng.below(16));
    IdBytes expect = b;
    auto& byte = expect[static_cast<std::size_t>(i / 2)];
    byte = static_cast<std::uint8_t>(i % 2 == 0 ? (byte & 0x0F) | (v << 4) : (byte & 0xF0) | v);
    EXPECT_EQ(Uid160(b).with_digit(i, v).bytes(), expect);
  }
}

TEST(Uid160Limbs, HexRoundTripMatchesBytes) {
  for (const IdBytes& b : limb_edge_ids()) {
    const Uid160 id(b);
    const std::string h = id.to_hex();
    for (int i = 0; i < Uid160::kDigits; ++i) {
      const int expected = (h[static_cast<std::size_t>(i)] <= '9')
                               ? h[static_cast<std::size_t>(i)] - '0'
                               : h[static_cast<std::size_t>(i)] - 'a' + 10;
      ASSERT_EQ(ref_digit(b, i), expected);
    }
    bool ok = false;
    EXPECT_EQ(Uid160::from_hex(h, &ok), id);
    EXPECT_TRUE(ok);
  }
}

TEST(Uid160Limbs, WireFormIsTheBigEndianBytes) {
  Rng rng(162);
  for (int trial = 0; trial < 50; ++trial) {
    const IdBytes b = random_bytes(rng);
    BufWriter w;
    w.uid(Uid160(b));
    ASSERT_EQ(w.data().size(), 20u);
    EXPECT_TRUE(std::equal(b.begin(), b.end(), w.data().begin()));
    BufReader r(w.data());
    EXPECT_EQ(r.uid().bytes(), b);
    EXPECT_TRUE(r.at_end());
  }
}

// --- Rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto r = rng.range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
  }
}

TEST(Rng, ForkIsIndependentStream) {
  Rng parent(9);
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(Rng, UidsAreDistinct) {
  Rng rng(11);
  std::set<std::string> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uid().to_hex());
  EXPECT_EQ(seen.size(), 500u);
}

TEST(Zipf, SkewsTowardLowRanks) {
  Rng rng(5);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.sample(rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 100);  // far above uniform share
}

TEST(Zipf, UniformWhenExponentZero) {
  Rng rng(6);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[zipf.sample(rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

// --- Bytes ---

TEST(Bytes, PrimitivesRoundTrip) {
  BufWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.str("hello");
  w.uid(Uid160::from_content("k"));

  BufReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.uid(), Uid160::from_content("k"));
  EXPECT_TRUE(r.at_end());
  EXPECT_FALSE(r.failed());
}

TEST(Bytes, TruncatedInputFailsSoft) {
  BufWriter w;
  w.str("truncate me please");
  Bytes data = std::move(w).take();
  data.resize(6);  // cut inside the string body
  BufReader r(data);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.u64(), 0u);  // further reads stay safe
}

TEST(Bytes, StringBytesConversion) {
  const std::string s = "abc\0def";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

// --- Status / Result ---

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = error(Code::kNotFound, "missing thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: missing thing");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = error(Code::kTimeout, "slow");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kTimeout);
  EXPECT_EQ(r.value_or(-1), -1);
}

// --- Geo ---

TEST(Geo, DistanceStAndrewsExample) {
  // Two points a few hundred metres apart in St Andrews (the paper's
  // ice-cream scenario geography).
  const GeoPoint market{56.3403, -2.7957};
  const GeoPoint north{56.3417, -2.7972};
  const double d = geo_distance_m(market, north);
  EXPECT_GT(d, 100.0);
  EXPECT_LT(d, 400.0);
}

TEST(Geo, DistanceZeroForSamePoint) {
  const GeoPoint p{56.0, -2.0};
  EXPECT_DOUBLE_EQ(geo_distance_m(p, p), 0.0);
}

TEST(Geo, WalkingTimeScalesWithDistance) {
  const GeoPoint a{56.0, -2.0};
  const GeoPoint b{56.01, -2.0};  // ~1.1 km
  const double t = walking_time_s(a, b);
  EXPECT_GT(t, 600.0);
  EXPECT_LT(t, 1000.0);
}

TEST(Geo, RegionContains) {
  GeoRegion r{"st-andrews", 56.33, 56.35, -2.82, -2.77};
  EXPECT_TRUE(r.contains({56.34, -2.80}));
  EXPECT_FALSE(r.contains({56.36, -2.80}));
}

TEST(Geo, RegionMapLocate) {
  RegionMap map;
  map.add(GeoRegion{"centre", 56.339, 56.341, -2.80, -2.79});
  map.add(GeoRegion{"town", 56.33, 56.35, -2.82, -2.77});
  EXPECT_EQ(map.locate({56.34, -2.795}).value(), "centre");  // first match wins
  EXPECT_EQ(map.locate({56.345, -2.78}).value(), "town");
  EXPECT_FALSE(map.locate({0, 0}).has_value());
  EXPECT_NE(map.find("town"), nullptr);
  EXPECT_EQ(map.find("nowhere"), nullptr);
}

}  // namespace
}  // namespace aa

#include "common/ids.hpp"

namespace aa {

namespace {
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
constexpr char kHexChars[] = "0123456789abcdef";
}  // namespace

Uid160 Uid160::from_hex(std::string_view hex, bool* ok) {
  Uid160 id;
  if (hex.size() != static_cast<std::size_t>(kDigits)) {
    if (ok) *ok = false;
    return id;
  }
  for (int i = 0; i < kDigits; ++i) {
    int v = hex_value(hex[static_cast<std::size_t>(i)]);
    if (v < 0) {
      if (ok) *ok = false;
      return Uid160{};
    }
    id = id.with_digit(i, v);
  }
  if (ok) *ok = true;
  return id;
}

std::array<std::uint8_t, 20> Uid160::bytes() const {
  std::array<std::uint8_t, 20> out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(hi_ >> (56 - 8 * i));
    out[8 + i] = static_cast<std::uint8_t>(mid_ >> (56 - 8 * i));
  }
  for (std::size_t i = 0; i < 4; ++i) out[16 + i] = static_cast<std::uint8_t>(lo_ >> (24 - 8 * i));
  return out;
}

Uid160 Uid160::with_digit(int i, int value) const {
  Uid160 copy = *this;
  const auto v = static_cast<std::uint64_t>(value & 0xF);
  if (i < 16) {
    const int shift = 60 - 4 * i;
    copy.hi_ = (hi_ & ~(0xFULL << shift)) | (v << shift);
  } else if (i < 32) {
    const int shift = 60 - 4 * (i - 16);
    copy.mid_ = (mid_ & ~(0xFULL << shift)) | (v << shift);
  } else {
    const int shift = 28 - 4 * (i - 32);
    copy.lo_ = static_cast<std::uint32_t>((lo_ & ~(0xFU << shift)) | (v << shift));
  }
  return copy;
}

std::string Uid160::to_hex() const {
  std::string s;
  s.reserve(kDigits);
  for (int i = 0; i < kDigits; ++i) s.push_back(kHexChars[digit(i)]);
  return s;
}

}  // namespace aa

// Exact remainder by a fixed divisor without a hardware divide.
//
// Lemire, Kaser & Kurz, "Faster Remainder by Direct Computation"
// (2019): with M = ceil(2^128 / d), the low 128 bits of M * a are the
// fractional part of a / d scaled by 2^128, and multiplying that back by
// d leaves a % d in the top bits. With a 128-bit fraction (twice the
// 64-bit operand width) the result equals `a % d` for every 64-bit a
// and d, so a hot path can swap `%` for four multiplies and keep every
// output bit. d = 1 needs no special case: M wraps to 0, and so does
// the product.
#pragma once

#include <cassert>
#include <cstdint>

namespace clara {

class FastMod {
 public:
  explicit FastMod(std::uint64_t d) : d_(d) {
    assert(d > 0);
    const unsigned __int128 magic = ~static_cast<unsigned __int128>(0) / d + 1;
    m_hi_ = static_cast<std::uint64_t>(magic >> 64);
    m_lo_ = static_cast<std::uint64_t>(magic);
  }

  /// a % d, exactly.
  [[nodiscard]] std::uint64_t operator()(std::uint64_t a) const {
    using u128 = unsigned __int128;
    // lowbits = M * a mod 2^128.
    const u128 lo_product = static_cast<u128>(m_lo_) * a;
    const std::uint64_t low_lo = static_cast<std::uint64_t>(lo_product);
    const std::uint64_t low_hi = static_cast<std::uint64_t>(lo_product >> 64) + m_hi_ * a;
    // (lowbits * d) >> 128, from the two 64x64 partial products.
    const u128 carry = (static_cast<u128>(low_lo) * d_) >> 64;
    return static_cast<std::uint64_t>((static_cast<u128>(low_hi) * d_ + carry) >> 64);
  }

 private:
  std::uint64_t d_;
  std::uint64_t m_hi_ = 0;
  std::uint64_t m_lo_ = 0;
};

}  // namespace clara

#include "common/rng.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace clara {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the four words via splitmix64 as recommended by the xoshiro
  // authors; guards against the all-zero state.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire-style rejection: retry while in the biased zone.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  return lo + next_below(hi - lo + 1);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  // Inverse CDF; guard the log argument away from zero.
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  assert(n > 0 && n <= std::numeric_limits<std::uint32_t>::max());
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // pow(x, 1) == x and pow(x, 0) == 1 exactly; skip the call there.
    const auto rank = static_cast<double>(i + 1);
    const double weight = alpha == 1.0 ? rank : alpha == 0.0 ? 1.0 : std::pow(rank, alpha);
    total += 1.0 / weight;
    cdf_[i] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // defend against accumulated rounding

  // One merged sweep over slices and ranks: linear in n + K.
  const std::size_t k = std::bit_ceil(n);
  guide_.resize(k);
  guide_scale_ = static_cast<double>(k);
  std::size_t rank = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const double edge = static_cast<double>(j) / guide_scale_;
    while (cdf_[rank] < edge) ++rank;
    guide_[j] = static_cast<std::uint32_t>(rank);
  }
}

double ZipfSampler::pmf(std::size_t rank) const {
  assert(rank < cdf_.size());
  const double hi = cdf_[rank];
  const double lo = rank == 0 ? 0.0 : cdf_[rank - 1];
  return hi - lo;
}

}  // namespace clara

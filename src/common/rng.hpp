// Deterministic pseudo-random number generation for workload synthesis.
//
// We use xoshiro256** rather than std::mt19937 because traces with tens of
// millions of packets are generated in inner loops, and because the state
// is small enough to embed one generator per stream without care.
// Determinism across platforms is required so that benchmarks and tests
// reproduce bit-identically.
#pragma once

#include <cstdint>
#include <vector>

namespace clara {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, re-expressed here).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

  /// Exponentially distributed value with the given mean (inter-arrival
  /// times for Poisson packet arrivals).
  double exponential(double mean);

 private:
  std::uint64_t s_[4];
};

/// Zipf-distributed sampler over ranks {0, 1, ..., n-1} with exponent
/// `alpha`. Rank 0 is the most popular. Implemented with a precomputed
/// cumulative table and a guide table over it: K = bit_ceil(n) equal
/// slices of [0, 1), each remembering the first rank whose cumulative
/// mass reaches the slice's left edge. A draw jumps to its slice's rank
/// and scans forward, O(1) expected, and answers exactly the rank a
/// binary search over the cumulative table would.
///
/// Flow popularity in datacenter traces is famously heavy-tailed; the
/// workload generator uses this to decide which flow each packet belongs
/// to, which in turn controls the working-set behaviour that the paper
/// calls out ("flow distributions ... cause different memory access
/// patterns and cache behaviors").
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  std::size_t sample(Rng& rng) const { return index_of(rng.next_double()); }

  /// The rank a uniform draw u in [0, 1) maps to: the first rank whose
  /// cumulative mass is >= u (what std::lower_bound over the cumulative
  /// table returns).
  [[nodiscard]] std::size_t index_of(double u) const {
    // K is a power of two, so u * K and j / K are exact: slice j's left
    // edge never exceeds u and its guide rank never passes the answer.
    std::size_t i = guide_[static_cast<std::size_t>(u * guide_scale_)];
    while (cdf_[i] < u) ++i;
    return i;
  }

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// Probability mass of the given rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // slice j -> first rank with cdf >= j / K
  double guide_scale_ = 1.0;          // K
  double alpha_;
};

}  // namespace clara

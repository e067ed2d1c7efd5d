#ifndef PAE_UTIL_RNG_H_
#define PAE_UTIL_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace pae {

/// Deterministic pseudo-random generator (xoshiro256** seeded via
/// splitmix64). Every randomized component of the library takes an
/// explicit seed so that all experiments reproduce bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 expansion of the seed into the 4-word state.
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      state_[i] = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    PAE_CHECK_GT(bound, 0u);
    return NextU64() % bound;  // Modulo bias is negligible for our bounds.
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    PAE_CHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// True with probability `p`.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal via Box–Muller.
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Picks a uniformly random element of `v` (must be non-empty).
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    PAE_CHECK(!v.empty());
    return v[NextBounded(v.size())];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = NextBounded(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace pae

#endif  // PAE_UTIL_RNG_H_

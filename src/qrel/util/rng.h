// Deterministic pseudo-random number generation for all randomized
// algorithms in the library (Karp-Luby, naive Monte Carlo, the Theorem 5.12
// estimator, workload generators).
//
// The generator is xoshiro256++ seeded through splitmix64, which gives
// high-quality streams from arbitrary 64-bit seeds. Every randomized API in
// qrel takes an explicit Rng (or seed), so runs are reproducible.

#ifndef QREL_UTIL_RNG_H_
#define QREL_UTIL_RNG_H_

#include <array>
#include <cstdint>

#include "qrel/util/check.h"
#include "qrel/util/rational.h"
#include "qrel/util/status.h"

namespace qrel {

// xoshiro256++ by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 expansion of the seed into the four-word state.
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      state_[i] = z ^ (z >> 31);
    }
    // The all-zero state is invalid for xoshiro; seed==0 cannot produce it
    // through splitmix64, but keep the check as documentation.
    QREL_CHECK(state_[0] | state_[1] | state_[2] | state_[3]);
  }

  // Next uniformly distributed 64-bit value.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). `bound` must be positive. Uses Lemire-style
  // rejection to avoid modulo bias.
  uint64_t NextBelow(uint64_t bound) {
    QREL_CHECK_GT(bound, 0u);
    // Rejection sampling on the top bits: unbiased and branch-cheap.
    uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      uint64_t r = NextUint64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  // Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  // Derives an independent generator; useful to hand sub-tasks their own
  // streams without correlations.
  Rng Fork() { return Rng(NextUint64() ^ 0xa5a5a5a5a5a5a5a5ULL); }

  // The full generator state, for checkpointing. Restore(Save()) yields a
  // generator whose future output is byte-identical to this one's — the
  // foundation of deterministic resume (util/snapshot.h).
  std::array<uint64_t, 4> Save() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

  // Rebuilds a generator from a saved state. The all-zero state is the one
  // invalid xoshiro state (the generator would emit zeros forever); it is
  // rejected with InvalidArgument rather than checked, because restored
  // states come from external files.
  static StatusOr<Rng> Restore(const std::array<uint64_t, 4>& state) {
    if ((state[0] | state[1] | state[2] | state[3]) == 0) {
      return Status::InvalidArgument("all-zero RNG state is invalid");
    }
    Rng rng(RestoreTag{}, state);
    return rng;
  }

 private:
  struct RestoreTag {};
  Rng(RestoreTag, const std::array<uint64_t, 4>& state) {
    for (int i = 0; i < 4; ++i) {
      state_[i] = state[static_cast<size_t>(i)];
    }
  }

  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

// A Bernoulli(p) draw with p precomputed once: exact when p's denominator
// fits in 64 bits (a uniform integer below it is compared with the
// numerator), which covers every probability parsed from text, and a
// double threshold otherwise. p = 0 and p = 1 consume no randomness.
class BernoulliThreshold {
 public:
  explicit BernoulliThreshold(const Rational& p) {
    if (p.denominator().FitsInt64()) {
      numerator_ = static_cast<uint64_t>(p.numerator().ToInt64());
      denominator_ = static_cast<uint64_t>(p.denominator().ToInt64());
    } else {
      exact_ = false;
      probability_ = p.ToDouble();
    }
  }

  bool Draw(Rng* rng) const {
    if (!exact_) {
      return rng->NextBernoulli(probability_);
    }
    return denominator_ == 1 ? numerator_ != 0
                             : rng->NextBelow(denominator_) < numerator_;
  }

 private:
  bool exact_ = true;
  uint64_t numerator_ = 0;
  uint64_t denominator_ = 1;
  double probability_ = 0.0;
};

}  // namespace qrel

#endif  // QREL_UTIL_RNG_H_

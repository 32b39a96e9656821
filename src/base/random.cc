#include "src/base/random.h"

#include <cmath>

#include "src/base/log.h"

namespace multics {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// SplitMix64, used to expand the seed into the Xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

uint64_t Rng::Next() {
  // Xoshiro256**.
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

uint64_t Rng::NextBelow(uint64_t bound) {
  CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

uint64_t Rng::NextInRange(uint64_t lo, uint64_t hi) {
  CHECK_LE(lo, hi);
  return lo + NextBelow(hi - lo + 1);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  CHECK_GT(n, 0u);
  // Inverse-CDF over a harmonic-weight table would be O(n) to build; use the
  // rejection method of Devroye instead, which is O(1) per sample.
  const double b = std::pow(2.0, s - 1.0);
  while (true) {
    const double u = NextDouble();
    const double v = NextDouble();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0 + 1e-9)));
    // Rank test first, on the double: x can exceed 2^64, where converting
    // it to uint64_t is undefined, and a rejected rank needs no second pow.
    if (x > static_cast<double>(n)) {
      continue;
    }
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0 + 1e-9);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<uint64_t>(x) - 1;
    }
  }
}

uint64_t Rng::NextGeometric(double p) {
  CHECK_GT(p, 0.0);
  if (p >= 1.0) {
    return 0;
  }
  const double u = NextDouble();
  return static_cast<uint64_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
}

}  // namespace multics

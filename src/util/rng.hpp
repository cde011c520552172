// Deterministic pseudo-random number generation.
//
// Every experiment derives all randomness (topology synthesis, fault
// selection, packet-level faults, jitter) from a single seeded Rng so runs
// are exactly reproducible. xoshiro256** seeded via SplitMix64, per the
// reference implementations by Blackman & Vigna (public domain).
#pragma once

#include <array>
#include <cstdint>

namespace ren {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// SplitMix64 stream split: derive the seed of an independent stream from
  /// a base seed and a stream id. The simulation kernel gives every node the
  /// stream `Rng(Rng::stream_seed(seed, node_id))`; the derivation depends
  /// only on (seed, stream), so a node's draw sequence follows its own
  /// trajectory, untouched by draws of other nodes or the harness.
  static constexpr std::uint64_t stream_seed(std::uint64_t seed,
                                             std::uint64_t stream) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's nearly-divisionless bounded generation (biased only below
    // 2^-64, irrelevant here).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial.
  bool chance(double p) { return next_double() < p; }

  /// Derive an independent child generator (for per-subsystem streams).
  Rng fork() { return Rng(next_u64()); }

  /// Fisher-Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      std::size_t j = next_below(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Pick a uniformly random element (container must be non-empty).
  template <typename Container>
  auto& pick(Container& c) {
    return c[next_below(c.size())];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace ren

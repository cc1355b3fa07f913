// Deterministic, splittable random number generation.
//
// GDISim guarantees bit-identical results regardless of scheduler mode or
// checkpoint/restore (DESIGN.md §4). Every stochastic decision draws from
// a stream derived deterministically from the run seed plus a stable purpose
// string, never from shared mutable RNG state.
#pragma once

#include <cstdint>
#include <string_view>

namespace gdisim {

class StateArchive;

/// SplitMix64: tiny, fast, passes BigCrush when used as a stream; ideal for
/// deriving independent streams from a seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the workhorse generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  std::uint64_t next_u64() {
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

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n) {
    // Lemire's multiply-shift rejection method.
    if (n == 0) return 0;
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Exponential variate with the given mean (> 0).
  double next_exponential(double mean);

  /// Normal variate (Box–Muller, stateless variant using two uniforms).
  double next_normal(double mean, double stddev);

  /// Derives an independent child stream; stable across platforms.
  Rng split(std::string_view purpose) const;

  /// Same derivation from a pre-computed purpose hash: split_hashed(
  /// stable_hash(s)) is bit-identical to split(s). Hot launch paths cache
  /// the hash once instead of re-hashing a string per operation.
  Rng split_hashed(std::uint64_t purpose_hash) const {
    const std::uint64_t folded =
        s_[0] ^ (s_[1] * 0x9e3779b97f4a7c15ULL) ^ purpose_hash;
    return Rng(SplitMix64(folded).next());
  }

  /// Snapshot round trip: the four xoshiro256** state words, i.e. the exact
  /// stream position.
  void archive_state(StateArchive& ar);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// FNV-1a hash used to fold purpose strings into seeds.
std::uint64_t stable_hash(std::string_view s);

/// stable_hash of the decimal rendering of `v` without materializing the
/// string: stable_hash_decimal(v) == stable_hash(std::to_string(v)).
std::uint64_t stable_hash_decimal(std::uint64_t v);

}  // namespace gdisim

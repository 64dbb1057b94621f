// Deterministic random-number infrastructure.
//
// Every randomized component in the library draws from a RandomEngine seeded
// explicitly, so experiments are reproducible run-to-run. The engine is
// xoshiro256++ (fast, 256-bit state, passes BigCrush) seeded via SplitMix64,
// with samplers for the distributions the DP machinery needs: uniform,
// Bernoulli, Laplace, exponential and Gaussian.

#ifndef PRIVHP_COMMON_RANDOM_H_
#define PRIVHP_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace privhp {

/// \brief SplitMix64 step: advances \p state and returns the next output.
///
/// Used for seeding and as a cheap stateless mixer. Inline: this is the
/// mixing core of the sketch row hashes, called depth-times per key on
/// the ingest hot path.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// \brief Mixes a 64-bit value through the SplitMix64 finalizer
/// (stateless; useful for deriving stream-independent seeds).
inline uint64_t Mix64(uint64_t x) {
  uint64_t state = x;
  return SplitMix64(&state);
}

/// \brief Deterministic pseudo-random engine with DP-oriented samplers.
class RandomEngine {
 public:
  /// Constructs an engine whose full 256-bit state is derived from \p seed.
  explicit RandomEngine(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// \brief Next raw 64-bit output (xoshiro256++).
  uint64_t NextUint64();

  /// \brief Uniform double in [0, 1) with 53 random bits.
  double UniformDouble();

  /// \brief Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// \brief Uniform integer in [0, bound), bound > 0 (unbiased, via
  /// rejection).
  uint64_t UniformInt(uint64_t bound);

  /// \brief Bernoulli(p) draw.
  bool Bernoulli(double p);

  /// \brief Laplace(0, scale) draw (density ~ exp(-|x|/scale)).
  double Laplace(double scale);

  /// \brief Exponential(rate = 1/scale) draw, i.e. mean = scale.
  double Exponential(double scale);

  /// \brief Standard normal draw (Box-Muller; one value per call).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// \brief Derives a child engine with an independent stream.
  ///
  /// Children keyed by distinct \p stream_id values are statistically
  /// independent of the parent and of each other.
  RandomEngine Fork(uint64_t stream_id);

  /// \brief The seed this engine was constructed from.
  uint64_t seed() const { return seed_; }

 private:
  uint64_t s_[4];
  uint64_t seed_;
};

/// \brief Fills \p out with k distinct indices drawn uniformly from
/// [0, universe) (reservoir-free selection; k <= universe required).
std::vector<uint64_t> SampleDistinct(RandomEngine* rng, uint64_t universe,
                                     uint64_t k);

}  // namespace privhp

#endif  // PRIVHP_COMMON_RANDOM_H_

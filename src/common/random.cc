#include "common/random.h"

#include <cmath>
#include <unordered_set>

#include "common/macros.h"

namespace privhp {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

RandomEngine::RandomEngine(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  // xoshiro's all-zero state is absorbing; SplitMix64 cannot emit four zero
  // words from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t RandomEngine::NextUint64() {
  // xoshiro256++ by Blackman & Vigna (public domain reference algorithm).
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double RandomEngine::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double RandomEngine::UniformDouble(double lo, double hi) {
  PRIVHP_DCHECK(lo <= hi);
  return lo + (hi - lo) * UniformDouble();
}

uint64_t RandomEngine::UniformInt(uint64_t bound) {
  PRIVHP_DCHECK(bound > 0);
  // Lemire-style rejection to remove modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

bool RandomEngine::Bernoulli(double p) { return UniformDouble() < p; }

double RandomEngine::Laplace(double scale) {
  PRIVHP_DCHECK(scale > 0);
  // Inverse-CDF on u in (-1/2, 1/2): -scale * sgn(u) * ln(1 - 2|u|).
  double u = UniformDouble() - 0.5;
  // Avoid log(0) at the (measure-zero but representable) endpoint.
  double a = 1.0 - 2.0 * std::abs(u);
  if (a <= 0.0) a = 0x1.0p-53;
  const double magnitude = -scale * std::log(a);
  return u < 0 ? -magnitude : magnitude;
}

double RandomEngine::Exponential(double scale) {
  PRIVHP_DCHECK(scale > 0);
  double u = UniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -scale * std::log(u);
}

double RandomEngine::Gaussian(double mean, double stddev) {
  double u1 = UniformDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(6.283185307179586476925286766559 * u2);
}

RandomEngine RandomEngine::Fork(uint64_t stream_id) {
  // Derive the child seed from fresh parent output and the stream id, so
  // forked streams neither overlap the parent stream nor each other.
  const uint64_t child_seed =
      Mix64(NextUint64() ^ Mix64(stream_id ^ 0xa0761d6478bd642fULL));
  return RandomEngine(child_seed);
}

std::vector<uint64_t> SampleDistinct(RandomEngine* rng, uint64_t universe,
                                     uint64_t k) {
  PRIVHP_CHECK(k <= universe);
  std::unordered_set<uint64_t> chosen;
  chosen.reserve(static_cast<size_t>(k) * 2);
  // Floyd's algorithm: k iterations, each guaranteed to add one element.
  for (uint64_t j = universe - k; j < universe; ++j) {
    const uint64_t t = rng->UniformInt(j + 1);
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  return {chosen.begin(), chosen.end()};
}

}  // namespace privhp

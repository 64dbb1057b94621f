#include "common/simd.h"

#include <atomic>
#include <cstdlib>

#include "common/random.h"
#include "common/simd_kernels.h"

namespace privhp {

namespace simd_detail {

// Portable reference kernels. These are the semantics the vector
// translation units must reproduce bit-for-bit; they are also the
// dispatch target when PRIVHP_SIMD is off, the CPU lacks AVX2, or the
// level is forced down.

void InCellTransformScalar(const double* lo_tab, const double* ext_tab,
                           const uint32_t* slots, int dim, size_t m,
                           double* inout) {
  const size_t d = static_cast<size_t>(dim);
  for (size_t i = 0; i < m; ++i) {
    const double* lo = lo_tab + static_cast<size_t>(slots[i]) * d;
    const double* ext = ext_tab + static_cast<size_t>(slots[i]) * d;
    double* row = inout + i * d;
    for (size_t c = 0; c < d; ++c) {
      row[c] = lo[c] + ext[c] * row[c];
    }
  }
}

void ScaledCutPositionsScalar(const double* x, size_t n,
                              const double* lo_pat, const double* ext_pat,
                              const double* cells_pat, size_t tile,
                              double* out) {
  size_t k = 0;
  for (size_t j = 0; j < n; ++j) {
    const double t = (x[j] - lo_pat[k]) / ext_pat[k];
    out[j] = t * cells_pat[k];
    if (++k == tile) k = 0;
  }
}

size_t FindOutOfBoundsScalar(const double* x, size_t n, const double* lo_pat,
                             const double* hi_pat, size_t tile) {
  size_t k = 0;
  for (size_t j = 0; j < n; ++j) {
    if (!(x[j] >= lo_pat[k] && x[j] <= hi_pat[k])) return j;
    if (++k == tile) k = 0;
  }
  return n;
}

void HashBucketsScalar(const uint64_t* keys, size_t n, uint64_t multiplier,
                       uint64_t salt, uint64_t mask, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] =
        static_cast<uint32_t>((multiplier * Mix64(keys[i] ^ salt)) & mask);
  }
}

}  // namespace simd_detail

namespace {

// -1 = no force; otherwise a SimdLevel value.
std::atomic<int> g_forced_level{-1};

SimdLevel EnvClampedLevel() {
  SimdLevel level = DetectedSimdLevel();
  static const SimdLevel env_level = [] {
    SimdLevel parsed = SimdLevel::kAvx512;  // no cap by default
    const char* env = std::getenv("PRIVHP_SIMD_LEVEL");
    if (env != nullptr) {
      SimdLevel requested;
      if (ParseSimdLevel(env, &requested)) parsed = requested;
      // Unknown names are ignored (detection wins): an env typo must
      // never change numeric results, only possibly speed.
    }
    return parsed;
  }();
  if (static_cast<int>(env_level) < static_cast<int>(level)) {
    level = env_level;
  }
  return level;
}

}  // namespace

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = [] {
#if PRIVHP_SIMD_ENABLED
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return SimdLevel::kAvx512;
    }
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return detected;
}

SimdLevel ActiveSimdLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  const SimdLevel level = EnvClampedLevel();
  if (forced >= 0 && forced < static_cast<int>(level)) {
    return static_cast<SimdLevel>(forced);
  }
  return level;
}

void ForceSimdLevel(SimdLevel level) {
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ClearForcedSimdLevel() {
  g_forced_level.store(-1, std::memory_order_relaxed);
}

std::string SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseSimdLevel(const std::string& name, SimdLevel* out) {
  if (name == "scalar") {
    *out = SimdLevel::kScalar;
  } else if (name == "avx2") {
    *out = SimdLevel::kAvx2;
  } else if (name == "avx512") {
    *out = SimdLevel::kAvx512;
  } else {
    return false;
  }
  return true;
}

namespace simd {

void InCellTransform(const double* lo_tab, const double* ext_tab,
                     const uint32_t* slots, int dim, size_t m,
                     double* inout) {
  switch (ActiveSimdLevel()) {
#if PRIVHP_SIMD_ENABLED
    case SimdLevel::kAvx512:
      simd_detail::InCellTransformAvx512(lo_tab, ext_tab, slots, dim, m,
                                         inout);
      return;
    case SimdLevel::kAvx2:
      simd_detail::InCellTransformAvx2(lo_tab, ext_tab, slots, dim, m,
                                       inout);
      return;
#endif
    default:
      simd_detail::InCellTransformScalar(lo_tab, ext_tab, slots, dim, m,
                                         inout);
      return;
  }
}

void ScaledCutPositions(const double* x, size_t n, const double* lo_pat,
                        const double* ext_pat, const double* cells_pat,
                        size_t tile, double* out) {
  switch (ActiveSimdLevel()) {
#if PRIVHP_SIMD_ENABLED
    case SimdLevel::kAvx512:
      simd_detail::ScaledCutPositionsAvx512(x, n, lo_pat, ext_pat,
                                            cells_pat, tile, out);
      return;
    case SimdLevel::kAvx2:
      simd_detail::ScaledCutPositionsAvx2(x, n, lo_pat, ext_pat, cells_pat,
                                          tile, out);
      return;
#endif
    default:
      simd_detail::ScaledCutPositionsScalar(x, n, lo_pat, ext_pat,
                                            cells_pat, tile, out);
      return;
  }
}

size_t FindOutOfBounds(const double* x, size_t n, const double* lo_pat,
                       const double* hi_pat, size_t tile) {
  switch (ActiveSimdLevel()) {
#if PRIVHP_SIMD_ENABLED
    case SimdLevel::kAvx512:
      return simd_detail::FindOutOfBoundsAvx512(x, n, lo_pat, hi_pat, tile);
    case SimdLevel::kAvx2:
      return simd_detail::FindOutOfBoundsAvx2(x, n, lo_pat, hi_pat, tile);
#endif
    default:
      return simd_detail::FindOutOfBoundsScalar(x, n, lo_pat, hi_pat, tile);
  }
}

void HashBuckets(const uint64_t* keys, size_t n, uint64_t multiplier,
                 uint64_t salt, uint64_t mask, uint32_t* out) {
  switch (ActiveSimdLevel()) {
#if PRIVHP_SIMD_ENABLED
    case SimdLevel::kAvx512:
      simd_detail::HashBucketsAvx512(keys, n, multiplier, salt, mask, out);
      return;
    case SimdLevel::kAvx2:
      simd_detail::HashBucketsAvx2(keys, n, multiplier, salt, mask, out);
      return;
#endif
    default:
      simd_detail::HashBucketsScalar(keys, n, multiplier, salt, mask, out);
      return;
  }
}

}  // namespace simd

}  // namespace privhp

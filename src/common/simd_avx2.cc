// AVX2 kernel set (compiled with -mavx2 -ffp-contract=off; see simd.h).
//
// Every floating-point step is an explicit correctly-rounded intrinsic
// (sub/div/mul/add/compare), so each lane computes exactly what the
// scalar reference computes — no FMA, no reassociation.

#include "common/simd_kernels.h"

#if PRIVHP_SIMD_ENABLED

#include <immintrin.h>

namespace privhp {
namespace simd_detail {

namespace {

// 4-wide body shared by the tiled kernels: pattern offset k is always a
// multiple of 4 and < tile, so pattern loads never wrap mid-vector.
inline void ScaledCut4(const double* x, const double* lo_pat,
                       const double* ext_pat, const double* cells_pat,
                       size_t k, double* out) {
  const __m256d v = _mm256_loadu_pd(x);
  const __m256d t = _mm256_div_pd(_mm256_sub_pd(v, _mm256_loadu_pd(lo_pat + k)),
                                  _mm256_loadu_pd(ext_pat + k));
  _mm256_storeu_pd(out, _mm256_mul_pd(t, _mm256_loadu_pd(cells_pat + k)));
}

inline __m256i Set1U64(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

// Low 64 bits of a * b per lane. AVX2 has no 64-bit vector multiply
// (vpmullq is AVX-512DQ), so it is built from three 32x32->64 products:
// lo(a)lo(b) + ((hi(a)lo(b) + lo(a)hi(b)) << 32), all mod 2^64. Even so
// the kernel below hashes ~1.5x faster than the scalar loop (1.35 vs
// 2.05 ns/key on 256-key runs, 4-vCPU Xeon VM), so AVX2 keeps it.
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                          _mm256_slli_epi64(cross, 32));
}

inline __m256i XorShiftRight(__m256i z, int shift) {
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, shift));
}

}  // namespace

void HashBucketsAvx2(const uint64_t* keys, size_t n, uint64_t multiplier,
                     uint64_t salt, uint64_t mask, uint32_t* out) {
  const __m256i vsalt = Set1U64(salt);
  const __m256i vmult = Set1U64(multiplier);
  const __m256i vmask = Set1U64(mask);
  // Gathers the low 32-bit half of each 64-bit lane into the low 128 bits.
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i key =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    // Mix64 (common/random.h) step for step, then the row multiplier.
    __m256i z = _mm256_add_epi64(_mm256_xor_si256(key, vsalt),
                                 Set1U64(0x9e3779b97f4a7c15ULL));
    z = MulLo64(XorShiftRight(z, 30), Set1U64(0xbf58476d1ce4e5b9ULL));
    z = MulLo64(XorShiftRight(z, 27), Set1U64(0x94d049bb133111ebULL));
    // mask < 2^32 keeps only bits the factors' low halves determine, so
    // one 32x32->64 product suffices for the row multiplier.
    z = _mm256_and_si256(_mm256_mul_epu32(XorShiftRight(z, 31), vmult),
                         vmask);
    // Keeping each lane's low half is exact for the same reason.
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + i),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(z, low_halves)));
  }
  HashBucketsScalar(keys + i, n - i, multiplier, salt, mask, out + i);
}

void InCellTransformAvx2(const double* lo_tab, const double* ext_tab,
                         const uint32_t* slots, int dim, size_t m,
                         double* inout) {
  if (dim == 1) {
    // One coordinate per point: gather each lane's cell bounds by slot.
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots + i));
      // Masked gathers with an explicit zero source: the plain gather
      // intrinsic's undefined pass-through operand trips
      // -Wmaybe-uninitialized under -Werror.
      const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
      const __m256d lo =
          _mm256_mask_i32gather_pd(_mm256_setzero_pd(), lo_tab, idx, all, 8);
      const __m256d ext =
          _mm256_mask_i32gather_pd(_mm256_setzero_pd(), ext_tab, idx, all, 8);
      const __m256d u = _mm256_loadu_pd(inout + i);
      _mm256_storeu_pd(inout + i,
                       _mm256_add_pd(lo, _mm256_mul_pd(ext, u)));
    }
    for (; i < m; ++i) {
      inout[i] = lo_tab[slots[i]] + ext_tab[slots[i]] * inout[i];
    }
    return;
  }
  // Multi-coordinate points: each point reads a different dim-long slot
  // row, so the profitable vector shape is per-point; fall through to the
  // scalar loop (still allocation-free over the arena). Compiled here
  // with contraction off, so it stays bit-identical to the reference.
  InCellTransformScalar(lo_tab, ext_tab, slots, dim, m, inout);
}

void ScaledCutPositionsAvx2(const double* x, size_t n, const double* lo_pat,
                            const double* ext_pat, const double* cells_pat,
                            size_t tile, double* out) {
  size_t j = 0;
  // Full tiles: pattern offset k walks 0..tile in vector steps (tile is a
  // multiple of 8, hence of 4).
  for (; j + tile <= n; j += tile) {
    for (size_t k = 0; k < tile; k += 4) {
      ScaledCut4(x + j + k, lo_pat, ext_pat, cells_pat, k, out + j + k);
    }
  }
  // Tail tile: vector groups while they fit, then scalar.
  size_t k = 0;
  for (; j + 4 <= n; j += 4, k += 4) {
    ScaledCut4(x + j, lo_pat, ext_pat, cells_pat, k, out + j);
  }
  for (; j < n; ++j, ++k) {
    const double t = (x[j] - lo_pat[k]) / ext_pat[k];
    out[j] = t * cells_pat[k];
  }
}

size_t FindOutOfBoundsAvx2(const double* x, size_t n, const double* lo_pat,
                           const double* hi_pat, size_t tile) {
  const auto check4 = [&](size_t j, size_t k) -> size_t {
    const __m256d v = _mm256_loadu_pd(x + j);
    // Ordered-quiet compares: NaN makes both false, failing the check,
    // which matches the scalar negated-compare form.
    const __m256d ge = _mm256_cmp_pd(v, _mm256_loadu_pd(lo_pat + k),
                                     _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(v, _mm256_loadu_pd(hi_pat + k),
                                     _CMP_LE_OQ);
    const int ok = _mm256_movemask_pd(_mm256_and_pd(ge, le));
    if (ok == 0xF) return n;
    return j + static_cast<size_t>(__builtin_ctz(~ok & 0xF));
  };
  size_t j = 0;
  for (; j + tile <= n; j += tile) {
    for (size_t k = 0; k < tile; k += 4) {
      const size_t bad = check4(j + k, k);
      if (bad != n) return bad;
    }
  }
  size_t k = 0;
  for (; j + 4 <= n; j += 4, k += 4) {
    const size_t bad = check4(j, k);
    if (bad != n) return bad;
  }
  for (; j < n; ++j, ++k) {
    if (!(x[j] >= lo_pat[k] && x[j] <= hi_pat[k])) return j;
  }
  return n;
}

}  // namespace simd_detail
}  // namespace privhp

#endif  // PRIVHP_SIMD_ENABLED

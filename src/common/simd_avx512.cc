// AVX-512 kernel set (compiled with -mavx512f -mavx512dq
// -ffp-contract=off; see simd.h). Same bit-identity discipline as the
// AVX2 set: explicit correctly-rounded intrinsics only. One kernel,
// HashBucketsIfma, also uses AVX512-IFMA through a function-level target
// and runs only where CPUID reports it.

#include "common/simd_kernels.h"

#if PRIVHP_SIMD_ENABLED

#include <immintrin.h>

namespace privhp {
namespace simd_detail {

namespace {

inline void ScaledCut8(const double* x, const double* lo_pat,
                       const double* ext_pat, const double* cells_pat,
                       size_t k, double* out) {
  const __m512d v = _mm512_loadu_pd(x);
  const __m512d t = _mm512_div_pd(_mm512_sub_pd(v, _mm512_loadu_pd(lo_pat + k)),
                                  _mm512_loadu_pd(ext_pat + k));
  _mm512_storeu_pd(out, _mm512_mul_pd(t, _mm512_loadu_pd(cells_pat + k)));
}

inline __m512i Set1U64(uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

// z ^ (z >> shift) per lane. The zero-masked shift, like the masked
// gathers above, avoids the plain intrinsic's undefined pass-through
// operand, which trips -Wmaybe-uninitialized under -Werror.
inline __m512i XorShiftRight(__m512i z, unsigned shift) {
  return _mm512_xor_si512(z, _mm512_maskz_srli_epi64(0xFF, z, shift));
}

// Mix64(key ^ salt) up to its second multiply, by 0x94d049bb133111eb:
// the factor that multiply takes. Mix64 is the SplitMix64 finalizer of
// common/random.h, step for step, and vpmullq (AVX-512DQ) gives the low
// 64 bits of each product, as the scalar wrapping multiply does.
inline __m512i SecondFactor(__m512i key, __m512i salt) {
  const __m512i z = _mm512_add_epi64(_mm512_xor_si512(key, salt),
                                     Set1U64(0x9e3779b97f4a7c15ULL));
  const __m512i y = _mm512_mullo_epi64(XorShiftRight(z, 30),
                                       Set1U64(0xbf58476d1ce4e5b9ULL));
  return XorShiftRight(y, 27);
}

// (multiplier * (z ^ (z >> 31))) & mask for the second product z: the
// bucket. mask < 2^32 keeps only bits the low 32 bits of both factors
// determine, so the product is a 1-uop 32x32->64 vpmuludq instead of a
// 3-uop vpmullq (zero-masked for the same warning as XorShiftRight).
// For a b-bit mask the bucket reads only bits 0..b-1 of z ^ (z >> 31),
// so it needs z only modulo 2^(31+b).
inline __m512i BucketOf(__m512i z, __m512i multiplier, __m512i mask) {
  return _mm512_and_si512(
      _mm512_maskz_mul_epu32(0xFF, XorShiftRight(z, 31), multiplier), mask);
}

// Lanes of keys[i..n) an eight-key step loads and stores; lanes past n
// are neither loaded nor stored.
inline __mmask8 LanesFrom(size_t i, size_t n) {
  return n - i >= 8 ? static_cast<__mmask8>(0xFF)
                    : static_cast<__mmask8>((1u << (n - i)) - 1);
}

// HashBucketsAvx512 for masks below 2^21. vpmadd52luq (AVX512-IFMA)
// gives the low 52 bits of the product of its operands' low 52 bits:
// the second product modulo 2^52, which covers the 2^(31+21) BucketOf
// needs, in one uop where vpmullq takes three.
__attribute__((target("avx512ifma"))) void HashBucketsIfma(
    const uint64_t* keys, size_t n, uint64_t multiplier, uint64_t salt,
    uint64_t mask, uint32_t* out) {
  const __m512i vsalt = Set1U64(salt);
  const __m512i vmult = Set1U64(multiplier);
  const __m512i vmask = Set1U64(mask);
  const __m512i second = Set1U64(0x94d049bb133111ebULL);
  for (size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = LanesFrom(i, n);
    const __m512i factor =
        SecondFactor(_mm512_maskz_loadu_epi64(lanes, keys + i), vsalt);
    const __m512i z =
        _mm512_madd52lo_epu64(_mm512_setzero_si512(), factor, second);
    _mm512_mask_cvtepi64_storeu_epi32(out + i, lanes,
                                      BucketOf(z, vmult, vmask));
  }
}

}  // namespace

void HashBucketsAvx512(const uint64_t* keys, size_t n, uint64_t multiplier,
                       uint64_t salt, uint64_t mask, uint32_t* out) {
  static const bool ifma = __builtin_cpu_supports("avx512ifma");
  if (ifma && mask < (uint64_t{1} << 21)) {
    HashBucketsIfma(keys, n, multiplier, salt, mask, out);
    return;
  }
  const __m512i vsalt = Set1U64(salt);
  const __m512i vmult = Set1U64(multiplier);
  const __m512i vmask = Set1U64(mask);
  const __m512i second = Set1U64(0x94d049bb133111ebULL);
  for (size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = LanesFrom(i, n);
    const __m512i factor =
        SecondFactor(_mm512_maskz_loadu_epi64(lanes, keys + i), vsalt);
    const __m512i z = _mm512_mullo_epi64(factor, second);
    // mask < 2^32, so narrowing each lane to 32 bits is exact.
    _mm512_mask_cvtepi64_storeu_epi32(out + i, lanes,
                                      BucketOf(z, vmult, vmask));
  }
}

void InCellTransformAvx512(const double* lo_tab, const double* ext_tab,
                           const uint32_t* slots, int dim, size_t m,
                           double* inout) {
  if (dim == 1) {
    size_t i = 0;
    for (; i + 8 <= m; i += 8) {
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots + i));
      // Masked gathers with an explicit zero source (see the AVX2 set).
      const __m512d lo = _mm512_mask_i32gather_pd(_mm512_setzero_pd(),
                                                  0xFF, idx, lo_tab, 8);
      const __m512d ext = _mm512_mask_i32gather_pd(_mm512_setzero_pd(),
                                                   0xFF, idx, ext_tab, 8);
      const __m512d u = _mm512_loadu_pd(inout + i);
      _mm512_storeu_pd(inout + i,
                       _mm512_add_pd(lo, _mm512_mul_pd(ext, u)));
    }
    for (; i < m; ++i) {
      inout[i] = lo_tab[slots[i]] + ext_tab[slots[i]] * inout[i];
    }
    return;
  }
  InCellTransformScalar(lo_tab, ext_tab, slots, dim, m, inout);
}

void ScaledCutPositionsAvx512(const double* x, size_t n,
                              const double* lo_pat, const double* ext_pat,
                              const double* cells_pat, size_t tile,
                              double* out) {
  size_t j = 0;
  for (; j + tile <= n; j += tile) {
    for (size_t k = 0; k < tile; k += 8) {
      ScaledCut8(x + j + k, lo_pat, ext_pat, cells_pat, k, out + j + k);
    }
  }
  size_t k = 0;
  for (; j + 8 <= n; j += 8, k += 8) {
    ScaledCut8(x + j, lo_pat, ext_pat, cells_pat, k, out + j);
  }
  for (; j < n; ++j, ++k) {
    const double t = (x[j] - lo_pat[k]) / ext_pat[k];
    out[j] = t * cells_pat[k];
  }
}

size_t FindOutOfBoundsAvx512(const double* x, size_t n, const double* lo_pat,
                             const double* hi_pat, size_t tile) {
  const auto check8 = [&](size_t j, size_t k) -> size_t {
    const __m512d v = _mm512_loadu_pd(x + j);
    const __mmask8 ge =
        _mm512_cmp_pd_mask(v, _mm512_loadu_pd(lo_pat + k), _CMP_GE_OQ);
    const __mmask8 le =
        _mm512_cmp_pd_mask(v, _mm512_loadu_pd(hi_pat + k), _CMP_LE_OQ);
    const unsigned ok = static_cast<unsigned>(ge & le);
    if (ok == 0xFFu) return n;
    return j + static_cast<size_t>(__builtin_ctz(~ok & 0xFFu));
  };
  size_t j = 0;
  for (; j + tile <= n; j += tile) {
    for (size_t k = 0; k < tile; k += 8) {
      const size_t bad = check8(j + k, k);
      if (bad != n) return bad;
    }
  }
  size_t k = 0;
  for (; j + 8 <= n; j += 8, k += 8) {
    const size_t bad = check8(j, k);
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

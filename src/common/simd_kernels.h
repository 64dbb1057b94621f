// Internal: per-instruction-set kernel entry points behind common/simd.h.
//
// Each function set lives in its own translation unit so it can be
// compiled with that set's -m flags (and -ffp-contract=off; see simd.h's
// bit-identity contract) without raising the ISA baseline of the rest of
// the library. Only simd.cc's dispatchers may call these — everything
// else goes through the public privhp::simd:: entry points, which clamp
// to what the running CPU actually supports.

#ifndef PRIVHP_COMMON_SIMD_KERNELS_H_
#define PRIVHP_COMMON_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace privhp {
namespace simd_detail {

void InCellTransformScalar(const double* lo_tab, const double* ext_tab,
                           const uint32_t* slots, int dim, size_t m,
                           double* inout);
void ScaledCutPositionsScalar(const double* x, size_t n,
                              const double* lo_pat, const double* ext_pat,
                              const double* cells_pat, size_t tile,
                              double* out);
size_t FindOutOfBoundsScalar(const double* x, size_t n, const double* lo_pat,
                             const double* hi_pat, size_t tile);
void HashBucketsScalar(const uint64_t* keys, size_t n, uint64_t multiplier,
                       uint64_t salt, uint64_t mask, uint32_t* out);

#if PRIVHP_SIMD_ENABLED
void InCellTransformAvx2(const double* lo_tab, const double* ext_tab,
                         const uint32_t* slots, int dim, size_t m,
                         double* inout);
void ScaledCutPositionsAvx2(const double* x, size_t n, const double* lo_pat,
                            const double* ext_pat, const double* cells_pat,
                            size_t tile, double* out);
size_t FindOutOfBoundsAvx2(const double* x, size_t n, const double* lo_pat,
                           const double* hi_pat, size_t tile);
void HashBucketsAvx2(const uint64_t* keys, size_t n, uint64_t multiplier,
                     uint64_t salt, uint64_t mask, uint32_t* out);

void InCellTransformAvx512(const double* lo_tab, const double* ext_tab,
                           const uint32_t* slots, int dim, size_t m,
                           double* inout);
void ScaledCutPositionsAvx512(const double* x, size_t n,
                              const double* lo_pat, const double* ext_pat,
                              const double* cells_pat, size_t tile,
                              double* out);
size_t FindOutOfBoundsAvx512(const double* x, size_t n, const double* lo_pat,
                             const double* hi_pat, size_t tile);
void HashBucketsAvx512(const uint64_t* keys, size_t n, uint64_t multiplier,
                       uint64_t salt, uint64_t mask, uint32_t* out);
#endif  // PRIVHP_SIMD_ENABLED

}  // namespace simd_detail
}  // namespace privhp

#endif  // PRIVHP_COMMON_SIMD_KERNELS_H_

// Runtime-dispatched SIMD kernels for the columnar hot paths.
//
// Structure (avx_traits style): one translation unit per instruction set
// — simd.cc (portable scalar, always built), simd_avx2.cc (-mavx2) and
// simd_avx512.cc (-mavx512f -mavx512dq), both gated by the PRIVHP_SIMD
// configure option — each implementing the same small kernel vocabulary.
// The public entry points here pick an implementation at runtime from
// CPUID (__builtin_cpu_supports), so one binary runs everywhere and uses
// the widest vectors the host offers.
//
// Bit-identity contract: every kernel is REQUIRED to produce bit-identical
// output across scalar/AVX2/AVX-512. The floating-point kernels only use
// add/sub/mul/div and comparisons — all correctly rounded per IEEE-754,
// hence identical per lane to scalar — and the SIMD translation units are
// compiled with -ffp-contract=off so the compiler cannot fuse mul+add
// into an FMA (which rounds once instead of twice) in scalar tails.
// HashBuckets is integer-exact: wrapping 64-bit add/xor/shift/multiply
// has one answer on every tier. This is what lets the batched-vs-scalar
// bit-equality gates stay always-on regardless of which kernel ran.
//
// Overrides, strongest first:
//   * ForceSimdLevel()            — test/bench hook (clamped to detected);
//   * PRIVHP_SIMD_LEVEL=scalar|avx2|avx512 — environment, read once;
//   * CPUID detection, clamped to what was compiled in (PRIVHP_SIMD).

#ifndef PRIVHP_COMMON_SIMD_H_
#define PRIVHP_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace privhp {

/// \brief Instruction-set tiers the kernels are implemented for.
enum class SimdLevel : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// \brief Widest level this binary supports on this CPU (compile gate
/// intersected with CPUID). Independent of overrides.
SimdLevel DetectedSimdLevel();

/// \brief The level the kernels dispatch on: detection clamped by the
/// PRIVHP_SIMD_LEVEL environment variable and ForceSimdLevel().
SimdLevel ActiveSimdLevel();

/// \brief Overrides the active level (clamped to DetectedSimdLevel());
/// the runtime-dispatch smoke and the SIMD-vs-scalar tests use this to
/// force the scalar kernels on AVX hardware.
void ForceSimdLevel(SimdLevel level);

/// \brief Drops a ForceSimdLevel() override (environment still applies).
void ClearForcedSimdLevel();

/// \brief "scalar", "avx2" or "avx512".
std::string SimdLevelName(SimdLevel level);

/// \brief Parses a level name; returns false on unknown names.
bool ParseSimdLevel(const std::string& name, SimdLevel* out);

namespace simd {

/// \brief In-cell uniform sampling step over a row-major arena.
///
/// On entry inout[] holds m*dim uniform draws u in [0,1); on exit
/// element j (point j/dim, coordinate c = j%dim) holds
///   lo_tab[slots[j/dim]*dim + c] + u * ext_tab[slots[j/dim]*dim + c]
/// computed as separate multiply then add — exactly
/// RandomEngine::UniformDouble(lo, hi)'s arithmetic, so a batch equals
/// the per-point scalar sampler bit-for-bit.
void InCellTransform(const double* lo_tab, const double* ext_tab,
                     const uint32_t* slots, int dim, size_t m,
                     double* inout);

/// \brief Per-coordinate cut positions for batched Locate.
///
/// out[j] = ((x[j] - lo_pat[k]) / ext_pat[k]) * cells_pat[k] with
/// k = j mod tile; the caller pre-tiles the per-coordinate box bounds
/// and cell counts to a pattern length `tile` that is a multiple of both
/// the dimension and 8 (one AVX-512 vector), so vector loads of the
/// pattern stay aligned to the point grid. Division and multiplication
/// are kept as two rounded steps, matching BoxDomain::Locate exactly.
void ScaledCutPositions(const double* x, size_t n, const double* lo_pat,
                        const double* ext_pat, const double* cells_pat,
                        size_t tile, double* out);

/// \brief Batched bounds check (ValidateBatch hot path).
///
/// Returns the first j in [0, n) with !(x[j] >= lo_pat[j mod tile] &&
/// x[j] <= hi_pat[j mod tile]) — the negated-compare form, so NaN
/// coordinates fail — or n when every element is in bounds. \p tile as
/// in ScaledCutPositions.
size_t FindOutOfBounds(const double* x, size_t n, const double* lo_pat,
                       const double* hi_pat, size_t tile);

/// \brief Count-Min row buckets for a run of keys (UpdateBatch hot path).
///
/// out[i] = (multiplier * Mix64(keys[i] ^ salt)) & mask, with wrapping
/// 64-bit arithmetic — the value CompactHash::Hash(keys[i]) & mask for
/// the CompactHash holding (multiplier, salt). \p mask must be below
/// 2^32 so every bucket fits its uint32_t slot.
void HashBuckets(const uint64_t* keys, size_t n, uint64_t multiplier,
                 uint64_t salt, uint64_t mask, uint32_t* out);

}  // namespace simd

}  // namespace privhp

#endif  // PRIVHP_COMMON_SIMD_H_

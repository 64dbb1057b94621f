// Small bit-manipulation helpers used by domains, sketches and trees.

#ifndef PRIVHP_COMMON_BITS_H_
#define PRIVHP_COMMON_BITS_H_

#include <cstdint>

#include "common/macros.h"

namespace privhp {

/// \brief Number of leading zero bits in \p x; 64 when x == 0.
/// (C++17 stand-in for std::countl_zero.)
inline int CountLeadingZeros64(uint64_t x) {
  return x == 0 ? 64 : __builtin_clzll(x);
}

/// \brief Number of set bits in \p x. (C++17 stand-in for std::popcount.)
inline int PopCount64(uint64_t x) { return __builtin_popcountll(x); }

/// \brief floor(log2(x)); requires x >= 1.
inline int FloorLog2(uint64_t x) {
  PRIVHP_DCHECK(x >= 1);
  return 63 - CountLeadingZeros64(x);
}

/// \brief ceil(log2(x)); requires x >= 1. CeilLog2(1) == 0.
inline int CeilLog2(uint64_t x) {
  PRIVHP_DCHECK(x >= 1);
  return x == 1 ? 0 : 64 - CountLeadingZeros64(x - 1);
}

/// \brief Extracts bit \p i (0 = most significant of a width-\p width
/// prefix code) from \p code.
inline int PrefixBit(uint64_t code, int width, int i) {
  PRIVHP_DCHECK(i < width);
  return static_cast<int>((code >> (width - 1 - i)) & 1u);
}

}  // namespace privhp

#endif  // PRIVHP_COMMON_BITS_H_

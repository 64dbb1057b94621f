// Seeded hashing: the row hash every sketch uses, and the page checksum
// of the paged artifact format.
//
// Lemma 4 of the paper assumes fully random hash functions; its privacy
// guarantee does not (paper Section 3.3). The sketches hash with
// CompactHash, a seeded SplitMix64-finalizer mix in two words of state.

#ifndef PRIVHP_COMMON_HASH_H_
#define PRIVHP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/random.h"

namespace privhp {

/// \brief Two-word seeded hash: SplitMix64-finalizer mixing of
/// (key XOR seed) followed by an odd multiplier. Pairwise-independence
/// quality in 16 bytes of state — the row-hash the sketches use, keeping
/// the summary footprint counter-dominated (a tabulation table would cost
/// 16 KiB per row, swamping the O(k log^2 n) memory budget the paper
/// claims).
class CompactHash {
 public:
  explicit CompactHash(uint64_t seed);

  /// \brief 64-bit hash of \p key.
  uint64_t Hash(uint64_t key) const { return multiplier_ * Mix64(key ^ salt_); }

  /// \brief Hash reduced to a bucket in [0, range).
  uint64_t Bucket(uint64_t key, uint64_t range) const {
    return Hash(key) % range;
  }

  size_t MemoryBytes() const { return sizeof(*this); }

  /// \brief The two seed words, for simd::HashBuckets.
  uint64_t multiplier() const { return multiplier_; }
  uint64_t salt() const { return salt_; }

 private:
  uint64_t multiplier_;
  uint64_t salt_;
};

/// \brief Sign in {-1, +1} from an independent bit of a CompactHash.
inline int SignBit(const CompactHash& h, uint64_t key) {
  return (h.Hash(key ^ 0x5bf03635f0a5b1c5ULL) & 1u) ? 1 : -1;
}

/// \brief Checksum64's state before the first word of an \p n-byte
/// range: the length-seeded start shared with PageChecksums.
inline uint64_t Checksum64Init(size_t n) {
  return Mix64(0x70726976687031ULL ^ n);  // "privhp1" ^ length
}

/// \brief Checksum over a byte range: 8-byte words folded through the
/// SplitMix64 finalizer, length-seeded so zero padding of different
/// lengths cannot collide. Not cryptographic — it catches torn writes
/// and bit rot, not adversaries. The paged artifact format checksums its
/// pages with it (storage/page.h); PageChecksums computes it for many
/// equal-size pages at once.
inline uint64_t Checksum64(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = Checksum64Init(n);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = Mix64(h ^ w);
  }
  if (i < n) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h = Mix64(h ^ w ^ (static_cast<uint64_t>(n - i) << 56));
  }
  return h;
}

/// \brief Checksums of \p pages consecutive pages of \p page_size bytes
/// each (pack and open of a paged artifact): out[p] =
/// Checksum64(data + p * page_size, page_size).
///
/// One Checksum64 is a serial chain of SplitMix64 finalizers, bound by
/// multiply latency; pages are independent, so this runs eight pages'
/// chains interleaved. \p page_size must be a multiple of 8 (every
/// paged-format page size is); \p data needs no alignment.
void PageChecksums(const uint8_t* data, size_t page_size, size_t pages,
                   uint64_t* out);

}  // namespace privhp

#endif  // PRIVHP_COMMON_HASH_H_

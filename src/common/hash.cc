#include "common/hash.h"

#include <algorithm>

#include "common/macros.h"
#include "common/random.h"

namespace privhp {

TabulationHash::TabulationHash(uint64_t seed) {
  uint64_t state = Mix64(seed ^ 0x1f83d9abfb41bd6bULL);
  for (auto& table : tables_) {
    for (auto& word : table) word = SplitMix64(&state);
  }
}

uint64_t TabulationHash::Hash(uint64_t key) const {
  uint64_t h = 0;
  for (int byte = 0; byte < 8; ++byte) {
    h ^= tables_[byte][(key >> (byte * 8)) & 0xff];
  }
  return h;
}

MultiplyShiftHash::MultiplyShiftHash(uint64_t seed) {
  uint64_t state = Mix64(seed ^ 0x452821e638d01377ULL);
  a_ = SplitMix64(&state) | 1u;  // multiplier must be odd
  b_ = SplitMix64(&state);
}

uint64_t MultiplyShiftHash::BucketPow2(uint64_t key, int bits) const {
  if (bits == 0) return 0;
  return (a_ * key + b_) >> (64 - bits);
}

CompactHash::CompactHash(uint64_t seed) {
  uint64_t state = Mix64(seed ^ 0xbe5466cf34e90c6cULL);
  multiplier_ = SplitMix64(&state) | 1u;
  salt_ = SplitMix64(&state);
}

HashFamily::HashFamily(uint64_t seed, size_t count) {
  members_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    members_.emplace_back(Mix64(seed + 0x9e3779b97f4a7c15ULL * (i + 1)));
  }
}

size_t HashFamily::MemoryBytes() const {
  size_t total = 0;
  for (const auto& m : members_) total += m.MemoryBytes();
  return total;
}

void PageChecksums(const uint8_t* data, size_t page_size, size_t pages,
                   uint64_t* out) {
  PRIVHP_DCHECK(page_size % 8 == 0);
  constexpr size_t kChains = 8;
  const uint64_t init = Checksum64Init(page_size);
  for (size_t p = 0; p < pages; p += kChains) {
    const size_t lanes = std::min(kChains, pages - p);
    const uint8_t* base = data + p * page_size;
    uint64_t h[kChains];
    for (size_t c = 0; c < kChains; ++c) h[c] = init;
    if (lanes == kChains) {
      // Fixed trip count: the eight chains' multiplies overlap.
      for (size_t i = 0; i < page_size; i += 8) {
        for (size_t c = 0; c < kChains; ++c) {
          uint64_t w;
          std::memcpy(&w, base + c * page_size + i, 8);
          h[c] = Mix64(h[c] ^ w);
        }
      }
    } else {
      for (size_t i = 0; i < page_size; i += 8) {
        for (size_t c = 0; c < lanes; ++c) {
          uint64_t w;
          std::memcpy(&w, base + c * page_size + i, 8);
          h[c] = Mix64(h[c] ^ w);
        }
      }
    }
    std::copy(h, h + lanes, out + p);
  }
}

}  // namespace privhp

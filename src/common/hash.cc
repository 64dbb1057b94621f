#include "common/hash.h"

#include <algorithm>

#include "common/macros.h"
#include "common/random.h"

namespace privhp {

CompactHash::CompactHash(uint64_t seed) {
  uint64_t state = Mix64(seed ^ 0xbe5466cf34e90c6cULL);
  multiplier_ = SplitMix64(&state) | 1u;
  salt_ = SplitMix64(&state);
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

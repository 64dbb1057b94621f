#include "common/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace privhp {
namespace {

// The sign CountSketch multiplies each row's update by.
TEST(SignBitTest, RoughlyBalanced) {
  CompactHash h(13);
  int plus = 0;
  const int n = 10000;
  for (uint64_t k = 0; k < n; ++k) {
    const int s = SignBit(h, k);
    EXPECT_TRUE(s == 1 || s == -1);
    if (s == 1) ++plus;
  }
  EXPECT_NEAR(static_cast<double>(plus) / n, 0.5, 0.02);
}

// Each page's checksum is Checksum64 of that page, whatever the page
// size and page count: 1..33 pages hit every tail of the 8-chain
// interleave, and a sentinel past the end catches a store past the last
// page.
TEST(PageChecksumsTest, MatchChecksum64PerPage) {
  constexpr size_t kMaxPages = 33;
  const uint64_t kSentinel = 0x5e5e5e5e5e5e5e5eULL;
  RandomEngine rng(31);
  for (size_t page_size : {size_t{4096}, size_t{65536}, size_t{1} << 20}) {
    std::vector<uint64_t> words(kMaxPages * page_size / 8);
    for (uint64_t& w : words) w = rng.NextUint64();
    const uint8_t* data = reinterpret_cast<const uint8_t*>(words.data());
    for (size_t pages = 1; pages <= kMaxPages; ++pages) {
      std::vector<uint64_t> out(pages + 1, kSentinel);
      PageChecksums(data, page_size, pages, out.data());
      for (size_t p = 0; p < pages; ++p) {
        ASSERT_EQ(out[p], Checksum64(data + p * page_size, page_size))
            << "page_size " << page_size << ", pages " << pages
            << ", page " << p;
      }
      ASSERT_EQ(out[pages], kSentinel) << "pages " << pages;
    }
  }
}

// Pages need not start on an 8-byte boundary.
TEST(PageChecksumsTest, AcceptsUnalignedStart) {
  RandomEngine rng(32);
  const size_t page_size = 4096;
  const size_t pages = 19;
  std::vector<uint8_t> bytes(pages * page_size + 3);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  std::vector<uint64_t> out(pages);
  PageChecksums(bytes.data() + 3, page_size, pages, out.data());
  for (size_t p = 0; p < pages; ++p) {
    ASSERT_EQ(out[p], Checksum64(bytes.data() + 3 + p * page_size, page_size))
        << "page " << p;
  }
}

}  // namespace
}  // namespace privhp

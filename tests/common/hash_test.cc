#include "common/hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace privhp {
namespace {

TEST(TabulationHashTest, Deterministic) {
  TabulationHash h(42);
  TabulationHash h2(42);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_EQ(h.Hash(k), h2.Hash(k));
}

TEST(TabulationHashTest, SeedsDiffer) {
  TabulationHash a(1), b(2);
  int same = 0;
  for (uint64_t k = 0; k < 256; ++k) {
    if (a.Hash(k) == b.Hash(k)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(TabulationHashTest, BucketInRange) {
  TabulationHash h(7);
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_LT(h.Bucket(k, 37), 37u);
}

// Chi-square style uniformity: bucket occupancy of sequential keys should
// be near-uniform.
TEST(TabulationHashTest, BucketsNearUniform) {
  TabulationHash h(11);
  const uint64_t range = 64;
  const uint64_t n = 64000;
  std::vector<int> counts(range, 0);
  for (uint64_t k = 0; k < n; ++k) ++counts[h.Bucket(k, range)];
  const double expected = static_cast<double>(n) / range;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 63 degrees of freedom; mean 63, std ~ 11.2. 63 + 5*11.2 ~ 119.
  EXPECT_LT(chi2, 120.0);
}

TEST(SignBitTest, RoughlyBalanced) {
  TabulationHash h(13);
  int plus = 0;
  const int n = 10000;
  for (uint64_t k = 0; k < n; ++k) {
    const int s = SignBit(h, k);
    EXPECT_TRUE(s == 1 || s == -1);
    if (s == 1) ++plus;
  }
  EXPECT_NEAR(static_cast<double>(plus) / n, 0.5, 0.02);
}

TEST(MultiplyShiftTest, Pow2BucketsInRange) {
  MultiplyShiftHash h(17);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_LT(h.BucketPow2(k, 5), 32u);
  }
  EXPECT_EQ(h.BucketPow2(123, 0), 0u);
}

TEST(HashFamilyTest, MembersAreIndependentlySeeded) {
  HashFamily family(23, 4);
  ASSERT_EQ(family.size(), 4u);
  // Two members should disagree on most keys.
  int same = 0;
  for (uint64_t k = 0; k < 256; ++k) {
    if (family.at(0).Bucket(k, 1024) == family.at(1).Bucket(k, 1024)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(HashFamilyTest, SameSeedSameFamily) {
  HashFamily f1(99, 3), f2(99, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (uint64_t k = 0; k < 64; ++k) {
      EXPECT_EQ(f1.at(i).Hash(k), f2.at(i).Hash(k));
    }
  }
}

TEST(HashFamilyTest, MemoryAccounted) {
  HashFamily family(5, 3);
  EXPECT_EQ(family.MemoryBytes(), 3 * 8 * 256 * sizeof(uint64_t));
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

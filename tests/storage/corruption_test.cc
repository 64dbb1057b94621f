// Corruption injection: every mangled artifact must surface as a clean
// Status (IOError), never a crash, OOB read, or silent wrong answer.
// This suite runs under ASan/UBSan in CI, so an out-of-bounds walk of a
// truncated mapping fails loudly here.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/builder.h"
#include "core/generator.h"
#include "domain/interval_domain.h"
#include "io/file_util.h"
#include "io/point_sink.h"
#include "storage/artifact_packer.h"
#include "storage/paged_artifact.h"
#include "storage/paged_format.h"

namespace privhp {
namespace storage {
namespace {

constexpr uint32_t kPage = 4096;

// ctest runs each test of this binary as its own process, often in
// parallel, so scratch names must be per-process.
std::string TestPath(const std::string& leaf) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
         leaf;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// One packed artifact shared by every test case (packing builds a real
// generator, which is the expensive part).
class CorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto domain = std::make_unique<IntervalDomain>();
    PrivHPOptions options;
    options.expected_n = 2000;
    options.seed = 42;
    auto builder = PrivHPBuilder::Make(domain.get(), options);
    ASSERT_TRUE(builder.ok());
    RandomEngine rng(7);
    for (size_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(
          builder->Add({rng.UniformDouble() * rng.UniformDouble()}).ok());
    }
    auto generator = std::move(*builder).Finish();
    ASSERT_TRUE(generator.ok());
    packed_path_ = new std::string(TestPath("corruption_base.phx"));
    PackOptions pack;
    pack.page_size = kPage;
    ASSERT_TRUE(PackArtifact(generator->tree(), *packed_path_, pack).ok());
    pristine_ = new std::string(ReadAll(*packed_path_));
    ASSERT_GT(pristine_->size(), size_t{3} * kPage);
  }

  static void TearDownTestSuite() {
    std::remove(packed_path_->c_str());
    delete packed_path_;
    delete pristine_;
    packed_path_ = nullptr;
    pristine_ = nullptr;
  }

  // Writes a mangled copy and returns its path.
  std::string WriteVariant(const std::string& leaf,
                           const std::string& bytes) {
    const std::string path = TestPath(leaf);
    EXPECT_TRUE(WriteFileAtomic(path, bytes).ok());
    variants_.push_back(path);
    return path;
  }

  std::string Truncated(size_t keep) {
    return pristine_->substr(0, keep);
  }

  std::string BitFlipped(size_t offset) {
    std::string bytes = *pristine_;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    return bytes;
  }

  // Both read modes must reject the file at Open.
  void ExpectOpenFails(const std::string& path, const char* what) {
    for (const bool pooled : {false, true}) {
      PagedReadOptions options;
      options.use_buffer_pool = pooled;
      auto artifact = PagedArtifact::Open(path, options);
      EXPECT_FALSE(artifact.ok())
          << what << " (pooled=" << pooled << ")";
      if (!artifact.ok()) {
        EXPECT_TRUE(artifact.status().IsIOError())
            << what << ": " << artifact.status().message();
      }
    }
  }

  void TearDown() override {
    for (const std::string& path : variants_) std::remove(path.c_str());
    variants_.clear();
  }

  static std::string* packed_path_;
  static std::string* pristine_;
  std::vector<std::string> variants_;
};

std::string* CorruptionTest::packed_path_ = nullptr;
std::string* CorruptionTest::pristine_ = nullptr;

TEST_F(CorruptionTest, PristineFileOpensInBothModes) {
  for (const bool pooled : {false, true}) {
    PagedReadOptions options;
    options.use_buffer_pool = pooled;
    auto artifact = PagedArtifact::Open(*packed_path_, options);
    ASSERT_TRUE(artifact.ok()) << artifact.status().message();
    auto mass = (*artifact)->RangeMass({0, 0});
    ASSERT_TRUE(mass.ok());
    EXPECT_EQ(*mass, 1.0);
  }
}

TEST_F(CorruptionTest, MissingAndEmptyFiles) {
  EXPECT_FALSE(PagedArtifact::SniffPagedFile(TestPath("no_such.phx")));
  ExpectOpenFails(TestPath("no_such.phx"), "missing file");
  ExpectOpenFails(WriteVariant("empty.phx", ""), "empty file");
}

TEST_F(CorruptionTest, TruncationsFailCleanly) {
  // Shorter than the magic, shorter than a page, a torn final page, and
  // whole pages missing off the end.
  ExpectOpenFails(WriteVariant("trunc_8.phx", Truncated(8)), "8 bytes");
  ExpectOpenFails(WriteVariant("trunc_100.phx", Truncated(100)),
                  "100 bytes");
  ExpectOpenFails(WriteVariant("trunc_subpage.phx", Truncated(kPage - 1)),
                  "under one page");
  ExpectOpenFails(
      WriteVariant("trunc_headeronly.phx", Truncated(kPage)),
      "header page only");
  ExpectOpenFails(
      WriteVariant("trunc_torn.phx", Truncated(pristine_->size() - 1)),
      "torn final page");
  ExpectOpenFails(
      WriteVariant("trunc_page.phx", Truncated(pristine_->size() - kPage)),
      "missing final page");
}

TEST_F(CorruptionTest, ExtendedFileFailsCleanly) {
  ExpectOpenFails(
      WriteVariant("extended_1.phx", *pristine_ + std::string(1, '\0')),
      "one trailing byte");
  ExpectOpenFails(
      WriteVariant("extended_page.phx",
                   *pristine_ + std::string(kPage, '\0')),
      "one trailing page");
}

TEST_F(CorruptionTest, WrongMagicAndVersion) {
  std::string wrong_magic = *pristine_;
  wrong_magic[0] = 'P';
  ExpectOpenFails(WriteVariant("magic.phx", wrong_magic), "magic");

  // Version field lives after magic(16) + header checksum(8) + endian(4).
  ExpectOpenFails(WriteVariant("version.phx", BitFlipped(28)), "version");
  // Endian tag.
  ExpectOpenFails(WriteVariant("endian.phx", BitFlipped(24)), "endian");
}

TEST_F(CorruptionTest, HeaderBitFlipsFailTheHeaderChecksum) {
  // Flip one bit in several header fields; the header checksum (or the
  // canonical-layout cross-check) must catch each.
  for (const size_t offset : {size_t{33}, size_t{48}, size_t{80},
                              size_t{120}, size_t{216}}) {
    ExpectOpenFails(WriteVariant("hdr_" + std::to_string(offset) + ".phx",
                                 BitFlipped(offset)),
                    "header flip");
  }
  // Flipping the stored header checksum itself must also fail.
  ExpectOpenFails(WriteVariant("hdr_cksum.phx", BitFlipped(16)),
                  "header checksum flip");
}

TEST_F(CorruptionTest, ChecksumTableFlipFailsBothModes) {
  // The checksum table starts at page 1; its own checksum in the header
  // covers it, so both the eager (mmap) and lazy (pooled) paths reject
  // the file at Open.
  ExpectOpenFails(WriteVariant("table.phx", BitFlipped(kPage + 3)),
                  "checksum table flip");
}

TEST_F(CorruptionTest, DataPageFlipFailsEagerlyUnderMmap) {
  // Any data-page flip fails the eager sweep at Open in mmap mode.
  PagedReadOptions header_probe;
  auto pristine = PagedArtifact::Open(*packed_path_, header_probe);
  ASSERT_TRUE(pristine.ok());
  const uint64_t data_offset = (*pristine)->header().data_offset;

  const std::string first_flip =
      WriteVariant("data_first.phx", BitFlipped(data_offset + 100));
  const std::string last_flip = WriteVariant(
      "data_last.phx", BitFlipped(pristine_->size() - kPage + 50));
  for (const std::string& path : {first_flip, last_flip}) {
    auto artifact = PagedArtifact::Open(path);
    ASSERT_FALSE(artifact.ok()) << path;
    EXPECT_TRUE(artifact.status().IsIOError());
  }
}

TEST_F(CorruptionTest, TwoFlipsInOneChecksumPassNameTheLowerPage) {
  // Open checksums eight pages side by side per PageChecksums pass; with
  // two bad pages in one pass the error still names the lower one.
  PagedReadOptions header_probe;
  auto pristine = PagedArtifact::Open(*packed_path_, header_probe);
  ASSERT_TRUE(pristine.ok());
  const PagedHeader& h = (*pristine)->header();
  ASSERT_GE(h.data_pages(), 3u) << "tree too small for this test";
  const uint64_t low = 1;
  const uint64_t high = std::min<uint64_t>(h.data_pages() - 1, 6);
  std::string bytes = BitFlipped(h.data_offset + high * kPage + 40);
  bytes[h.data_offset + low * kPage + 9] ^= 0x01;
  const std::string path = WriteVariant("data_two.phx", bytes);
  auto artifact = PagedArtifact::Open(path);
  ASSERT_FALSE(artifact.ok());
  EXPECT_TRUE(artifact.status().IsIOError());
  EXPECT_NE(artifact.status().message().find(
                "data page " + std::to_string(low) + " failed"),
            std::string::npos)
      << artifact.status().message();
}

TEST_F(CorruptionTest, DataPageFlipSurfacesLazilyUnderPool) {
  // Pooled mode defers data-page verification to first touch: Open only
  // reads the root node's page, so a flip elsewhere opens fine and the
  // first query that pulls the bad page gets IOError.
  PagedReadOptions probe;
  auto pristine = PagedArtifact::Open(*packed_path_, probe);
  ASSERT_TRUE(pristine.ok());
  const PagedSection& nodes =
      (*pristine)->header().sections[kSectionNodes];
  const uint64_t nodes_bytes = nodes.num_elements * sizeof(PackedTreeNode);
  // Flip a byte in the *last* nodes page, which Open never touches.
  ASSERT_GT(nodes_bytes, uint64_t{kPage}) << "tree too small for this test";
  const size_t flip_offset =
      static_cast<size_t>(nodes.file_offset + nodes_bytes - 8);

  const std::string path =
      WriteVariant("data_lazy.phx", BitFlipped(flip_offset));
  PagedReadOptions options;
  options.use_buffer_pool = true;
  options.pool_bytes = 16u << 10;
  auto artifact = PagedArtifact::Open(path, options);
  ASSERT_TRUE(artifact.ok()) << artifact.status().message();

  // The root lives in an intact page: queries that stay there succeed.
  auto mass = (*artifact)->RangeMass({0, 0});
  ASSERT_TRUE(mass.ok());
  EXPECT_EQ(*mass, 1.0);

  // A full-tree walk must hit the flipped page and fail cleanly.
  std::ostringstream os;
  const Status exported = (*artifact)->ExportTo(&os);
  ASSERT_FALSE(exported.ok());
  EXPECT_TRUE(exported.IsIOError());
}

// Files packed at 64 KiB pages (the default before 4 KiB) still fail
// cleanly: a flipped data byte fails the mmap open and the pooled read
// that loads its page, and a lost last page fails both opens.
TEST_F(CorruptionTest, SixtyFourKiBPagesFailCleanly) {
  constexpr uint32_t kOldPage = 64u << 10;
  auto pristine = PagedArtifact::Open(*packed_path_);
  ASSERT_TRUE(pristine.ok());
  std::ostringstream tree;
  ASSERT_TRUE((*pristine)->ExportTo(&tree).ok());
  const std::string tree_path = WriteVariant("old_pages.tree", tree.str());
  const std::string packed = TestPath("old_pages.phx");
  variants_.push_back(packed);
  PackOptions pack;
  pack.page_size = kOldPage;
  ASSERT_TRUE(PackTreeFile(tree_path, packed, pack).ok());
  const std::string bytes = ReadAll(packed);
  auto old = PagedArtifact::Open(packed);
  ASSERT_TRUE(old.ok()) << old.status().message();
  ASSERT_EQ((*old)->header().page_size, kOldPage);

  // The cells section starts on its own page; Open never reads it.
  std::string flipped = bytes;
  const size_t cell_byte = static_cast<size_t>(
      (*old)->header().sections[kSectionCells].file_offset + 8);
  flipped[cell_byte] = static_cast<char>(flipped[cell_byte] ^ 0x40);
  const std::string flipped_path = WriteVariant("old_flip.phx", flipped);
  EXPECT_FALSE(PagedArtifact::Open(flipped_path).ok());
  PagedReadOptions pooled;
  pooled.use_buffer_pool = true;
  auto lazy = PagedArtifact::Open(flipped_path, pooled);
  ASSERT_TRUE(lazy.ok()) << lazy.status().message();
  RandomEngine rng(3);
  CollectingSink sink;
  const Status sampled = (*lazy)->GenerateTo(1000, &rng, &sink);
  ASSERT_FALSE(sampled.ok());
  EXPECT_TRUE(sampled.IsIOError()) << sampled.message();

  ExpectOpenFails(
      WriteVariant("old_truncated.phx", bytes.substr(0, bytes.size() -
                                                            kOldPage)),
      "64 KiB file missing its last page");
}

TEST_F(CorruptionTest, SectionGeometryTamperingIsRejected) {
  // Rewriting the node count (and nothing else) breaks either the header
  // checksum or — if an attacker fixed that up — the canonical-layout
  // cross-check. Here we only flip the count; the checksum catches it.
  ExpectOpenFails(WriteVariant("nodes_field.phx", BitFlipped(49)),
                  "num_nodes flip");
  // Section table entry (first section's offset).
  ExpectOpenFails(WriteVariant("section_field.phx", BitFlipped(121)),
                  "section offset flip");
}

}  // namespace
}  // namespace storage
}  // namespace privhp

// Format-level tests (layout, header round-trip) plus end-to-end
// pack → open bit-identity against the heap serving path, in both mmap
// and buffer-pool read modes.

#include "storage/paged_format.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "core/builder.h"
#include "core/generator.h"
#include "core/queries.h"
#include "domain/hypercube_domain.h"
#include "domain/interval_domain.h"
#include "hierarchy/tree_serialization.h"
#include "io/point_sink.h"
#include "storage/artifact_packer.h"
#include "storage/paged_artifact.h"

namespace privhp {
namespace storage {
namespace {

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

// A real released generator over IntervalDomain — the same build idiom
// the service tests use. The domain must outlive the generator.
struct BuiltArtifact {
  std::unique_ptr<IntervalDomain> domain;
  std::unique_ptr<PrivHPGenerator> generator;
};

BuiltArtifact BuildArtifact(size_t n, uint64_t data_seed) {
  BuiltArtifact out;
  out.domain = std::make_unique<IntervalDomain>();
  PrivHPOptions options;
  options.expected_n = n;
  options.seed = 42;
  auto builder = PrivHPBuilder::Make(out.domain.get(), options);
  EXPECT_TRUE(builder.ok());
  RandomEngine rng(data_seed);
  for (size_t i = 0; i < n; ++i) {
    // Mild skew so the tree is not trivial.
    Point p{rng.UniformDouble() * rng.UniformDouble()};
    EXPECT_TRUE(builder->Add(p).ok());
  }
  auto generator = std::move(*builder).Finish();
  EXPECT_TRUE(generator.ok());
  out.generator =
      std::make_unique<PrivHPGenerator>(std::move(*generator));
  return out;
}

// ---------------------------------------------------------------------
// ComputeLayout / header page
// ---------------------------------------------------------------------

TEST(ComputeLayoutTest, RejectsBadShapes) {
  const std::string name = "interval[0,1]";
  // Page size must be a power of two in [4 KiB, 1 MiB].
  EXPECT_FALSE(ComputeLayout(1000, 1, 8, 8, true, 1.0, name).ok());
  EXPECT_FALSE(ComputeLayout(2048, 1, 8, 8, true, 1.0, name).ok());
  EXPECT_FALSE(ComputeLayout(2u << 20, 1, 8, 8, true, 1.0, name).ok());
  // Dimension in [1, kMaxPagedDimension].
  EXPECT_FALSE(ComputeLayout(4096, 0, 8, 8, true, 1.0, name).ok());
  EXPECT_FALSE(
      ComputeLayout(4096, kMaxPagedDimension + 1, 8, 8, true, 1.0, name)
          .ok());
  // At least one node and one slot.
  EXPECT_FALSE(ComputeLayout(4096, 1, 0, 8, true, 1.0, name).ok());
  EXPECT_FALSE(ComputeLayout(4096, 1, 8, 0, true, 1.0, name).ok());
  // Domain name must be non-empty and fit the header page.
  EXPECT_FALSE(ComputeLayout(4096, 1, 8, 8, true, 1.0, "").ok());
  EXPECT_FALSE(ComputeLayout(4096, 1, 8, 8, true, 1.0,
                             std::string(kMaxDomainNameBytes + 1, 'x'))
                   .ok());
  // Mass must be finite and non-negative.
  EXPECT_FALSE(ComputeLayout(4096, 1, 8, 8, true,
                             std::numeric_limits<double>::quiet_NaN(), name)
                   .ok());
  EXPECT_FALSE(ComputeLayout(4096, 1, 8, 8, true, -1.0, name).ok());
}

TEST(ComputeLayoutTest, SectionsArePageAlignedAndOrdered) {
  auto layout = ComputeLayout(4096, 2, 1000, 512, true, 123.5,
                              "hypercube[0,1]^2");
  ASSERT_TRUE(layout.ok());
  const PagedHeader& h = *layout;
  EXPECT_EQ(h.page_size, 4096u);
  EXPECT_EQ(h.num_nodes, 1000u);
  EXPECT_EQ(h.num_slots, 512u);
  uint64_t prev_end = h.data_offset;
  for (int s = 0; s < kNumSections; ++s) {
    ASSERT_GT(h.sections[s].num_elements, 0u) << "section " << s;
    EXPECT_EQ(h.sections[s].file_offset % h.page_size, 0u);
    EXPECT_EQ(h.sections[s].file_offset, prev_end);
    const uint64_t bytes =
        h.sections[s].num_elements * kSectionElemSize[s];
    prev_end += (bytes + h.page_size - 1) / h.page_size * h.page_size;
  }
  EXPECT_EQ(prev_end, h.file_bytes());
  EXPECT_EQ(h.data_pages(),
            (h.file_bytes() - h.data_offset) / h.page_size);
}

TEST(ComputeLayoutTest, NoBoundsOmitsSlotSections) {
  auto layout = ComputeLayout(4096, 1, 10, 8, false, 1.0, "ipv4");
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->sections[kSectionSlotLo].num_elements, 0u);
  EXPECT_EQ(layout->sections[kSectionSlotExt].num_elements, 0u);
  EXPECT_EQ(layout->sections[kSectionSlotLo].file_offset, 0u);
}

TEST(PagedHeaderTest, EncodeParseRoundTrip) {
  auto layout =
      ComputeLayout(4096, 3, 777, 333, true, 42.25, "hypercube[0,1]^3");
  ASSERT_TRUE(layout.ok());
  // Parse requires the file-size cross-check to hold.
  const std::string page = EncodeHeaderPage(*layout);
  ASSERT_EQ(page.size(), 4096u);
  auto parsed =
      ParseHeaderPage(reinterpret_cast<const uint8_t*>(page.data()),
                      page.size(), layout->file_bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->page_size, layout->page_size);
  EXPECT_EQ(parsed->dimension, layout->dimension);
  EXPECT_EQ(parsed->num_pages, layout->num_pages);
  EXPECT_EQ(parsed->num_nodes, layout->num_nodes);
  EXPECT_EQ(parsed->num_slots, layout->num_slots);
  EXPECT_EQ(parsed->has_bounds, layout->has_bounds);
  EXPECT_EQ(parsed->total_mass, layout->total_mass);
  EXPECT_EQ(parsed->domain_name, layout->domain_name);
  EXPECT_EQ(parsed->data_offset, layout->data_offset);
  for (int s = 0; s < kNumSections; ++s) {
    EXPECT_EQ(parsed->sections[s].file_offset,
              layout->sections[s].file_offset);
    EXPECT_EQ(parsed->sections[s].num_elements,
              layout->sections[s].num_elements);
  }
}

TEST(PagedHeaderTest, ParseRejectsWrongFileSize) {
  auto layout = ComputeLayout(4096, 1, 10, 8, true, 1.0, "interval[0,1]");
  ASSERT_TRUE(layout.ok());
  const std::string page = EncodeHeaderPage(*layout);
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(page.data());
  EXPECT_FALSE(
      ParseHeaderPage(bytes, page.size(), layout->file_bytes() - 4096).ok());
  EXPECT_FALSE(
      ParseHeaderPage(bytes, page.size(), layout->file_bytes() + 4096).ok());
}

TEST(PagedHeaderTest, MagicSniffing) {
  EXPECT_TRUE(HasPagedMagic(
      reinterpret_cast<const uint8_t*>("privhp-paged-v1\0xxxx"), 20));
  EXPECT_FALSE(HasPagedMagic(
      reinterpret_cast<const uint8_t*>("privhp-tree-v2\n"), 15));
  EXPECT_FALSE(HasPagedMagic(
      reinterpret_cast<const uint8_t*>("privhp-paged-v1"), 8));
}

// ---------------------------------------------------------------------
// Pack → open, bit-identity with the heap path
// ---------------------------------------------------------------------

class PackedArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    built_ = BuildArtifact(4000, 7);
    ASSERT_NE(built_.generator, nullptr);
    path_ = TestPath("paged_identity.phx");
    PackOptions options;
    options.page_size = 4096;  // small pages exercise many checksums
    ASSERT_TRUE(
        PackArtifact(built_.generator->tree(), path_, options).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<const PagedArtifact> OpenMode(bool pooled,
                                                size_t pool_bytes = 64u
                                                                    << 10) {
    PagedReadOptions options;
    options.use_buffer_pool = pooled;
    options.pool_bytes = pool_bytes;
    auto artifact = PagedArtifact::Open(path_, options);
    EXPECT_TRUE(artifact.ok()) << artifact.status().message();
    return artifact.ok() ? std::move(*artifact) : nullptr;
  }

  BuiltArtifact built_;
  std::string path_;
};

TEST_F(PackedArtifactTest, SniffsAsPagedAndSized) {
  EXPECT_TRUE(PagedArtifact::SniffPagedFile(path_));

  const std::string tree_path = TestPath("sniff_v2.tree");
  ASSERT_TRUE(SaveTreeToFile(built_.generator->tree(), tree_path).ok());
  EXPECT_FALSE(PagedArtifact::SniffPagedFile(tree_path));
  std::remove(tree_path.c_str());

  auto artifact = OpenMode(/*pooled=*/false);
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(ReadAll(path_).size(), artifact->header().file_bytes());
  EXPECT_EQ(artifact->num_nodes(),
            static_cast<uint64_t>(built_.generator->tree().num_nodes()));
  EXPECT_EQ(artifact->TotalMass(), built_.generator->TotalMass());
}

TEST_F(PackedArtifactTest, RangeMassMatchesHeapBitForBit) {
  const PartitionTree& tree = built_.generator->tree();
  for (const bool pooled : {false, true}) {
    auto artifact = OpenMode(pooled);
    ASSERT_NE(artifact, nullptr);
    EXPECT_EQ(artifact->pooled(), pooled);
    for (int level = 0; level <= 6; ++level) {
      for (uint64_t index = 0; index < (uint64_t{1} << level); ++index) {
        const CellId cell{level, index};
        auto mass = artifact->RangeMass(cell);
        ASSERT_TRUE(mass.ok());
        EXPECT_EQ(*mass, CellMassFraction(tree, cell))
            << "pooled=" << pooled << " level=" << level
            << " index=" << index;
      }
    }
  }
}

TEST_F(PackedArtifactTest, QuantilesAndHeavyMatchHeapBitForBit) {
  const PartitionTree& tree = built_.generator->tree();
  const std::vector<double> qs = {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99};
  auto heap_q = TreeQuantiles(tree, qs);
  ASSERT_TRUE(heap_q.ok());
  auto heap_h = HierarchicalHeavyHitters(tree, 0.02);
  ASSERT_TRUE(heap_h.ok());
  for (const bool pooled : {false, true}) {
    auto artifact = OpenMode(pooled);
    ASSERT_NE(artifact, nullptr);
    auto q = artifact->Quantiles(qs);
    ASSERT_TRUE(q.ok());
    ASSERT_EQ(q->size(), heap_q->size());
    for (size_t i = 0; i < q->size(); ++i) {
      EXPECT_EQ((*q)[i], (*heap_q)[i]) << "pooled=" << pooled;
    }
    auto h = artifact->Heavy(0.02);
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(h->size(), heap_h->size());
    for (size_t i = 0; i < h->size(); ++i) {
      EXPECT_EQ((*h)[i].cell, (*heap_h)[i].cell);
      EXPECT_EQ((*h)[i].fraction, (*heap_h)[i].fraction);
    }
  }
}

TEST_F(PackedArtifactTest, ExportMatchesSaveTreeByteForByte) {
  std::ostringstream heap_os;
  ASSERT_TRUE(SaveTree(built_.generator->tree(), &heap_os).ok());
  const std::string heap_bytes = heap_os.str();
  for (const bool pooled : {false, true}) {
    auto artifact = OpenMode(pooled);
    ASSERT_NE(artifact, nullptr);
    std::ostringstream os;
    ASSERT_TRUE(artifact->ExportTo(&os).ok());
    EXPECT_EQ(os.str(), heap_bytes) << "pooled=" << pooled;
  }
}

TEST_F(PackedArtifactTest, SeededSamplingIsIdenticalAcrossModes) {
  constexpr size_t kM = 3000;
  constexpr uint64_t kSeed = 1234;

  RandomEngine heap_rng(kSeed);
  CollectingSink heap_sink;
  ASSERT_TRUE(
      built_.generator->GenerateTo(kM, &heap_rng, &heap_sink).ok());
  const std::vector<Point> expected = heap_sink.TakePoints();
  ASSERT_EQ(expected.size(), kM);

  for (const bool pooled : {false, true}) {
    auto artifact = OpenMode(pooled);
    ASSERT_NE(artifact, nullptr);
    RandomEngine rng(kSeed);
    CollectingSink sink;
    ASSERT_TRUE(artifact->GenerateTo(kM, &rng, &sink).ok());
    const std::vector<Point> got = sink.TakePoints();
    ASSERT_EQ(got.size(), kM) << "pooled=" << pooled;
    for (size_t i = 0; i < kM; ++i) {
      ASSERT_EQ(got[i], expected[i])
          << "pooled=" << pooled << " point " << i;
    }
  }
}

TEST_F(PackedArtifactTest, PooledModeBoundsResidentMemory) {
  const uint64_t file_bytes = ReadAll(path_).size();
  auto artifact = OpenMode(/*pooled=*/true, /*pool_bytes=*/16u << 10);
  ASSERT_NE(artifact, nullptr);
  ASSERT_TRUE(artifact->pooled());
  // Touch every part of the artifact.
  RandomEngine rng(5);
  CollectingSink sink;
  ASSERT_TRUE(artifact->GenerateTo(2000, &rng, &sink).ok());
  ASSERT_TRUE(artifact->Quantiles({0.1, 0.5, 0.9}).ok());
  // Resident memory stays near the pool size, far below the file.
  EXPECT_LT(artifact->ResidentBytes(), file_bytes);
  ASSERT_NE(artifact->pool(), nullptr);
  EXPECT_GT(artifact->pool()->stats().evictions, 0u)
      << "pool too large to exercise eviction";
}

// A pooled reader holds one pin at a time and drops it before it
// fetches (buffer_pool.h), so a two-frame pool serves two concurrent
// walkers. A walk that fetched while still pinning its last page would
// need a third frame and fail here with FailedPrecondition.
TEST_F(PackedArtifactTest, TwoReadersShareATwoFramePool) {
  auto mmapped = OpenMode(/*pooled=*/false);
  auto pooled = OpenMode(/*pooled=*/true, /*pool_bytes=*/1);
  ASSERT_NE(mmapped, nullptr);
  ASSERT_NE(pooled, nullptr);
  ASSERT_EQ(pooled->pool()->num_frames(), 2u);
  const std::vector<double> qs = {0.05, 0.5, 0.95};
  auto q_ref = mmapped->Quantiles(qs);
  auto h_ref = mmapped->Heavy(0.02);
  std::ostringstream export_ref;
  ASSERT_TRUE(q_ref.ok() && h_ref.ok());
  ASSERT_TRUE(mmapped->ExportTo(&export_ref).ok());

  Mutex mu;
  std::vector<std::string> failures;
  const auto reader = [&]() {
    for (int round = 0; round < 30; ++round) {
      auto q = pooled->Quantiles(qs);
      auto h = pooled->Heavy(0.02);
      std::ostringstream os;
      const Status exported = pooled->ExportTo(&os);
      std::string failure;
      if (!q.ok()) failure = "QUANTILE: " + q.status().ToString();
      if (!h.ok()) failure = "HEAVY: " + h.status().ToString();
      if (!exported.ok()) failure = "EXPORT: " + exported.ToString();
      if (failure.empty() && (*q != *q_ref || h->size() != h_ref->size() ||
                              os.str() != export_ref.str())) {
        failure = "answer differs from mmap";
      }
      for (size_t i = 0; failure.empty() && i < h->size(); ++i) {
        if ((*h)[i].cell != (*h_ref)[i].cell ||
            (*h)[i].fraction != (*h_ref)[i].fraction) {
          failure = "HEAVY cell differs from mmap";
        }
      }
      if (!failure.empty()) {
        MutexLock lock(mu);
        failures.push_back(failure);
        return;
      }
    }
  };
  std::thread a(reader);
  std::thread b(reader);
  a.join();
  b.join();
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_GT(pooled->pool()->stats().evictions, 0u);
}

// Counts the node reads a query template makes over the heap tree.
class CountingTree {
 public:
  explicit CountingTree(const PartitionTree& tree) : tree_(tree) {}
  NodeId root() const { return tree_.root(); }
  size_t num_nodes() const { return tree_.num_nodes(); }
  const Domain* domain() const { return tree_.domain(); }
  TreeNode node(NodeId id) const {
    ++reads_;
    return tree_.node(id);
  }
  size_t reads() const { return reads_; }

 private:
  const PartitionTree& tree_;
  mutable size_t reads_ = 0;
};

// A pooled walk reads consecutive nodes from the page it still pins, so
// one QUANTILE costs fewer pool fetches (hits + misses) than node reads.
TEST_F(PackedArtifactTest, PooledQuantileFetchesFewerPagesThanNodes) {
  CountingTree counting(built_.generator->tree());
  auto heap = TreeQuantilesOver(counting, {0.3});
  ASSERT_TRUE(heap.ok());
  auto pooled = OpenMode(/*pooled=*/true);
  ASSERT_NE(pooled, nullptr);
  const BufferPool::Stats before = pooled->pool()->stats();
  auto q = pooled->Quantiles({0.3});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, *heap);
  const BufferPool::Stats after = pooled->pool()->stats();
  const uint64_t fetches =
      after.hits + after.misses - before.hits - before.misses;
  EXPECT_GT(fetches, 0u);
  EXPECT_LT(fetches, counting.reads());
}

TEST_F(PackedArtifactTest, PackingIsDeterministic) {
  const std::string other = TestPath("paged_identity_again.phx");
  PackOptions options;
  options.page_size = 4096;
  ASSERT_TRUE(
      PackArtifact(built_.generator->tree(), other, options).ok());
  EXPECT_EQ(ReadAll(other), ReadAll(path_));
  std::remove(other.c_str());
}

TEST_F(PackedArtifactTest, PackTreeFileRoundTrip) {
  const std::string tree_path = TestPath("roundtrip.tree");
  const std::string packed_path = TestPath("roundtrip.phx");
  ASSERT_TRUE(SaveTreeToFile(built_.generator->tree(), tree_path).ok());
  PackOptions options;
  options.page_size = 4096;
  ASSERT_TRUE(PackTreeFile(tree_path, packed_path, options).ok());
  // The packed result must be identical to packing the live tree.
  EXPECT_EQ(ReadAll(packed_path), ReadAll(path_));
  // Packing a paged file as if it were a v2 tree must fail cleanly.
  EXPECT_FALSE(PackTreeFile(packed_path, TestPath("nope.phx")).ok());
  std::remove(tree_path.c_str());
  std::remove(packed_path.c_str());
}

// ---------------------------------------------------------------------
// The nodes section is the node arena
// ---------------------------------------------------------------------

// The nodes section as the format defines it, built without relying on
// TreeNode's layout: one PackedTreeNode per node in id order, each
// field copied by name, pads zero, then zero-filled to a whole page.
std::string EncodeNodeSection(const PartitionTree& tree, uint32_t page_size) {
  const size_t bytes = tree.num_nodes() * sizeof(PackedTreeNode);
  std::string out((bytes + page_size - 1) / page_size * page_size, '\0');
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& n = tree.node(static_cast<NodeId>(i));
    PackedTreeNode rec;
    rec.level = n.cell.level;
    rec.pad0 = 0;
    rec.index = n.cell.index;
    rec.count = n.count;
    rec.left = n.left;
    rec.right = n.right;
    std::memcpy(&out[i * sizeof(rec)], &rec, sizeof(rec));
  }
  return out;
}

// Packs \p tree at 4 KiB pages and returns the file's nodes section,
// whole pages (the padding of the last one included).
std::string PackedNodeSection(const PartitionTree& tree,
                              const std::string& path) {
  PackOptions options;
  options.page_size = 4096;
  EXPECT_TRUE(PackArtifact(tree, path, options).ok());
  const std::string file = ReadAll(path);
  std::remove(path.c_str());
  auto header = ParseHeaderPage(reinterpret_cast<const uint8_t*>(file.data()),
                                file.size(), file.size());
  EXPECT_TRUE(header.ok()) << header.status().message();
  if (!header.ok()) return "";
  const PagedSection& nodes = header->sections[kSectionNodes];
  EXPECT_EQ(nodes.num_elements, tree.num_nodes());
  const uint64_t pages =
      (nodes.num_elements * sizeof(PackedTreeNode) + 4095) / 4096;
  return file.substr(nodes.file_offset, pages * 4096);
}

TEST(NodeSectionTest, OneDimensionalTreeMatchesFieldByFieldEncoding) {
  BuiltArtifact built = BuildArtifact(3000, 11);
  ASSERT_NE(built.generator, nullptr);
  const PartitionTree& tree = built.generator->tree();
  EXPECT_EQ(PackedNodeSection(tree, TestPath("nodes_1d.phx")),
            EncodeNodeSection(tree, 4096));
}

TEST(NodeSectionTest, TwoDimensionalTreeMatchesFieldByFieldEncoding) {
  HypercubeDomain domain(2);
  PrivHPOptions options;
  options.expected_n = 3000;
  options.seed = 5;
  auto builder = PrivHPBuilder::Make(&domain, options);
  ASSERT_TRUE(builder.ok());
  RandomEngine rng(21);
  for (int i = 0; i < 3000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_TRUE(builder->Add(Point{u * u, rng.UniformDouble()}).ok());
  }
  auto generator = std::move(*builder).Finish();
  ASSERT_TRUE(generator.ok());
  const PartitionTree& tree = generator->tree();
  ASSERT_GT(tree.MaxDepth(), 1);
  EXPECT_EQ(PackedNodeSection(tree, TestPath("nodes_2d.phx")),
            EncodeNodeSection(tree, 4096));

  // A tree rebuilt by the loader (LoadSelfDescribedTree replays
  // AddChildren) packs to the same section as the live tree.
  const std::string tree_path = TestPath("nodes_2d.tree");
  ASSERT_TRUE(SaveTreeToFile(tree, tree_path).ok());
  auto loaded = LoadSelfDescribedTree(tree_path);
  std::remove(tree_path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const std::string reloaded =
      PackedNodeSection(loaded->tree, TestPath("nodes_2d_reloaded.phx"));
  EXPECT_EQ(reloaded, EncodeNodeSection(loaded->tree, 4096));
  EXPECT_EQ(reloaded, EncodeNodeSection(tree, 4096));
}

TEST(PackArtifactTest, DefaultPageSizeWorks) {
  BuiltArtifact built = BuildArtifact(500, 3);
  ASSERT_NE(built.generator, nullptr);
  const std::string path = TestPath("paged_default_pages.phx");
  ASSERT_TRUE(PackArtifact(built.generator->tree(), path).ok());
  auto artifact = PagedArtifact::Open(path);
  ASSERT_TRUE(artifact.ok()) << artifact.status().message();
  EXPECT_EQ((*artifact)->header().page_size, kDefaultPageSize);
  auto mass = (*artifact)->RangeMass({0, 0});
  ASSERT_TRUE(mass.ok());
  EXPECT_EQ(*mass, 1.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace privhp

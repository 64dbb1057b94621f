// Registry-level behaviour of paged artifacts: format sniffing in
// FromFile / LoadFile, the memory budget picking buffer-pool mode, and
// query identity across the heap / mmap / pooled representations behind
// the ServedArtifact surface.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/builder.h"
#include "core/generator.h"
#include "domain/interval_domain.h"
#include "hierarchy/tree_serialization.h"
#include "io/point_sink.h"
#include "service/artifact_registry.h"
#include "storage/artifact_packer.h"
#include "storage/file_io.h"

namespace privhp {
namespace {

// ctest runs each test of this binary as its own process, often in
// parallel, so scratch names must be per-process.
std::string TestPath(const std::string& leaf) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
         leaf;
}

class RegistryPagedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    domain_ = std::make_unique<IntervalDomain>();
    PrivHPOptions options;
    options.expected_n = kN;
    options.seed = 42;
    auto builder = PrivHPBuilder::Make(domain_.get(), options);
    ASSERT_TRUE(builder.ok());
    RandomEngine rng(7);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(
          builder->Add({rng.UniformDouble() * rng.UniformDouble()}).ok());
    }
    auto generator = std::move(*builder).Finish();
    ASSERT_TRUE(generator.ok());
    generator_ =
        std::make_unique<PrivHPGenerator>(std::move(*generator));

    tree_path_ = TestPath("registry.tree");
    packed_path_ = TestPath("registry.phx");
    ASSERT_TRUE(SaveTreeToFile(generator_->tree(), tree_path_).ok());
    storage::PackOptions pack;
    pack.page_size = 4096;
    ASSERT_TRUE(
        storage::PackArtifact(generator_->tree(), packed_path_, pack).ok());
  }

  void TearDown() override {
    std::remove(tree_path_.c_str());
    std::remove(packed_path_.c_str());
  }

  static constexpr size_t kN = 3000;
  std::unique_ptr<IntervalDomain> domain_;
  std::unique_ptr<PrivHPGenerator> generator_;
  std::string tree_path_;
  std::string packed_path_;
};

TEST_F(RegistryPagedTest, FromFileSniffsTheFormat) {
  auto paged = ServedArtifact::FromFile(packed_path_);
  ASSERT_TRUE(paged.ok()) << paged.status().message();
  EXPECT_TRUE((*paged)->is_paged());
  EXPECT_EQ((*paged)->source(), "paged-mmap:" + packed_path_);

  auto heap = ServedArtifact::FromFile(tree_path_);
  ASSERT_TRUE(heap.ok()) << heap.status().message();
  EXPECT_FALSE((*heap)->is_paged());
}

TEST_F(RegistryPagedTest, NoBudgetLoadsPagedFilesMmapped) {
  ArtifactRegistry registry;  // memory_budget_bytes = 0: unlimited
  ASSERT_TRUE(registry.LoadFile("alpha", packed_path_).ok());
  auto artifact = registry.Get("alpha");
  ASSERT_TRUE(artifact.ok());
  ASSERT_TRUE((*artifact)->is_paged());
  EXPECT_FALSE((*artifact)->paged()->pooled());
}

TEST_F(RegistryPagedTest, TightBudgetForcesBufferPool) {
  auto file_size = storage::FileSize(packed_path_);
  ASSERT_TRUE(file_size.ok());

  RegistryOptions options;
  options.memory_budget_bytes = static_cast<size_t>(*file_size / 2);
  options.pool_bytes_per_artifact = 32u << 10;
  ArtifactRegistry registry(options);
  ASSERT_TRUE(registry.LoadFile("alpha", packed_path_).ok());

  auto artifact = registry.Get("alpha");
  ASSERT_TRUE(artifact.ok());
  ASSERT_TRUE((*artifact)->is_paged());
  EXPECT_TRUE((*artifact)->paged()->pooled());
  EXPECT_EQ((*artifact)->source(), "paged-pool:" + packed_path_);
  // Resident memory reflects the pool, not the file.
  EXPECT_LT(registry.resident_bytes(), static_cast<size_t>(*file_size));
}

// A heap artifact's alias table counts against the budget from load,
// before any SAMPLE compiles it: a paged file that fits beside the tree
// alone, but not beside tree and table, is pooled.
TEST_F(RegistryPagedTest, HeapTableCountsAgainstBudgetBeforeFirstSample) {
  auto file_size = storage::FileSize(packed_path_);
  ASSERT_TRUE(file_size.ok());
  const size_t table_bytes =
      CompiledSampler::MemoryBytesBound(generator_->tree());
  RegistryOptions options;
  options.memory_budget_bytes = generator_->MemoryBytes() +
                                static_cast<size_t>(*file_size) +
                                table_bytes / 2;
  options.pool_bytes_per_artifact = 32u << 10;
  ArtifactRegistry registry(options);
  ASSERT_TRUE(registry.LoadFile("heap", tree_path_).ok());
  auto heap = registry.Get("heap");
  ASSERT_TRUE(heap.ok());
  ASSERT_FALSE((*heap)->is_paged());
  EXPECT_FALSE((*heap)->generator().sampler_compiled());
  EXPECT_EQ(registry.resident_bytes(),
            generator_->MemoryBytes() + table_bytes);

  ASSERT_TRUE(registry.LoadFile("paged", packed_path_).ok());
  auto paged = registry.Get("paged");
  ASSERT_TRUE(paged.ok());
  ASSERT_TRUE((*paged)->is_paged());
  EXPECT_TRUE((*paged)->paged()->pooled());
}

TEST_F(RegistryPagedTest, GenerousBudgetStillMmaps) {
  auto file_size = storage::FileSize(packed_path_);
  ASSERT_TRUE(file_size.ok());
  RegistryOptions options;
  options.memory_budget_bytes = static_cast<size_t>(*file_size) * 10;
  ArtifactRegistry registry(options);
  ASSERT_TRUE(registry.LoadFile("alpha", packed_path_).ok());
  auto artifact = registry.Get("alpha");
  ASSERT_TRUE(artifact.ok());
  EXPECT_FALSE((*artifact)->paged()->pooled());
}

TEST_F(RegistryPagedTest, AllRepresentationsAnswerIdentically) {
  // heap (from the v2 file), then mmap and pooled at each page size:
  // the default, and 64 KiB, the default of files packed before 4 KiB
  // became it. One query surface.
  auto heap = ServedArtifact::FromFile(tree_path_);
  ASSERT_TRUE(heap.ok());
  std::vector<std::shared_ptr<const ServedArtifact>> reps = {*heap};
  const std::string paths[] = {TestPath("registry_default.phx"),
                               TestPath("registry_64k.phx")};
  const uint32_t page_sizes[] = {storage::kDefaultPageSize, 64u << 10};
  for (int i = 0; i < 2; ++i) {
    storage::PackOptions pack;
    if (i == 1) pack.page_size = page_sizes[1];
    ASSERT_TRUE(
        storage::PackArtifact(generator_->tree(), paths[i], pack).ok());
    auto mmapped = ServedArtifact::FromFile(paths[i]);
    ASSERT_TRUE(mmapped.ok());
    storage::PagedReadOptions pooled_options;
    pooled_options.use_buffer_pool = true;
    pooled_options.pool_bytes = 32u << 10;
    auto pooled = ServedArtifact::FromPagedFile(paths[i], pooled_options);
    ASSERT_TRUE(pooled.ok());
    std::remove(paths[i].c_str());  // both stay open on the unlinked file
    EXPECT_EQ((*mmapped)->paged()->header().page_size, page_sizes[i]);
    EXPECT_EQ((*pooled)->paged()->header().page_size, page_sizes[i]);
    ASSERT_TRUE((*pooled)->paged()->pooled());
    reps.push_back(*mmapped);
    reps.push_back(*pooled);
  }
  EXPECT_EQ(storage::kDefaultPageSize, 4096u);

  auto blob0 = reps[0]->ExportBlob();
  ASSERT_TRUE(blob0.ok());
  auto q0 = reps[0]->Quantiles({0.1, 0.5, 0.9});
  ASSERT_TRUE(q0.ok());
  auto h0 = reps[0]->Heavy(0.05);
  ASSERT_TRUE(h0.ok());
  auto r0 = reps[0]->RangeMass({3, 2});
  ASSERT_TRUE(r0.ok());
  RandomEngine rng0(99);
  CollectingSink sink0;
  ASSERT_TRUE(reps[0]->GenerateTo(500, &rng0, &sink0).ok());
  const std::vector<Point> points0 = sink0.TakePoints();

  for (size_t i = 1; i < reps.size(); ++i) {
    EXPECT_EQ(reps[i]->num_nodes(), reps[0]->num_nodes());
    EXPECT_EQ(reps[i]->TotalMass(), reps[0]->TotalMass());
    auto blob = reps[i]->ExportBlob();
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, *blob0) << "rep " << i;
    auto q = reps[i]->Quantiles({0.1, 0.5, 0.9});
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(*q, *q0) << "rep " << i;
    auto h = reps[i]->Heavy(0.05);
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(h->size(), h0->size()) << "rep " << i;
    for (size_t j = 0; j < h->size(); ++j) {
      EXPECT_EQ((*h)[j].cell, (*h0)[j].cell);
      EXPECT_EQ((*h)[j].fraction, (*h0)[j].fraction);
    }
    auto r = reps[i]->RangeMass({3, 2});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, *r0) << "rep " << i;
    RandomEngine rng(99);
    CollectingSink sink;
    ASSERT_TRUE(reps[i]->GenerateTo(500, &rng, &sink).ok());
    EXPECT_EQ(sink.points(), points0) << "rep " << i;
  }
}

TEST_F(RegistryPagedTest, HotSwapAcrossRepresentations) {
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.LoadFile("alpha", tree_path_).ok());
  auto before = registry.Get("alpha");
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE((*before)->is_paged());

  // Swap the heap artifact for the packed one; the old reference stays
  // serviceable.
  ASSERT_TRUE(registry.LoadFile("alpha", packed_path_).ok());
  auto after = registry.Get("alpha");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE((*after)->is_paged());
  EXPECT_EQ(registry.size(), 1u);

  auto old_blob = (*before)->ExportBlob();
  auto new_blob = (*after)->ExportBlob();
  ASSERT_TRUE(old_blob.ok());
  ASSERT_TRUE(new_blob.ok());
  EXPECT_EQ(*old_blob, *new_blob);
}

TEST_F(RegistryPagedTest, GeneratorAccessorIsHeapOnly) {
  auto heap = ServedArtifact::FromFile(tree_path_);
  ASSERT_TRUE(heap.ok());
  // Heap artifacts still expose the generator (the ingest tests rely on
  // it); paged artifacts answer only through the query surface.
  EXPECT_GT((*heap)->generator().TotalMass(), 0.0);
  EXPECT_GT((*heap)->ResidentBytes(), 0u);
}

}  // namespace
}  // namespace privhp

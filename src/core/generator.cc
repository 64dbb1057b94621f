#include "core/generator.h"

#include "common/macros.h"
#include "hierarchy/tree_serialization.h"

namespace privhp {

PrivHPGenerator::PrivHPGenerator(PartitionTree tree, ResolvedPlan plan)
    : tree_(std::move(tree)), plan_(std::move(plan)) {}

const CompiledSampler& PrivHPGenerator::sampler() const {
  const CompiledSampler* compiled =
      lazy_->compiled.load(std::memory_order_acquire);
  if (compiled != nullptr) return *compiled;
  std::call_once(lazy_->once, [this]() {
    lazy_->table.emplace(tree_);
    lazy_->compiled.store(&*lazy_->table, std::memory_order_release);
  });
  return *lazy_->table;
}

std::vector<Point> PrivHPGenerator::Generate(size_t m,
                                             RandomEngine* rng) const {
  return sampler().SampleBatch(m, rng);
}

Status PrivHPGenerator::GenerateTo(size_t m, RandomEngine* rng,
                                   PointSink* sink) const {
  return sampler().GenerateTo(m, rng, sink);
}

Status PrivHPGenerator::Save(const std::string& path) const {
  return SaveTreeToFile(tree_, path);
}

Result<PrivHPGenerator> PrivHPGenerator::Load(const Domain* domain,
                                              const std::string& path) {
  PRIVHP_ASSIGN_OR_RETURN(PartitionTree loaded,
                          LoadTreeFromFile(domain, path));
  return FromLoadedTree(std::move(loaded));
}

PrivHPGenerator PrivHPGenerator::FromLoadedTree(PartitionTree tree) {
  ResolvedPlan plan;
  plan.l_max = tree.MaxDepth();
  plan.grow_to = tree.MaxDepth();
  return PrivHPGenerator(std::move(tree), std::move(plan));
}

}  // namespace privhp

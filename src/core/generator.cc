#include "core/generator.h"

#include "common/macros.h"
#include "hierarchy/tree_serialization.h"

namespace privhp {

PrivHPGenerator::PrivHPGenerator(PartitionTree tree, ResolvedPlan plan)
    : tree_(std::move(tree)), plan_(std::move(plan)), sampler_(tree_) {}

std::vector<Point> PrivHPGenerator::Generate(size_t m,
                                             RandomEngine* rng) const {
  return sampler_.SampleBatch(m, rng);
}

Status PrivHPGenerator::GenerateTo(size_t m, RandomEngine* rng,
                                   PointSink* sink) const {
  return sampler_.GenerateTo(m, rng, sink);
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

// PHL007 clean mirror: the shard's one batch form takes a PointBatch.
#include <vector>

namespace privhp {

Status PrivHPShard::AddBatch(const PointBatch& batch) {
  return domain_->ValidateBatch(batch.data(), batch.dim(), batch.size());
}

}  // namespace privhp

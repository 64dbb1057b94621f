#include "hierarchy/grow_partition.h"

#include <algorithm>
#include <system_error>
#include <thread>
#include <vector>

#include "common/bits.h"
#include "hierarchy/consistency.h"

namespace privhp {

namespace {

// EstimateBatch hashes keys in runs of 256, so asking for that many at a
// time costs the sketch nothing and keeps the keys on the stack.
constexpr size_t kQueryChunk = 256;

// Sets the count of every node in [first, last) to the source's estimate
// for its cell, asking in id order, kQueryChunk cells per QueryBatch.
void QueryNodes(PartitionTree* tree, const LevelFrequencySource& source,
                int level, NodeId first, NodeId last) {
  uint64_t keys[kQueryChunk];
  double counts[kQueryChunk];
  for (NodeId base = first; base < last; base += kQueryChunk) {
    const size_t n = std::min<size_t>(kQueryChunk, last - base);
    for (size_t i = 0; i < n; ++i) keys[i] = tree->node(base + i).cell.index;
    source.QueryBatch(level, keys, n, counts);
    for (size_t i = 0; i < n; ++i) tree->node(base + i).count = counts[i];
  }
}

// Lines 2 and 9 for the parents in the subtrees under cells [begin, end)
// of level \p top: the consistency step of every parent at levels
// top..last, breadth-first. A step reads only its parent's count, final
// once the level above is done, and writes only its own two children, so
// any split into subtrees gives the counts of one pre-order pass.
void EnforceSubtrees(PartitionTree* tree, int top, uint64_t begin,
                     uint64_t end, int last) {
  for (int level = top; level <= last; ++level) {
    const int shift = level - top;
    const NodeId stop = CompleteNodeId(level, end << shift);
    for (NodeId id = CompleteNodeId(level, begin << shift); id < stop; ++id) {
      EnforceConsistencyAt(tree, id);
    }
  }
}

// Line 10's selection: the k hottest of the ids offered, hottest first.
// Hotter means a larger count, ties broken by the smaller cell index, so
// the set and its order are the same whatever order ids are offered in.
// The kept ids live in the caller's slots (room for k), as a heap whose
// front is the coldest of them: an id colder than that costs one compare.
class TopK {
 public:
  TopK(const PartitionTree& tree, size_t k, NodeId* slots)
      : hotter_{&tree}, k_(k), slots_(slots) {}

  void Offer(NodeId id) {
    if (size_ < k_) {
      slots_[size_++] = id;
      std::push_heap(slots_, slots_ + size_, hotter_);
    } else if (hotter_(id, slots_[0])) {
      std::pop_heap(slots_, slots_ + k_, hotter_);
      slots_[k_ - 1] = id;
      std::push_heap(slots_, slots_ + k_, hotter_);
    }
  }

  void OfferRange(NodeId first, NodeId last) {
    for (NodeId id = first; id < last; ++id) Offer(id);
  }

  /// Sorts the kept ids hottest first; returns how many there are.
  size_t Sort() {
    std::sort_heap(slots_, slots_ + size_, hotter_);
    return size_;
  }

 private:
  struct Hotter {
    const PartitionTree* tree;
    bool operator()(NodeId a, NodeId b) const {
      const TreeNode& na = tree->node(a);
      const TreeNode& nb = tree->node(b);
      if (na.count != nb.count) return na.count > nb.count;
      return na.cell.index < nb.cell.index;
    }
  };

  Hotter hotter_;
  size_t k_;
  NodeId* slots_;
  size_t size_ = 0;
};

}  // namespace

size_t GrownNodeCount(const GrowOptions& options) {
  const size_t leaves = size_t{1} << options.l_star;
  size_t nodes = 2 * leaves - 1;
  size_t hot = leaves;
  for (int level = options.l_star + 1; level <= options.grow_to; ++level) {
    nodes += 2 * hot;
    hot = std::min(2 * hot, options.k);
  }
  return nodes;
}

Status GrowPartition(PartitionTree* tree, const LevelFrequencySource& source,
                     const GrowOptions& options, int num_threads) {
  if (options.l_star < 0 || options.grow_to < options.l_star) {
    return Status::InvalidArgument(
        "GrowPartition requires 0 <= l_star <= grow_to");
  }
  if (options.grow_to > tree->domain()->max_level()) {
    return Status::OutOfRange("grow_to exceeds domain max level");
  }
  if (options.grow_to > options.l_star && options.k == 0) {
    return Status::InvalidArgument("k must be >= 1 to grow below l_star");
  }
  if (num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  // The initial tree must be complete to exactly l_star, breadth-first:
  // 2^(l_star+1) - 1 nodes, the last of them the last cell of l_star.
  const int l_star = options.l_star;
  const size_t complete = (size_t{2} << l_star) - 1;
  if (tree->num_nodes() != complete ||
      tree->node(static_cast<NodeId>(complete - 1)).cell !=
          CellId{l_star, (uint64_t{1} << l_star) - 1}) {
    return Status::FailedPrecondition(
        "GrowPartition expects a complete tree of depth l_star");
  }
  const bool consistent = options.enforce_consistency;
  // Line 2 starts at the root, clamped so non-negativity can propagate.
  if (consistent && tree->node(tree->root()).count < 0.0) {
    tree->node(tree->root()).count = 0.0;
  }
  if (options.grow_to == l_star) {
    if (consistent) EnforceSubtrees(tree, 0, 0, 1, l_star - 1);
    return Status::OK();
  }

  // Line 3 makes every level-L* node hot, so level L*+1 is complete: it
  // is laid out arithmetically, and each thread takes the subtrees under
  // a run of level-`split` cells. Consistency above `split` runs first,
  // here; then each part runs Line 2 down its subtrees to level L* and
  // makes one pass over its run of level L*+1, a chunk at a time, so
  // every step finds the chunk in cache: link the nodes, query them,
  // Line 9 for their parents, and offer them to the part's top-k.
  const int first_level = l_star + 1;
  const bool select = first_level < options.grow_to;
  const size_t keep =
      select ? std::min<uint64_t>(options.k, uint64_t{2} << l_star) : 0;
  const int split = std::min(CeilLog2(num_threads), l_star);
  const uint64_t subtrees = uint64_t{1} << split;
  const int parts = static_cast<int>(
      std::min<uint64_t>(static_cast<uint64_t>(num_threads), subtrees));
  if (consistent) EnforceSubtrees(tree, 0, 0, 1, split - 1);
  tree->AppendCompleteLevel();
  std::vector<NodeId> partial(parts * keep);
  std::vector<size_t> kept(parts, 0);
  const auto grow_part = [&](int part) {
    const uint64_t begin = subtrees * part / parts;
    const uint64_t end = subtrees * (part + 1) / parts;
    if (consistent) EnforceSubtrees(tree, split, begin, end, l_star - 1);
    TopK top(*tree, keep, partial.data() + part * keep);
    const int shift = first_level - split;
    for (uint64_t lo = begin << shift; lo < end << shift; lo += kQueryChunk) {
      const uint64_t hi = std::min<uint64_t>(lo + kQueryChunk, end << shift);
      tree->LayoutCompleteRange(first_level, lo, hi);
      const NodeId first = CompleteNodeId(first_level, lo);
      const NodeId last = CompleteNodeId(first_level, hi);
      QueryNodes(tree, source, first_level, first, last);
      if (consistent) EnforceSubtrees(tree, l_star, lo / 2, hi / 2, l_star);
      if (select) top.OfferRange(first, last);
    }
    kept[part] = top.Sort();
  };
  std::vector<std::thread> threads;
  threads.reserve(parts - 1);
  int started = 1;
  try {
    for (; started < parts; ++started) threads.emplace_back(grow_part, started);
  } catch (const std::system_error&) {
    // No thread to be had: the parts not started run here instead.
  }
  grow_part(0);
  for (int part = started; part < parts; ++part) grow_part(part);
  for (std::thread& t : threads) t.join();
  if (!select) return Status::OK();

  // Line 10: the next hot set, merged from the parts' selections.
  std::vector<NodeId> hot(keep);
  {
    TopK top(*tree, keep, hot.data());
    for (int part = 0; part < parts; ++part) {
      for (size_t i = 0; i < kept[part]; ++i) {
        top.Offer(partial[part * keep + i]);
      }
    }
    hot.resize(top.Sort());
  }

  // Lines 4-10 below L*+1: at most k hot nodes per level, on this thread.
  for (int level = first_level + 1; level <= options.grow_to; ++level) {
    const NodeId first = static_cast<NodeId>(tree->num_nodes());
    for (NodeId id : hot) tree->AddChildren(id);
    const NodeId last = static_cast<NodeId>(tree->num_nodes());
    QueryNodes(tree, source, level, first, last);
    // Line 9: make the two fresh estimates consistent with their parent.
    if (consistent) {
      for (NodeId id : hot) EnforceConsistencyAt(tree, id);
    }
    if (level < options.grow_to) {
      hot.resize(std::min<size_t>(options.k, last - first));
      TopK top(*tree, hot.size(), hot.data());
      top.OfferRange(first, last);
      hot.resize(top.Sort());
    }
  }
  return Status::OK();
}

}  // namespace privhp

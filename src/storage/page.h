// Fixed-size page primitives for the paged artifact format
// (storage/paged_format.h).
//
// A paged artifact is a sequence of equal-size pages: one header page, a
// page-checksum table, then raw data pages. Data pages carry *no*
// interior headers — section starts are page-aligned and every element
// size divides the page size, so a section's pages form one contiguous
// array that an mmapped reader can hand to the query templates and to
// CompiledSampler::Borrow without copying. Integrity lives out-of-line:
// one Checksum64 (common/hash.h) per data page in the checksum table, the
// table itself covered by a checksum in the header. Pages are checksummed
// independently, so pack and the mmap open verify all of a file's data
// pages in one PageChecksums call, eight pages' chains interleaved; a
// buffer pool verifies each page it faults in with one Checksum64.

#ifndef PRIVHP_STORAGE_PAGE_H_
#define PRIVHP_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "domain/domain.h"
#include "hierarchy/partition_tree.h"

namespace privhp {
namespace storage {

/// \brief Default page size, the smallest valid one. A buffer-pool miss
/// reads and checksums a whole page under the pool lock: at 4 KiB that
/// is about 0.4 µs of pread and 2.5 µs of Checksum64, against 3 + 44 µs
/// at 64 KiB. Sequential scans still fetch once per 128 nodes. Files
/// packed at another valid size keep serving; the size is in the header.
inline constexpr uint32_t kDefaultPageSize = 4096;
inline constexpr uint32_t kMinPageSize = 4096;
inline constexpr uint32_t kMaxPageSize = 1u << 20;

/// \brief Valid page sizes are powers of two in [kMinPageSize,
/// kMaxPageSize] — so every element size in the format (4/8/16/32 bytes)
/// divides the page size and no element ever straddles a page boundary.
inline constexpr bool IsValidPageSize(uint64_t s) {
  return s >= kMinPageSize && s <= kMaxPageSize && (s & (s - 1)) == 0;
}

/// \brief On-disk node record, 32 bytes so records never straddle a
/// page. Fields are little-endian, like the wire format; pad bytes are
/// zero so packing is deterministic and pages checksum reproducibly.
/// TreeNode has exactly this layout (its CellId pad is an always-zero
/// member), so the packer writes the tree's node arena as the section.
struct PackedTreeNode {
  int32_t level = 0;
  uint32_t pad0 = 0;
  uint64_t index = 0;
  double count = 0.0;
  int32_t left = -1;
  int32_t right = -1;
};
static_assert(sizeof(PackedTreeNode) == 32,
              "PackedTreeNode must be exactly 32 bytes on disk");
static_assert(
    sizeof(TreeNode) == sizeof(PackedTreeNode) &&
        offsetof(TreeNode, cell) + offsetof(CellId, level) ==
            offsetof(PackedTreeNode, level) &&
        offsetof(TreeNode, cell) + offsetof(CellId, pad) ==
            offsetof(PackedTreeNode, pad0) &&
        offsetof(TreeNode, cell) + offsetof(CellId, index) ==
            offsetof(PackedTreeNode, index) &&
        offsetof(TreeNode, count) == offsetof(PackedTreeNode, count) &&
        offsetof(TreeNode, left) == offsetof(PackedTreeNode, left) &&
        offsetof(TreeNode, right) == offsetof(PackedTreeNode, right),
    "TreeNode must remain layout-identical to PackedTreeNode: the packer "
    "writes the node arena as the nodes section");

/// \brief On-disk leaf-cell record, layout-compatible with CellId so an
/// mmapped cells section can be lent to CompiledSampler::Borrow without
/// a copy. The pad bytes are written as zero.
struct PackedCell {
  int32_t level = 0;
  uint32_t pad0 = 0;
  uint64_t index = 0;
};
static_assert(sizeof(PackedCell) == 16,
              "PackedCell must be exactly 16 bytes on disk");
static_assert(sizeof(CellId) == sizeof(PackedCell) &&
                  offsetof(CellId, index) == offsetof(PackedCell, index) &&
                  offsetof(CellId, pad) == offsetof(PackedCell, pad0) &&
                  offsetof(CellId, level) == offsetof(PackedCell, level),
              "CellId must remain layout-identical to PackedCell: the "
              "packer writes the alias table's cells as the section, and "
              "the mmap read path reinterprets it as CellId[]");

}  // namespace storage
}  // namespace privhp

#endif  // PRIVHP_STORAGE_PAGE_H_

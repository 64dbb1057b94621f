// Persistence for decomposition trees. A released PrivHP tree is the
// private artifact (everything derived from it is post-processing), so
// saving and reloading it is how a deployment ships a generator without
// retaining the stream.
//
// Format: line-oriented text — a header with a magic string, the domain
// name, the domain dimension (since v2) and node count, then one `level
// index count left right` line per node in arena order. Self-validating
// on load: structure is checked, and the domain name/dimension must match
// the loading domain (v1 files validate the name only).
//
// SaveTreeGeneric writes the same bytes from any TreeLike — a type with
// root()/num_nodes()/domain() and node(NodeId) returning TreeNode fields
// (by value or reference). PartitionTree and the paged artifact's
// in-place view both qualify, which is what makes a served paged
// artifact's EXPORT byte-identical to the heap path's.
//
// File writes go through io/file_util.h: the bytes are staged in a temp
// file and renamed over the target, so a crash mid-save can never leave
// a truncated artifact behind an existing name.

#ifndef PRIVHP_HIERARCHY_TREE_SERIALIZATION_H_
#define PRIVHP_HIERARCHY_TREE_SERIALIZATION_H_

#include <iosfwd>
#include <limits>
#include <memory>
#include <ostream>
#include <string>

#include "common/status.h"
#include "domain/domain.h"
#include "hierarchy/partition_tree.h"

namespace privhp {

/// \brief Magic line opening a v2 tree file.
inline constexpr char kTreeMagicV2[] = "privhp-tree-v2";

/// \brief Writes \p tree to \p os in format v2. Returns IOError on
/// stream failure. Works for any TreeLike (see file comment); the bytes
/// depend only on the node records, so every view of the same artifact
/// serializes identically.
template <typename TreeLike>
Status SaveTreeGeneric(const TreeLike& tree, std::ostream* os) {
  (*os) << kTreeMagicV2 << "\n";
  (*os) << tree.domain()->Name() << "\n";
  (*os) << tree.domain()->dimension() << "\n";
  (*os) << tree.num_nodes() << "\n";
  os->precision(std::numeric_limits<double>::max_digits10);
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto& n = tree.node(static_cast<NodeId>(i));
    (*os) << n.cell.level << " " << n.cell.index << " " << n.count << " "
          << n.left << " " << n.right << "\n";
  }
  if (!os->good()) return Status::IOError("failed writing tree stream");
  return Status::OK();
}

/// \brief Writes \p tree to \p os. Returns IOError on stream failure.
inline Status SaveTree(const PartitionTree& tree, std::ostream* os) {
  return SaveTreeGeneric(tree, os);
}

/// \brief Reads a tree over \p domain from \p is. Validates structure
/// (child cells are cell halves, node ids in range) before returning.
Result<PartitionTree> LoadTree(const Domain* domain, std::istream* is);

/// \brief File-based convenience wrappers. SaveTreeToFile stages the
/// bytes in a temp file and atomically renames over \p path.
Status SaveTreeToFile(const PartitionTree& tree, const std::string& path);
Result<PartitionTree> LoadTreeFromFile(const Domain* domain,
                                       const std::string& path);

/// \brief A tree file loaded over the domain its own header names.
struct SelfDescribedTree {
  std::unique_ptr<Domain> domain;
  PartitionTree tree;  ///< points at *domain
};

/// \brief Loads a v2 tree file without out-of-band knowledge of how it
/// was built: the header's domain name and dimension rebuild the domain
/// (MakeDomainByName), then the tree loads and validates against it.
/// v1 files are rejected (InvalidArgument): they carry no dimension, so
/// the domain cannot be rebuilt or checked.
Result<SelfDescribedTree> LoadSelfDescribedTree(const std::string& path);

}  // namespace privhp

#endif  // PRIVHP_HIERARCHY_TREE_SERIALIZATION_H_

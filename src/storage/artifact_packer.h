// Packs a released tree into the paged artifact format.
//
// Packing compiles the tree's alias table (the same CompiledSampler
// construction a heap generator runs on its first sample) and writes the
// node arena plus the table's exact arrays as paged sections — so a
// reader that mmaps the file and Borrow()s the table draws the very
// bytes a heap-loaded sampler would, and serving a packed artifact
// needs no compile step at all. Packing is deterministic: the same tree
// packs to byte-identical files.
//
// Pages go out straight from memory: the nodes section is the tree's
// own node arena and the cells section the table's own CellId array
// (both share their on-disk record layout, storage/page.h); a section's
// full pages are checksummed in one PageChecksums call (common/hash.h)
// and appended in one write; only its last, partial page is copied and
// zero-padded.
// The write is atomic (io/file_util.h): the pages are staged in a temp
// file and renamed over the target only after fsync.

#ifndef PRIVHP_STORAGE_ARTIFACT_PACKER_H_
#define PRIVHP_STORAGE_ARTIFACT_PACKER_H_

#include <string>

#include "common/status.h"
#include "hierarchy/partition_tree.h"
#include "storage/paged_format.h"

namespace privhp {
namespace storage {

struct PackOptions {
  uint32_t page_size = kDefaultPageSize;
};

/// \brief Packs \p tree (and its compiled alias table) into a paged
/// artifact at \p path, atomically.
Status PackArtifact(const PartitionTree& tree, const std::string& path,
                    const PackOptions& options = {});

/// \brief Convenience: loads a format-v2 tree file (reconstructing the
/// domain from its header, as the registry does) and packs it to
/// \p out_path. The privhp CLI's `pack` subcommand is this function.
Status PackTreeFile(const std::string& tree_path, const std::string& out_path,
                    const PackOptions& options = {});

}  // namespace storage
}  // namespace privhp

#endif  // PRIVHP_STORAGE_ARTIFACT_PACKER_H_

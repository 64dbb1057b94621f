#include "storage/artifact_packer.h"

#include <cstring>
#include <vector>

#include "common/macros.h"
#include "common/hash.h"
#include "hierarchy/compiled_sampler.h"
#include "hierarchy/tree_serialization.h"
#include "io/file_util.h"

namespace privhp {
namespace storage {

namespace {

// Appends one section's raw bytes as whole pages, writing one checksum
// per page to \p checksums. Full pages go out straight from \p data,
// checksummed side by side in one PageChecksums call; only a partial
// last page is copied, zero-padded, into \p page (page_size bytes of
// scratch).
Status WriteSection(AtomicFileWriter* w, const uint8_t* data, uint64_t bytes,
                    uint32_t page_size, uint64_t* checksums,
                    std::vector<uint8_t>* page) {
  const uint64_t full = bytes / page_size;
  const uint64_t rest = bytes % page_size;
  PageChecksums(data, page_size, full, checksums);
  PRIVHP_RETURN_NOT_OK(w->Append(data, full * page_size));
  if (rest == 0) return Status::OK();
  std::memcpy(page->data(), data + full * page_size, rest);
  std::memset(page->data() + rest, 0, page_size - rest);
  checksums[full] = Checksum64(page->data(), page_size);
  return w->Append(page->data(), page_size);
}

}  // namespace

Status PackArtifact(const PartitionTree& tree, const std::string& path,
                    const PackOptions& options) {
  const Domain* domain = tree.domain();
  if (domain == nullptr) {
    return Status::InvalidArgument("tree has no domain");
  }
  // Compile exactly the table the heap serving path would build, then
  // serialize its arrays verbatim: a Borrow()ing reader is bit-identical
  // by construction.
  const CompiledSampler sampler(tree);
  const CompiledTableView& view = sampler.view();
  const bool has_bounds = view.slot_lo != nullptr;

  PRIVHP_ASSIGN_OR_RETURN(
      PagedHeader header,
      ComputeLayout(options.page_size, static_cast<uint32_t>(
                                           domain->dimension()),
                    tree.num_nodes(), view.num_slots, has_bounds,
                    sampler.total_mass(), domain->Name()));

  // TreeNode and CellId are laid out exactly like PackedTreeNode and
  // PackedCell, pads included (storage/page.h), so the node arena and
  // the table's cells go out as they sit in memory.
  const uint8_t* section_data[kNumSections] = {
      reinterpret_cast<const uint8_t*>(tree.arena()),
      reinterpret_cast<const uint8_t*>(view.cells),
      reinterpret_cast<const uint8_t*>(view.accept),
      reinterpret_cast<const uint8_t*>(view.alias),
      reinterpret_cast<const uint8_t*>(view.slot_lo),
      reinterpret_cast<const uint8_t*>(view.slot_ext)};

  PRIVHP_ASSIGN_OR_RETURN(AtomicFileWriter w, AtomicFileWriter::Create(path));

  // Placeholder header + checksum-table pages; both are patched once the
  // data pages (and their checksums) exist.
  const uint64_t table_pages = header.data_offset / header.page_size - 1;
  {
    const std::vector<uint8_t> zero(header.page_size, 0);
    for (uint64_t p = 0; p < 1 + table_pages; ++p) {
      PRIVHP_RETURN_NOT_OK(w.Append(zero.data(), zero.size()));
    }
  }

  // Data page p is file page first_data_page() + p.
  std::vector<uint64_t> page_checksums(header.data_pages());
  std::vector<uint8_t> page(header.page_size);
  for (int s = 0; s < kNumSections; ++s) {
    if (header.sections[s].num_elements == 0) continue;
    PRIVHP_CHECK(w.size() == header.sections[s].file_offset);
    const uint64_t bytes =
        header.sections[s].num_elements * kSectionElemSize[s];
    const uint64_t first_page =
        w.size() / header.page_size - header.first_data_page();
    // The layout must hold this section's pages: their checksums go
    // straight into the table.
    PRIVHP_CHECK(first_page + (bytes + header.page_size - 1) /
                                  header.page_size <=
                 page_checksums.size());
    PRIVHP_RETURN_NOT_OK(WriteSection(&w, section_data[s], bytes,
                                      header.page_size,
                                      page_checksums.data() + first_page,
                                      &page));
  }
  PRIVHP_CHECK(w.size() == header.file_bytes());

  const uint64_t table_bytes = page_checksums.size() * sizeof(uint64_t);
  PRIVHP_RETURN_NOT_OK(w.WriteAt(header.checksum_table_offset,
                                 page_checksums.data(), table_bytes));
  header.checksum_table_checksum =
      Checksum64(page_checksums.data(), table_bytes);

  const std::string header_page = EncodeHeaderPage(header);
  PRIVHP_RETURN_NOT_OK(w.WriteAt(0, header_page.data(), header_page.size()));
  return w.Commit();
}

Status PackTreeFile(const std::string& tree_path, const std::string& out_path,
                    const PackOptions& options) {
  PRIVHP_ASSIGN_OR_RETURN(SelfDescribedTree loaded,
                          LoadSelfDescribedTree(tree_path));
  return PackArtifact(loaded.tree, out_path, options);
}

}  // namespace storage
}  // namespace privhp

#include "storage/paged_artifact.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/macros.h"
#include "common/hash.h"
#include "domain/domain_factory.h"
#include "domain/point_batch.h"
#include "hierarchy/tree_serialization.h"

namespace privhp {
namespace storage {

namespace {

// Matches the CompiledSampler/TreeSampler streaming chunk: bounded
// footprint, amortized sink dispatch.
constexpr size_t kGenerateChunk = 1024;

}  // namespace

/// \brief Stack-local TreeLike over the artifact's on-disk node records,
/// consumed by the shared query templates. Read failures cannot throw
/// out of a template walk, so node() latches the first error and returns
/// a zero-count leaf — the walk then terminates benignly (leaves end
/// every descent, and the templates' step caps bound corrupt cycles)
/// and the caller converts the latched status into the query's error.
/// In pooled mode the view keeps the page of its last node read pinned,
/// so a run of nodes on one page (a descent's top levels, an EXPORT's
/// whole scan) costs one pool fetch, not one per node.
class PagedTreeView {
 public:
  explicit PagedTreeView(const PagedArtifact* artifact)
      : artifact_(artifact) {}

  NodeId root() const { return 0; }
  size_t num_nodes() const {
    return static_cast<size_t>(artifact_->header_.num_nodes);
  }
  const Domain* domain() const { return artifact_->domain_.get(); }

  TreeNode node(NodeId id) const {
    TreeNode safe;  // zero-count leaf
    if (!status_.ok()) return safe;
    if (id < 0 || static_cast<uint64_t>(id) >= artifact_->header_.num_nodes) {
      status_ = Status::IOError("corrupt artifact: node id " +
                                std::to_string(id) + " out of range");
      return safe;
    }
    // A node record is a TreeNode byte for byte (storage/page.h).
    TreeNode n;
    const Status read = artifact_->ReadElem(
        kSectionNodes, static_cast<uint64_t>(id), &n, sizeof(n), &page_);
    if (!read.ok()) {
      status_ = read;
      return safe;
    }
    // A node has both children or none; anything else is corruption and
    // must not steer the walk.
    const auto valid_child = [this](int32_t c) {
      return c > 0 && static_cast<uint64_t>(c) < artifact_->header_.num_nodes;
    };
    const bool leaf = n.left == kInvalidNode && n.right == kInvalidNode;
    if (!leaf && (!valid_child(n.left) || !valid_child(n.right))) {
      status_ = Status::IOError("corrupt artifact: node " +
                                std::to_string(id) +
                                " has an invalid child id");
      return safe;
    }
    return n;
  }

  const Status& status() const { return status_; }

 private:
  const PagedArtifact* artifact_;
  mutable Status status_;
  mutable PageRef page_;  // pooled mode: the last node read's page
};

Result<std::unique_ptr<const PagedArtifact>> PagedArtifact::Open(
    const std::string& path, const PagedReadOptions& options) {
  std::unique_ptr<PagedArtifact> a(new PagedArtifact());

  if (!options.use_buffer_pool) {
    PRIVHP_ASSIGN_OR_RETURN(a->map_, MmapFile::Open(path));
    PRIVHP_ASSIGN_OR_RETURN(
        a->header_,
        ParseHeaderPage(a->map_.data(), a->map_.size(), a->map_.size()));
    const PagedHeader& h = a->header_;
    // Verify the checksum table, then every data page, up front: after
    // Open() succeeds the mapped bytes are known-good and the hot path
    // never checksums again. The pages are checksummed side by side in
    // one PageChecksums call, then compared in page order, so the error
    // names the lowest failing page.
    const uint8_t* table = a->map_.data() + h.checksum_table_offset;
    const uint64_t table_bytes =
        h.checksum_table_entries * sizeof(uint64_t);
    if (Checksum64(table, table_bytes) != h.checksum_table_checksum) {
      return Status::IOError(
          "paged artifact checksum table is corrupt: " + path);
    }
    std::vector<uint64_t> actual(h.data_pages());
    PageChecksums(a->map_.data() + h.data_offset, h.page_size,
                  actual.size(), actual.data());
    for (uint64_t p = 0; p < h.data_pages(); ++p) {
      uint64_t expected;
      std::memcpy(&expected, table + p * sizeof(uint64_t),
                  sizeof(uint64_t));
      if (actual[p] != expected) {
        return Status::IOError("paged artifact data page " +
                               std::to_string(p) +
                               " failed its checksum: " + path);
      }
    }
  } else {
    PRIVHP_ASSIGN_OR_RETURN(RandomAccessFile file,
                            RandomAccessFile::Open(path));
    // The header page is at most kMaxPageSize; read that much (or the
    // whole file if smaller) and let the parser sort truncation out.
    std::vector<uint8_t> head(
        static_cast<size_t>(std::min<uint64_t>(file.size(), kMaxPageSize)));
    if (!head.empty()) {
      PRIVHP_RETURN_NOT_OK(file.ReadAt(0, head.data(), head.size()));
    }
    PRIVHP_ASSIGN_OR_RETURN(
        a->header_, ParseHeaderPage(head.data(), head.size(), file.size()));
    const PagedHeader& h = a->header_;
    a->page_checksums_.resize(h.checksum_table_entries);
    const uint64_t table_bytes =
        h.checksum_table_entries * sizeof(uint64_t);
    PRIVHP_RETURN_NOT_OK(file.ReadAt(h.checksum_table_offset,
                                     a->page_checksums_.data(),
                                     table_bytes));
    if (Checksum64(a->page_checksums_.data(), table_bytes) !=
        h.checksum_table_checksum) {
      return Status::IOError(
          "paged artifact checksum table is corrupt: " + path);
    }
    a->file_.emplace(std::move(file));
    a->pool_ = std::make_unique<BufferPool>(
        h.page_size, std::max<size_t>(2, options.pool_bytes / h.page_size));
  }

  PRIVHP_ASSIGN_OR_RETURN(
      std::unique_ptr<Domain> domain,
      MakeDomainByName(a->header_.domain_name,
                       static_cast<int>(a->header_.dimension)));
  a->domain_ = std::move(domain);

  if (!options.use_buffer_pool) {
    // Borrow the mapped table: cells are reinterpreted in place
    // (PackedCell is layout-compatible with CellId by static_assert).
    const PagedHeader& h = a->header_;
    CompiledTableView view;
    view.cells = reinterpret_cast<const CellId*>(
        a->map_.data() + h.sections[kSectionCells].file_offset);
    view.accept = reinterpret_cast<const double*>(
        a->map_.data() + h.sections[kSectionAccept].file_offset);
    view.alias = reinterpret_cast<const uint32_t*>(
        a->map_.data() + h.sections[kSectionAlias].file_offset);
    view.num_slots = static_cast<size_t>(h.num_slots);
    if (h.has_bounds) {
      view.slot_lo = reinterpret_cast<const double*>(
          a->map_.data() + h.sections[kSectionSlotLo].file_offset);
      view.slot_ext = reinterpret_cast<const double*>(
          a->map_.data() + h.sections[kSectionSlotExt].file_offset);
    }
    a->sampler_.emplace(CompiledSampler::Borrow(a->domain_.get(), view,
                                                a->header_.total_mass));
  }

  PackedTreeNode root;
  PRIVHP_RETURN_NOT_OK(a->ReadElem(kSectionNodes, 0, &root, sizeof(root)));
  if (root.level != 0 || root.index != 0) {
    return Status::IOError(
        "corrupt artifact: node 0 is not the root cell: " + path);
  }
  a->root_count_ = root.count;
  return std::unique_ptr<const PagedArtifact>(std::move(a));
}

bool PagedArtifact::SniffPagedFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  uint8_t head[sizeof(kPagedMagic)];
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(head))) {
    return false;
  }
  return HasPagedMagic(head, sizeof(head));
}

size_t PagedArtifact::ResidentBytes() const {
  if (pool_ != nullptr) {
    return sizeof(*this) + pool_->MemoryBytes() +
           page_checksums_.capacity() * sizeof(uint64_t);
  }
  return sizeof(*this) + map_.size();
}

Status PagedArtifact::ReadElem(int section, uint64_t index, void* out,
                               size_t elem_bytes, PageRef* pin) const {
  PRIVHP_DCHECK(section >= 0 && section < kNumSections);
  PRIVHP_DCHECK(elem_bytes == kSectionElemSize[section]);
  const PagedSection& s = header_.sections[section];
  if (index >= s.num_elements) {
    return Status::IOError("paged read out of section bounds");
  }
  const uint64_t off = s.file_offset + index * elem_bytes;
  if (pool_ == nullptr) {
    std::memcpy(out, map_.data() + off, elem_bytes);
    return Status::OK();
  }
  // Element sizes divide the page size and sections are page-aligned,
  // so one element never straddles two pages.
  const uint64_t page_no = off / header_.page_size;
  PageRef local;
  PageRef& page = pin != nullptr ? *pin : local;
  if (!page.valid() || page.page_no() != page_no) {
    page = PageRef();  // a fetching thread holds no other pin
    PRIVHP_ASSIGN_OR_RETURN(page, FetchPage(page_no));
  }
  std::memcpy(out, page.data() + off % header_.page_size, elem_bytes);
  return Status::OK();
}

Result<PageRef> PagedArtifact::FetchPage(uint64_t page_no) const {
  return pool_->Fetch(page_no, [this, page_no](uint8_t* dst) -> Status {
    PRIVHP_RETURN_NOT_OK(file_->ReadAt(page_no * header_.page_size, dst,
                                       header_.page_size));
    pool_->NoteChecksumVerify();
    const uint64_t expected =
        page_checksums_[page_no - header_.first_data_page()];
    if (Checksum64(dst, header_.page_size) != expected) {
      return Status::IOError("paged artifact data page " +
                             std::to_string(page_no) +
                             " failed its checksum");
    }
    return Status::OK();
  });
}

Result<double> PagedArtifact::RangeMass(CellId cell) const {
  PagedTreeView view(this);
  const double fraction = CellMassFractionOver(view, cell);
  PRIVHP_RETURN_NOT_OK(view.status());
  return fraction;
}

Result<std::vector<double>> PagedArtifact::Quantiles(
    const std::vector<double>& qs) const {
  PagedTreeView view(this);
  Result<std::vector<double>> out = TreeQuantilesOver(view, qs);
  PRIVHP_RETURN_NOT_OK(view.status());
  return out;
}

Result<std::vector<HeavyCell>> PagedArtifact::Heavy(double threshold) const {
  PagedTreeView view(this);
  Result<std::vector<HeavyCell>> out =
      HierarchicalHeavyHittersOver(view, threshold);
  PRIVHP_RETURN_NOT_OK(view.status());
  return out;
}

Status PagedArtifact::GenerateTo(size_t m, RandomEngine* rng,
                                 PointSink* sink) const {
  if (sink == nullptr) {
    return Status::InvalidArgument("sink must not be null");
  }
  if (pool_ == nullptr) {
    // mmap mode: the borrowed sampler runs the columnar hot path over
    // the mapped table.
    return sampler_->GenerateTo(m, rng, sink);
  }
  // Pooled mode: per-point alias draws through the pool, in exactly the
  // scalar Sample() RNG order (slot pick, coin, then the in-cell
  // uniforms inside SampleCell) — so the stream is bit-identical to the
  // mmap and heap paths for the same seed.
  const int dim = domain_->dimension();
  const uint64_t num_slots = header_.num_slots;
  PointBatch batch;
  for (size_t done = 0; done < m;) {
    const size_t n = std::min(kGenerateChunk, m - done);
    batch.Reset(dim);
    batch.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t slot = rng->UniformInt(num_slots);
      const double u = rng->UniformDouble();
      double accept;
      PRIVHP_RETURN_NOT_OK(
          ReadElem(kSectionAccept, slot, &accept, sizeof(accept)));
      if (!(u < accept)) {
        uint32_t alias;
        PRIVHP_RETURN_NOT_OK(
            ReadElem(kSectionAlias, slot, &alias, sizeof(alias)));
        slot = alias;
      }
      PackedCell cell;
      PRIVHP_RETURN_NOT_OK(
          ReadElem(kSectionCells, slot, &cell, sizeof(cell)));
      batch.AppendPoint(domain_->SampleCell(cell.level, cell.index, rng));
    }
    PRIVHP_RETURN_NOT_OK(sink->AddAll(batch));
    done += n;
  }
  return Status::OK();
}

Status PagedArtifact::ExportTo(std::ostream* os) const {
  PagedTreeView view(this);
  const Status saved = SaveTreeGeneric(view, os);
  PRIVHP_RETURN_NOT_OK(view.status());
  return saved;
}

}  // namespace storage
}  // namespace privhp

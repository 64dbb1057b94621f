// On-disk layout of a paged artifact ("privhp-paged-v1").
//
// A packed artifact is the released tree plus its compiled alias table,
// laid out as fixed-size pages:
//
//   page 0            header (magic, geometry, section table, checksums)
//   pages [1, 1+C)    checksum table: one Checksum64 per data page
//   pages [1+C, N)    data pages: six sections, in order —
//                       nodes    PackedTreeNode[num_nodes]   32 B each
//                       cells    PackedCell[num_slots]       16 B each
//                       accept   double[num_slots]            8 B each
//                       alias    uint32[num_slots]            4 B each
//                       slot_lo  double[num_slots*dim]        8 B each
//                       slot_ext double[num_slots*dim]        8 B each
//                     (slot_lo/slot_ext absent when has_bounds is 0)
//
// Every section starts on a page boundary and every element size divides
// the page size, so a section occupies whole pages and its bytes form
// one contiguous array: an mmapped reader hands section pointers
// straight to the query templates and CompiledSampler::Borrow — no
// parse, no copy. A buffer-pool reader fetches individual pages and
// verifies a page against the checksum table on every load of it, so a
// page evicted and read again is verified again.
//
// The layout is a pure function of (page_size, dimension, num_nodes,
// num_slots, has_bounds): ComputeLayout() is the single source of truth,
// used by the packer to place sections and by the parser to verify that
// a file's header claims exactly the canonical layout — any creative
// offsets in a corrupt or adversarial header fail validation instead of
// steering reads.
//
// All integers little-endian; the endian tag in the header rejects
// foreign-endian files instead of misreading them.

#ifndef PRIVHP_STORAGE_PAGED_FORMAT_H_
#define PRIVHP_STORAGE_PAGED_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/page.h"

namespace privhp {
namespace storage {

/// \brief File magic, padded with NULs to exactly 16 bytes on disk.
inline constexpr char kPagedMagic[] = "privhp-paged-v1";
inline constexpr uint32_t kPagedVersion = 1;
/// \brief Written as a native u32; reads as 0x04030201 on a
/// foreign-endian host, which the parser rejects.
inline constexpr uint32_t kPagedEndianTag = 0x01020304;
inline constexpr size_t kMaxDomainNameBytes = 256;
/// \brief Matches the registry's artifact dimension cap.
inline constexpr uint32_t kMaxPagedDimension = 64;

/// \brief Section order in the data region.
enum SectionId : int {
  kSectionNodes = 0,
  kSectionCells = 1,
  kSectionAccept = 2,
  kSectionAlias = 3,
  kSectionSlotLo = 4,
  kSectionSlotExt = 5,
  kNumSections = 6,
};

inline constexpr size_t kSectionElemSize[kNumSections] = {
    sizeof(PackedTreeNode), sizeof(PackedCell), sizeof(double),
    sizeof(uint32_t),       sizeof(double),     sizeof(double)};

struct PagedSection {
  uint64_t file_offset = 0;   // page-aligned; 0 when the section is empty
  uint64_t num_elements = 0;
};

/// \brief Decoded header page. Geometry fields are validated and
/// cross-checked against the canonical layout before this is handed to
/// a reader.
struct PagedHeader {
  uint32_t page_size = 0;
  uint32_t dimension = 0;
  uint64_t num_pages = 0;
  uint64_t num_nodes = 0;
  uint64_t num_slots = 0;
  bool has_bounds = false;
  double total_mass = 0.0;
  std::string domain_name;
  uint64_t checksum_table_offset = 0;
  uint64_t checksum_table_entries = 0;  // == number of data pages
  uint64_t checksum_table_checksum = 0;
  uint64_t data_offset = 0;
  PagedSection sections[kNumSections];

  uint64_t data_pages() const { return checksum_table_entries; }
  uint64_t first_data_page() const { return data_offset / page_size; }
  uint64_t file_bytes() const { return num_pages * page_size; }
};

/// \brief The canonical layout for the given shape: section offsets,
/// checksum-table geometry, and total page count. Validates every
/// range (page size, dimension, node/slot counts, name length, mass
/// finiteness) so both the packer and the parser reject bad shapes in
/// one place.
Result<PagedHeader> ComputeLayout(uint32_t page_size, uint32_t dimension,
                                  uint64_t num_nodes, uint64_t num_slots,
                                  bool has_bounds, double total_mass,
                                  const std::string& domain_name);

/// \brief Serializes \p header into one page_size-byte header page,
/// including the header checksum.
std::string EncodeHeaderPage(const PagedHeader& header);

/// \brief Parses and fully validates a header page. \p available is how
/// many bytes of \p page are readable (>= the claimed page size or the
/// parse fails); \p file_size must equal the claimed page count times
/// the page size. Beyond field ranges and the header checksum, the
/// claimed layout must match ComputeLayout bit-for-bit.
Result<PagedHeader> ParseHeaderPage(const uint8_t* page, size_t available,
                                    uint64_t file_size);

/// \brief True iff \p data begins with the paged magic (16 bytes).
bool HasPagedMagic(const uint8_t* data, size_t size);

}  // namespace storage
}  // namespace privhp

#endif  // PRIVHP_STORAGE_PAGED_FORMAT_H_

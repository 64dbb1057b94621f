// Fixed-capacity page cache fronting a paged artifact file.
//
// The pool owns one contiguous arena of page-size frames. Readers call
// Fetch(page_no, loader): a hit pins the resident frame; a miss picks a
// free frame (else evicts the least-recently-used *unpinned* frame),
// runs the caller's loader to fill it, and pins it. Pins are RAII
// (PageRef): a pinned frame is never evicted, so the bytes a query is
// reading stay valid exactly as long as the ref lives. If every frame
// is pinned a miss fails with FailedPrecondition rather than blocking —
// callers hold at most a couple of pins at a time, so this only fires
// on a misconfigured (too-small) pool.
//
// Concurrency: one mutex guards the frame table, pins, and the loader
// call itself. Loading under the lock serializes cold misses, which is
// deliberate — the pool exists to bound memory on the cold/over-budget
// path, not to win throughput races (the mmap path serves the hot
// case), and it keeps the invariant "a resident frame's bytes are
// immutable" trivially race-free under TSan.

#ifndef PRIVHP_STORAGE_BUFFER_POOL_H_
#define PRIVHP_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace privhp {
namespace storage {

class BufferPool;

/// \brief RAII pin on a resident page frame. While alive, the frame's
/// bytes are immutable and the frame cannot be evicted.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  const uint8_t* data() const { return data_; }
  bool valid() const { return pool_ != nullptr; }
  /// \brief The page this ref pins; meaningful only while valid().
  uint64_t page_no() const { return page_no_; }

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, size_t frame, uint64_t page_no,
          const uint8_t* data)
      : pool_(pool), frame_(frame), page_no_(page_no), data_(data) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  uint64_t page_no_ = 0;
  const uint8_t* data_ = nullptr;
};

/// \brief Fills a frame with the page's bytes (exactly page_bytes of
/// them); called under the pool lock on a miss.
using PageLoader = std::function<Status(uint8_t* dst)>;

/// \brief LRU page cache with pinning. Total memory = page_bytes *
/// num_frames, allocated once up front.
class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Page checksum verifications loaders reported via
    /// NoteChecksumVerify() — every miss that re-reads from disk should
    /// bump this once, so misses >> checksum_verifies means a loader
    /// path is skipping integrity checks.
    uint64_t checksum_verifies = 0;
  };

  /// \brief \p num_frames is clamped up to 1: a pool that can hold no
  /// page at all cannot serve anything.
  BufferPool(size_t page_bytes, size_t num_frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Pins page \p page_no, loading it via \p loader if absent.
  /// Fails with FailedPrecondition if every frame is pinned, or with
  /// the loader's error (the frame is then left free). The loader runs
  /// under mu_, so it must not touch the pool (NoteChecksumVerify is
  /// the sanctioned lock-free exception). The calling thread should
  /// hold no other pin of this pool (see the file comment).
  Result<PageRef> Fetch(uint64_t page_no, const PageLoader& loader)
      EXCLUDES(mu_);

  size_t page_bytes() const { return page_bytes_; }
  size_t num_frames() const { return num_frames_; }

  /// \brief Bytes held by the pool arena and bookkeeping.
  size_t MemoryBytes() const EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

  /// \brief Records one page checksum verification. Lock-free on a
  /// separate atomic, so a PageLoader — which runs *under* the pool
  /// mutex — can call it without deadlocking.
  void NoteChecksumVerify() {
    checksum_verifies_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  friend class PageRef;

  /// End marker of the recency list.
  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  struct Frame {
    uint64_t page_no = 0;
    uint32_t pins = 0;
    bool occupied = false;
    /// Recency-list neighbours: `prev` is colder, `next` hotter.
    size_t prev = kNoFrame;
    size_t next = kNoFrame;
  };

  void Unpin(size_t frame) EXCLUDES(mu_);

  /// \brief Picks the frame a miss should load into: the lowest-index
  /// unoccupied frame first, else the least-recently-fetched unpinned
  /// one; frames_.size() when every frame is pinned.
  size_t PickVictimLocked() const REQUIRES(mu_);

  /// \brief Recency-list edits: Unlink takes a frame off the list, Link
  /// puts an unlinked frame at its hot or cold end.
  void UnlinkLocked(size_t frame) REQUIRES(mu_);
  void LinkLocked(size_t frame, bool hot) REQUIRES(mu_);

  const size_t page_bytes_;
  const size_t num_frames_;
  mutable Mutex mu_;
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  /// The arena vector itself is immutable after the constructor (sized
  /// once, never reallocated), so reads through it need no lock; which
  /// *frame slots* hold valid bytes is what mu_ and the pin protocol
  /// govern. PageRef::data() stays valid lock-free exactly because a
  /// pinned frame is never reloaded.
  std::vector<uint8_t> arena_;
  std::unordered_map<uint64_t, size_t> resident_
      GUARDED_BY(mu_);  // page_no -> frame
  /// Ends of the recency list. Free frames are always colder than
  /// occupied ones: they start in index order, only a failed load frees
  /// a frame again, and it goes back to the cold end.
  size_t cold_ GUARDED_BY(mu_) = kNoFrame;
  size_t hot_ GUARDED_BY(mu_) = kNoFrame;
  Stats stats_ GUARDED_BY(mu_);
  std::atomic<uint64_t> checksum_verifies_{0};
};

}  // namespace storage
}  // namespace privhp

#endif  // PRIVHP_STORAGE_BUFFER_POOL_H_

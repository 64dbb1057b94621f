#include "storage/buffer_pool.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace privhp {
namespace storage {

PageRef::PageRef(PageRef&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      frame_(std::exchange(other.frame_, 0)),
      page_no_(std::exchange(other.page_no_, 0)),
      data_(std::exchange(other.data_, nullptr)) {}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->Unpin(frame_);
    pool_ = std::exchange(other.pool_, nullptr);
    frame_ = std::exchange(other.frame_, 0);
    page_no_ = std::exchange(other.page_no_, 0);
    data_ = std::exchange(other.data_, nullptr);
  }
  return *this;
}

PageRef::~PageRef() {
  if (pool_ != nullptr) pool_->Unpin(frame_);
}

BufferPool::BufferPool(size_t page_bytes, size_t num_frames)
    : page_bytes_(page_bytes), num_frames_(std::max<size_t>(1, num_frames)) {
  PRIVHP_CHECK(page_bytes > 0);
  frames_.resize(num_frames_);
  arena_.resize(page_bytes_ * num_frames_);
  MutexLock lock(mu_);
  resident_.reserve(num_frames_);
  // Every frame starts free, listed in index order from the cold end, so
  // the first misses fill frames 0, 1, 2, ...
  for (size_t i = 0; i < num_frames_; ++i) LinkLocked(i, /*hot=*/true);
}

size_t BufferPool::PickVictimLocked() const {
  // Every frame colder than the victim is pinned.
  size_t i = cold_;
  while (i != kNoFrame && frames_[i].pins > 0) i = frames_[i].next;
  return i == kNoFrame ? frames_.size() : i;
}

void BufferPool::UnlinkLocked(size_t frame) {
  Frame& f = frames_[frame];
  (f.prev == kNoFrame ? cold_ : frames_[f.prev].next) = f.next;
  (f.next == kNoFrame ? hot_ : frames_[f.next].prev) = f.prev;
}

void BufferPool::LinkLocked(size_t frame, bool hot) {
  Frame& f = frames_[frame];
  size_t& end = hot ? hot_ : cold_;
  (hot ? f.prev : f.next) = end;
  (hot ? f.next : f.prev) = kNoFrame;
  if (end == kNoFrame) {
    cold_ = hot_ = frame;
    return;
  }
  (hot ? frames_[end].next : frames_[end].prev) = frame;
  end = frame;
}

Result<PageRef> BufferPool::Fetch(uint64_t page_no, const PageLoader& loader) {
  MutexLock lock(mu_);
  auto it = resident_.find(page_no);
  if (it != resident_.end()) {
    const size_t frame = it->second;
    ++frames_[frame].pins;
    UnlinkLocked(frame);
    LinkLocked(frame, /*hot=*/true);
    ++stats_.hits;
    return PageRef(this, frame, page_no, arena_.data() + frame * page_bytes_);
  }
  ++stats_.misses;

  const size_t victim = PickVictimLocked();
  if (victim == frames_.size()) {
    return Status::FailedPrecondition(
        "buffer pool exhausted: every frame is pinned (" +
        std::to_string(frames_.size()) + " frames)");
  }
  Frame& f = frames_[victim];
  if (f.occupied) {
    resident_.erase(f.page_no);
    f.occupied = false;
    ++stats_.evictions;
  }
  UnlinkLocked(victim);
  uint8_t* dst = arena_.data() + victim * page_bytes_;
  const Status loaded = loader(dst);
  if (!loaded.ok()) {
    LinkLocked(victim, /*hot=*/false);  // free, so the next miss takes it
    return loaded;
  }
  f.page_no = page_no;
  f.occupied = true;
  f.pins = 1;
  LinkLocked(victim, /*hot=*/true);
  resident_.emplace(page_no, victim);
  return PageRef(this, victim, page_no, dst);
}

void BufferPool::Unpin(size_t frame) {
  MutexLock lock(mu_);
  PRIVHP_DCHECK(frame < frames_.size());
  PRIVHP_DCHECK(frames_[frame].pins > 0);
  --frames_[frame].pins;
}

size_t BufferPool::MemoryBytes() const {
  MutexLock lock(mu_);
  return sizeof(*this) + arena_.capacity() +
         frames_.capacity() * sizeof(Frame) +
         resident_.size() * (sizeof(uint64_t) + sizeof(size_t));
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  {
    MutexLock lock(mu_);
    s = stats_;
  }
  s.checksum_verifies = checksum_verifies_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace storage
}  // namespace privhp

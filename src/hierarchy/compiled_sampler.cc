#include "hierarchy/compiled_sampler.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/simd.h"

namespace privhp {

CompiledSampler::CompiledSampler(const PartitionTree& tree)
    : domain_(tree.domain()) {
  const std::vector<NodeId> leaves = tree.Leaves();
  // One slot per leaf at most: reserving it keeps MemoryBytes() within
  // MemoryBytesBound().
  cells_.reserve(leaves.size());
  std::vector<double> masses;
  masses.reserve(leaves.size());
  for (NodeId id : leaves) {
    const TreeNode& n = tree.node(id);
    if (n.count > 0.0) {
      cells_.push_back(n.cell);
      masses.push_back(n.count);
      total_mass_ += n.count;
    }
  }
  if (cells_.empty() || total_mass_ <= 0.0) {
    // Uniform fallback over the whole domain: a single slot holding the
    // root cell, same degenerate behaviour as TreeSampler.
    cells_.assign(1, CellId{0, 0});
    accept_.assign(1, 1.0);
    alias_.assign(1, 0);
    total_mass_ = 0.0;
    BuildBoundsTables();
    return;
  }

  // Vose's alias method: scale masses so the mean slot weight is 1, then
  // pair each underfull slot with an overfull donor. O(n) build, exact
  // (every slot ends with its own probability plus one alias).
  const size_t n = cells_.size();
  PRIVHP_CHECK(n <= static_cast<size_t>(UINT32_MAX));
  accept_.assign(n, 1.0);
  alias_.resize(n);
  for (size_t i = 0; i < n; ++i) alias_[i] = static_cast<uint32_t>(i);

  std::vector<double> scaled(n);
  const double scale = static_cast<double>(n) / total_mass_;
  for (size_t i = 0; i < n; ++i) scaled[i] = masses[i] * scale;

  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    const uint32_t l = large.back();
    small.pop_back();
    large.pop_back();
    accept_[s] = scaled[s];
    alias_[s] = l;
    // The donor gives away (1 - scaled[s]) of its weight.
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers (either list) are exactly-full slots up to rounding; their
  // accept probability stays 1, alias self.
  for (uint32_t i : small) accept_[i] = 1.0;
  for (uint32_t i : large) accept_[i] = 1.0;
  BuildBoundsTables();
}

CompiledSampler CompiledSampler::Borrow(const Domain* domain,
                                        const CompiledTableView& view,
                                        double total_mass) {
  PRIVHP_CHECK(domain != nullptr);
  PRIVHP_CHECK(view.cells != nullptr && view.accept != nullptr &&
               view.alias != nullptr && view.num_slots > 0);
  // Bounds tables come as a pair or not at all.
  PRIVHP_CHECK((view.slot_lo != nullptr) == (view.slot_ext != nullptr));
  CompiledSampler s;
  s.domain_ = domain;
  s.total_mass_ = total_mass;
  s.dim_ = domain->dimension();
  s.has_bounds_ = view.slot_lo != nullptr;
  s.borrowed_ = true;
  s.view_ = view;
  return s;
}

CompiledSampler::CompiledSampler(const CompiledSampler& other)
    : domain_(other.domain_),
      cells_(other.cells_),
      accept_(other.accept_),
      alias_(other.alias_),
      total_mass_(other.total_mass_),
      dim_(other.dim_),
      has_bounds_(other.has_bounds_),
      slot_lo_(other.slot_lo_),
      slot_ext_(other.slot_ext_),
      borrowed_(other.borrowed_),
      view_(other.view_) {
  if (!borrowed_) RefreshView();
}

CompiledSampler& CompiledSampler::operator=(const CompiledSampler& other) {
  if (this != &other) {
    domain_ = other.domain_;
    cells_ = other.cells_;
    accept_ = other.accept_;
    alias_ = other.alias_;
    total_mass_ = other.total_mass_;
    dim_ = other.dim_;
    has_bounds_ = other.has_bounds_;
    slot_lo_ = other.slot_lo_;
    slot_ext_ = other.slot_ext_;
    borrowed_ = other.borrowed_;
    view_ = other.view_;
    if (!borrowed_) RefreshView();
  }
  return *this;
}

void CompiledSampler::RefreshView() {
  view_.cells = cells_.data();
  view_.accept = accept_.data();
  view_.alias = alias_.data();
  view_.num_slots = cells_.size();
  view_.slot_lo = has_bounds_ ? slot_lo_.data() : nullptr;
  view_.slot_ext = has_bounds_ ? slot_ext_.data() : nullptr;
}

void CompiledSampler::BuildBoundsTables() {
  dim_ = domain_->dimension();
  const size_t n = cells_.size() * static_cast<size_t>(dim_);
  slot_lo_.resize(n);
  slot_ext_.resize(n);
  // The slots are the tree's leaves in pre-order, the order the batched
  // bounds walk shares the most bisections in. slot_ext_ receives the
  // upper bounds first.
  has_bounds_ = domain_->CellBoundsBatch(cells_.data(), cells_.size(),
                                         slot_lo_.data(), slot_ext_.data());
  if (!has_bounds_) {
    slot_lo_.clear();
    slot_ext_.clear();
  }
  // Exactly the (hi - lo) SampleCell forms per draw, computed once.
  for (size_t j = 0; j < slot_ext_.size(); ++j) slot_ext_[j] -= slot_lo_[j];
  RefreshView();
}

Status CompiledSampler::SampleTo(size_t m, RandomEngine* rng,
                                 PointBatch* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("out batch must not be null");
  }
  out->Reset(dim_);
  if (m == 0) return Status::OK();
  out->Reserve(m);
  if (!has_bounds_) {
    // No closed-form cell bounds: per-point sampling into the arena.
    // Draw order is identical by construction.
    for (size_t i = 0; i < m; ++i) out->AppendPoint(Sample(rng));
    return Status::OK();
  }
  // Phase 1 (serial, RNG-ordered): resolve each point's slot and store
  // its raw uniform draws in the arena — exactly the draw sequence of m
  // Sample() calls. Phase 2 (vectorized): the in-cell affine transform
  // u -> lo + ext * u over the whole arena, which is bit-identical to
  // UniformDouble(lo, hi) per coordinate.
  thread_local std::vector<uint32_t> slots;
  slots.resize(m);
  double* rows = out->AppendRows(m);
  const size_t d = static_cast<size_t>(dim_);
  for (size_t i = 0; i < m; ++i) {
    slots[i] = SampleSlot(rng);
    double* row = rows + i * d;
    for (size_t c = 0; c < d; ++c) row[c] = rng->UniformDouble();
  }
  simd::InCellTransform(view_.slot_lo, view_.slot_ext, slots.data(),
                        dim_, m, rows);
  return Status::OK();
}

std::vector<Point> CompiledSampler::SampleBatch(size_t m,
                                                RandomEngine* rng) const {
  PointBatch batch;
  PRIVHP_CHECK(SampleTo(m, rng, &batch).ok());
  return batch.ToPoints();
}

namespace {

// GenerateTo chunk size: the bounded footprint of a streamed generation
// (chunk * dim doubles), large enough that the per-chunk virtual AddAll
// and the phase-2 kernel dispatch amortize away.
constexpr size_t kGenerateChunk = 1024;

}  // namespace

Status CompiledSampler::GenerateTo(size_t m, RandomEngine* rng,
                                   PointSink* sink) const {
  if (sink == nullptr) {
    return Status::InvalidArgument("sink must not be null");
  }
  PointBatch batch;
  for (size_t done = 0; done < m;) {
    const size_t n = std::min(kGenerateChunk, m - done);
    PRIVHP_RETURN_NOT_OK(SampleTo(n, rng, &batch));
    PRIVHP_RETURN_NOT_OK(sink->AddAll(batch));
    done += n;
  }
  return Status::OK();
}

size_t CompiledSampler::MemoryBytes() const {
  return sizeof(*this) + cells_.capacity() * sizeof(CellId) +
         accept_.capacity() * sizeof(double) +
         alias_.capacity() * sizeof(uint32_t) +
         (slot_lo_.capacity() + slot_ext_.capacity()) * sizeof(double);
}

size_t CompiledSampler::MemoryBytesBound(const PartitionTree& tree) {
  // Every node has 0 or 2 children, so N nodes hold (N + 1) / 2 leaves.
  // Each slot takes a cell, an accept probability, an alias and two
  // bounds rows (sized even when the domain has no closed-form bounds:
  // BuildBoundsTables clears them without freeing).
  const size_t leaves = (tree.num_nodes() + 1) / 2;
  const size_t dim = static_cast<size_t>(tree.domain()->dimension());
  return sizeof(CompiledSampler) +
         leaves * (sizeof(CellId) + sizeof(double) + sizeof(uint32_t) +
                   2 * dim * sizeof(double));
}

}  // namespace privhp

#include "core/shard.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/bits.h"
#include "common/macros.h"

namespace privhp {

uint64_t SketchHashSeed(uint64_t plan_seed, int level) {
  return Mix64(plan_seed ^
               (0x632be59bd9b4e019ULL + static_cast<uint64_t>(level)));
}

PrivHPShard::PrivHPShard(const Domain* domain, ResolvedPlan plan)
    : domain_(domain), plan_(std::move(plan)) {}

Result<PrivHPShard> PrivHPShard::Make(const Domain* domain,
                                      const ResolvedPlan& plan) {
  if (domain == nullptr) {
    return Status::InvalidArgument("domain must not be null");
  }
  PRIVHP_RETURN_NOT_OK(CheckCompleteDepth(domain, plan.l_star));
  PrivHPShard shard(domain, plan);
  shard.counts_.assign((size_t{2} << plan.l_star) - 1, 0.0);
  shard.sketches_.reserve(plan.l_max - plan.l_star);
  for (int l = plan.l_star + 1; l <= plan.l_max; ++l) {
    PRIVHP_ASSIGN_OR_RETURN(
        CountMinSketch sketch,
        CountMinSketch::Make(plan.sketch_width, plan.sketch_depth,
                             SketchHashSeed(plan.seed, l)));
    shard.sketches_.push_back(std::move(sketch));
  }
  return shard;
}

Status PrivHPShard::Add(const Point& x) {
  PRIVHP_RETURN_NOT_OK(domain_->ValidatePoint(x));
  // Lines 10-15: one root-to-leaf path of counter increments and sketch
  // updates.
  domain_->LocatePath(x, plan_.l_max, &path_scratch_);
  for (int l = 0; l <= plan_.l_star; ++l) {
    counts_[CompleteNodeId(l, path_scratch_[l])] += 1.0;
  }
  for (int l = plan_.l_star + 1; l <= plan_.l_max; ++l) {
    sketches_[l - plan_.l_star - 1].Update(path_scratch_[l], 1.0);
  }
  ++num_processed_;
  return Status::OK();
}

namespace {

// Sorts keys[0..n), each below 2^bits, ascending: a stable LSD radix sort
// on 8-bit digits that ping-pongs between \p keys and \p tmp. One pass
// over the keys builds every digit's histogram, and a digit every key
// shares costs no pass. Returns whichever buffer holds the sorted keys.
uint64_t* RadixSortKeys(uint64_t* keys, uint64_t* tmp, size_t n, int bits) {
  constexpr int kDigitBits = 8;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr uint64_t kMask = kBuckets - 1;
  const int passes = (bits + kDigitBits - 1) / kDigitBits;
  PRIVHP_DCHECK(passes <= 8);
  uint32_t hist[8][kBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int p = 0; p < passes; ++p) {
      ++hist[p][(keys[i] >> (p * kDigitBits)) & kMask];
    }
  }
  for (int p = 0; p < passes; ++p) {
    const int shift = p * kDigitBits;
    uint32_t* offsets = hist[p];
    if (offsets[(keys[0] >> shift) & kMask] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = offsets[b];
      offsets[b] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      tmp[offsets[(keys[i] >> shift) & kMask]++] = keys[i];
    }
    std::swap(keys, tmp);
  }
  return keys;
}

// Merges runs of equal keys: key i is in[i] >> shift with run length
// runs[i], and the shifted keys are sorted, so equal ones are adjacent.
// Writes the distinct keys to \p out and their summed runs back into
// \p runs, and returns their number. \p out may be \p in: the write index
// never passes the read index. Branch-free, because whether a key starts
// a new run is a coin flip at the middle levels.
size_t MergeRuns(const uint64_t* in, int shift, size_t m, uint64_t* out,
                 uint32_t* runs) {
  uint64_t key = in[0] >> shift;
  uint32_t run = runs[0];
  size_t last = 0;
  for (size_t i = 1; i < m; ++i) {
    const uint64_t next = in[i] >> shift;
    const uint32_t next_run = runs[i];
    out[last] = key;
    runs[last] = run;
    const bool starts = next != key;
    last += starts;
    run = starts ? next_run : run + next_run;
    key = next;
  }
  out[last] = key;
  runs[last] = run;
  return last + 1;
}

}  // namespace

bool PrivHPShard::SortsWindow(const ResolvedPlan& plan,
                              const uint64_t* leaf_keys, size_t n) {
  PRIVHP_DCHECK(n <= kWindow);
  if (n < kMinSortedWindow) return false;
  // Probe the shallowest sketch level: it repeats most among the levels
  // whose updates are expensive (with no sketch levels, the deepest
  // counters). Linear counting: each key at that level sets one bit of a
  // bitmap, and with Z of its B bits still clear, -B ln(Z / B) estimates
  // the number of distinct keys. The bit comes from Mix64, not from a
  // multiplicative hash: the latter spreads a dense key range evenly
  // over the bitmap, so it collides less than at random and inflated
  // the estimate of a uniform 16K window from 79% to 96% distinct.
  // Sorting a full window paid at 79% distinct and lost at 89%.
  constexpr double kMaxDistinctShare = 0.85;
  constexpr int kLogBits = 14;
  constexpr size_t kBits = size_t{1} << kLogBits;
  const int shift = std::max(0, plan.l_max - plan.l_star - 1);
  uint64_t bitmap[kBits / 64] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bit = Mix64(leaf_keys[i] >> shift) >> (64 - kLogBits);
    bitmap[bit / 64] |= uint64_t{1} << (bit % 64);
  }
  size_t set = 0;
  for (uint64_t word : bitmap) set += static_cast<size_t>(PopCount64(word));
  // Distinct < share * n  <=>  Z > B exp(-share * n / B).
  const double bits = static_cast<double>(kBits);
  const double clear = static_cast<double>(kBits - set);
  const double max_distinct = kMaxDistinctShare * static_cast<double>(n);
  return clear > bits * std::exp(-max_distinct / bits);
}

void PrivHPShard::AddWindow(const double* flat, size_t n) {
  PRIVHP_DCHECK(n >= 1 && n <= keys_.size());
  uint64_t* keys = keys_.data();
  uint32_t* runs = runs_.data();
  domain_->LocateBatch(flat, domain_->dimension(), n, plan_.l_max, keys);
  std::fill(runs, runs + n, 1u);
  if (!SortsWindow(plan_, keys, n)) {
    // Update every level once per point, as Add() does, shifting the
    // keys up one level at a time.
    for (int l = plan_.l_max;; --l) {
      if (l > plan_.l_star) {
        sketches_[l - plan_.l_star - 1].AddCounts(keys, runs, n,
                                                  lanes_.data());
      } else {
        for (size_t i = 0; i < n; ++i) {
          counts_[CompleteNodeId(l, keys[i])] += 1.0;
        }
      }
      if (l == 0) break;
      for (size_t i = 0; i < n; ++i) keys[i] >>= 1;
    }
    return;
  }
  // Sort and run-length encode the leaf keys, then walk up the levels:
  // each distinct (level, key) gets one update of its run length. Keys
  // stay sorted under the shift, so merging equal neighbours yields the
  // next level's distinct keys. The order only groups: each run still
  // carries its exact count, so an unmerged repeat would cost an extra
  // update, never a wrong one.
  const uint64_t* sorted =
      RadixSortKeys(keys, sort_scratch_.data(), n, plan_.l_max);
  size_t m = MergeRuns(sorted, 0, n, keys, runs);
  for (int l = plan_.l_max;; --l) {
    if (l > plan_.l_star) {
      sketches_[l - plan_.l_star - 1].AddCounts(keys, runs, m,
                                                lanes_.data());
    } else {
      for (size_t i = 0; i < m; ++i) {
        counts_[CompleteNodeId(l, keys[i])] += runs[i];
      }
    }
    if (l == 0) break;
    m = MergeRuns(keys, 1, m, keys, runs);
  }
}

Status PrivHPShard::AddBatch(const PointBatch& batch) {
  const size_t count = batch.size();
  if (count == 0) return Status::OK();
  // Validate the whole batch before mutating anything, so a bad point
  // anywhere in the batch leaves the shard untouched instead of
  // half-mutated. On box domains this is one SIMD bounds scan over the
  // arena.
  PRIVHP_RETURN_NOT_OK(domain_->ValidateBatch(batch));
  const size_t window = std::min(count, kWindow);
  if (keys_.size() < window) {
    keys_.resize(window);
    sort_scratch_.resize(window);
    runs_.resize(window);
  }
  if (lanes_.empty() && !sketches_.empty()) {
    lanes_.resize(sketches_.front().LaneCount());
  }
  const size_t d = static_cast<size_t>(batch.dim());
  for (size_t base = 0; base < count; base += kWindow) {
    AddWindow(batch.data() + base * d, std::min(kWindow, count - base));
  }
  num_processed_ += count;
  return Status::OK();
}

Status PrivHPShard::Merge(PrivHPShard&& other) {
  if (other.domain_ != domain_) {
    return Status::InvalidArgument(
        "cannot merge shards over different domains");
  }
  if (other.plan_.seed != plan_.seed || other.plan_.l_star != plan_.l_star ||
      other.plan_.l_max != plan_.l_max ||
      other.plan_.sketch_width != plan_.sketch_width ||
      other.plan_.sketch_depth != plan_.sketch_depth) {
    return Status::InvalidArgument(
        "cannot merge shards built from different plans (" +
        plan_.ToString() + " vs " + other.plan_.ToString() + ")");
  }
  // Same plan, same domain, yet a moved-from shard (one already
  // absorbed, say) has no state left: refuse it before adding anything.
  if (other.counts_.size() != counts_.size() ||
      other.sketches_.size() != sketches_.size()) {
    return Status::InvalidArgument(
        "cannot merge a shard with " + std::to_string(other.counts_.size()) +
        " counters and " + std::to_string(other.sketches_.size()) +
        " sketches into one with " + std::to_string(counts_.size()) +
        " and " + std::to_string(sketches_.size()) +
        " (was it already merged?)");
  }
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  for (size_t i = 0; i < sketches_.size(); ++i) {
    PRIVHP_RETURN_NOT_OK(sketches_[i].Merge(other.sketches_[i]));
  }
  num_processed_ += other.num_processed_;
  return Status::OK();
}

size_t PrivHPShard::MemoryBytes() const {
  size_t bytes = counts_.size() * sizeof(double);
  for (const CountMinSketch& s : sketches_) bytes += s.MemoryBytes();
  return bytes;
}

}  // namespace privhp

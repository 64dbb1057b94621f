#include "baselines/nonprivate.h"

#include <utility>

#include "common/macros.h"
#include "core/builder.h"

namespace privhp {

NonPrivateResampler::NonPrivateResampler(std::vector<Point> data)
    : data_(std::move(data)) {
  PRIVHP_CHECK(!data_.empty());
}

Status NonPrivateResampler::Add(const Point& x) {
  data_.push_back(x);
  return Status::OK();
}

Status NonPrivateResampler::Add(Point&& x) {
  data_.push_back(std::move(x));
  return Status::OK();
}

std::vector<Point> NonPrivateResampler::Generate(size_t m,
                                                 RandomEngine* rng) const {
  std::vector<Point> out;
  if (data_.empty()) return out;
  out.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    out.push_back(data_[rng->UniformInt(data_.size())]);
  }
  return out;
}

size_t NonPrivateResampler::BuildMemoryBytes() const {
  size_t bytes = sizeof(*this);
  if (!data_.empty()) {
    bytes += data_.size() * (sizeof(Point) + data_[0].size() * sizeof(double));
  }
  return bytes;
}

namespace {

class PrivHPSource : public SyntheticDataSource {
 public:
  PrivHPSource(PrivHPGenerator generator, size_t peak_builder_bytes)
      : generator_(std::move(generator)),
        peak_builder_bytes_(peak_builder_bytes) {}

  std::vector<Point> Generate(size_t m, RandomEngine* rng) const override {
    return generator_.Generate(m, rng);
  }
  size_t BuildMemoryBytes() const override { return peak_builder_bytes_; }
  std::string Name() const override {
    return "privhp(k=" + std::to_string(generator_.plan().k) + ")";
  }

  const PrivHPGenerator& generator() const { return generator_; }

 private:
  PrivHPGenerator generator_;
  size_t peak_builder_bytes_;
};

}  // namespace

Result<std::unique_ptr<SyntheticDataSource>> BuildPrivHPSource(
    const Domain* domain, const std::vector<Point>& data,
    PrivHPOptions options) {
  if (options.expected_n == 0) {
    options.expected_n = data.size();
  }
  PRIVHP_ASSIGN_OR_RETURN(PrivHPBuilder builder,
                          PrivHPBuilder::Make(domain, options));
  PRIVHP_RETURN_NOT_OK(
      builder.AddAll(PointBatch::FromPoints(data, domain->dimension())));
  const size_t peak = builder.MemoryBytes();
  PRIVHP_ASSIGN_OR_RETURN(PrivHPGenerator generator,
                          std::move(builder).Finish());
  return std::unique_ptr<SyntheticDataSource>(
      new PrivHPSource(std::move(generator), peak));
}

}  // namespace privhp

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>

#include "bench.h"
#include "common/random.h"

namespace perfbench {

using privhp::Point;
using privhp::PointBatch;
using privhp::Result;
using privhp::Status;

privhp::PrivHPOptions ShippedPlan(uint64_t n) {
  privhp::PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = 32;
  options.seed = 42;
  options.expected_n = n;
  return options;
}

// ---------------------------------------------------------------- Report

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_.size() < 16) failures_.push_back(what);
}

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info_[key] = buf;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Emit() const {
  std::string values;
  for (const auto& [name, value] : metrics_) {
    if (!values.empty()) values += ", ";
    values += JsonString(name) + ": " + JsonNumber(value);
  }
  std::string record;
  for (const auto& [key, value] : info_) {
    if (!record.empty()) record += ", ";
    record += JsonString(key) + ": " + JsonString(value);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& f : failures_) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
  }
  std::printf("{\"record\": {%s}}\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"values\": {%s}}\n",
              failed_ == 0 ? "true" : "false", attempted_.load(),
              failed_.load(), values.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ ZipfStream

PointBatch ZipfStream(size_t n, uint64_t seed) {
  constexpr size_t kCells = size_t{1} << 16;
  constexpr double kExponent = 1.1;
  // The popularity map is part of the workload definition, not of the
  // seed: rank r goes to a cell fixed by a constant-seeded shuffle, so
  // every seed draws from the same distribution.
  std::vector<uint32_t> cell_of_rank(kCells);
  for (size_t i = 0; i < kCells; ++i) cell_of_rank[i] = static_cast<uint32_t>(i);
  privhp::RandomEngine layout(0x5eed0f2e11ULL);
  for (size_t i = kCells - 1; i > 0; --i) {
    std::swap(cell_of_rank[i], cell_of_rank[layout.UniformInt(i + 1)]);
  }
  std::vector<double> cdf(kCells);
  double total = 0.0;
  for (size_t r = 0; r < kCells; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kExponent);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  privhp::RandomEngine rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  PointBatch batch(1);
  batch.Reserve(n);
  double* out = batch.AppendRows(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.UniformDouble();
    const size_t rank = std::min<size_t>(
        kCells - 1, std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out[i] = (cell_of_rank[rank] + rng.UniformDouble()) /
             static_cast<double>(kCells);
  }
  return batch;
}

// ---------------------------------------------------------- StagedSource

Result<bool> StagedSource::Next(Point* out) {
  if (next_ >= data_->size()) return false;
  *out = data_->At(next_++);
  return true;
}

Result<size_t> StagedSource::NextBatch(size_t max_points, PointBatch* out) {
  const Clock::time_point called = Clock::now();
  if (!started_) {
    started_ = true;
    first_call_ = called;
  } else {
    wait_s_ += SecondsBetween(last_return_, called);
  }
  out->Reset(data_->dim());
  const size_t take = std::min(max_points, data_->size() - next_);
  if (take > 0) {
    out->AppendFlat(data_->row(next_), take);
    next_ += take;
    ++batches_;
  }
  last_return_ = Clock::now();
  if (take == 0) end_of_stream_ = last_return_;
  return take;
}

// -------------------------------------------------------------- HashSink

void HashSink::Mix(const double* coords, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &coords[i], sizeof(bits));
    hash_ = (hash_ ^ bits) * 0x100000001b3ULL;
    hash_ ^= hash_ >> 29;
  }
}

Status HashSink::Add(const Point& x) {
  Mix(x.data(), x.size());
  ++count_;
  return Status::OK();
}

Status HashSink::AddAll(const PointBatch& batch) {
  Mix(batch.data(), batch.size() * static_cast<size_t>(batch.dim()));
  count_ += batch.size();
  return Status::OK();
}

// ------------------------------------------------------------- Quantile

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// --------------------------------------------------------------- PeakRss

namespace {

// A "Vm...:  <n> kB" line of /proc/self/status, in bytes.
uint64_t StatusBytes(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field.size(), field) == 0 &&
        line.size() > field.size() && line[field.size()] == ':') {
      return std::strtoull(line.c_str() + field.size() + 1, nullptr, 10) *
             1024;
    }
  }
  return 0;
}

}  // namespace

PeakRss::PeakRss() : baseline_(StatusBytes("VmRSS")) { Reset(); }

void PeakRss::Reset() {
  // 5 resets the peak RSS to the current RSS.
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  ok_ = ok_ && clear_refs.good();
}

double PeakRss::EndWindow() {
  const uint64_t peak = StatusBytes("VmHWM");
  Reset();
  return static_cast<double>(peak - std::min(peak, baseline_)) /
         (1024.0 * 1024.0);
}

// --------------------------------------------------------------- Windows

namespace {

// Stolen and total CPU ticks of the whole machine (/proc/stat "cpu").
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    stat >> ticks;
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

}  // namespace

Windows::Windows() {
  std::tie(last_steal_, last_total_) = CpuTicks();
  bounds_.push_back(Clock::now());
}

void Windows::Close() {
  const auto [steal, total] = CpuTicks();
  bounds_.push_back(Clock::now());
  steal_.push_back(total > last_total_
                       ? static_cast<double>(steal - last_steal_) /
                             static_cast<double>(total - last_total_)
                       : 0.0);
  last_steal_ = steal;
  last_total_ = total;
}

std::vector<bool> Windows::CleanMask() const {
  constexpr double kCleanSteal = 0.02;
  const size_t n = steal_.size();
  std::vector<bool> clean(n);
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    clean[i] = steal_[i] <= kCleanSteal;
    count += clean[i];
  }
  const size_t wanted = (n + 1) / 2;
  if (count < wanted) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return steal_[a] < steal_[b]; });
    clean.assign(n, false);
    for (size_t i = 0; i < wanted; ++i) clean[order[i]] = true;
  }
  return clean;
}

int Windows::Find(Clock::time_point t) const {
  if (bounds_.size() < 2 || t < bounds_.front() || t >= bounds_.back()) {
    return -1;
  }
  return static_cast<int>(
      std::upper_bound(bounds_.begin(), bounds_.end(), t) - bounds_.begin() -
      1);
}

double Windows::Quantile(const Events& samples, double q) const {
  const std::vector<bool> clean = CleanMask();
  std::vector<double> values;
  for (const auto& [at, value] : samples) {
    const int w = Find(at);
    if (w >= 0 && clean[w]) values.push_back(value);
  }
  return perfbench::Quantile(std::move(values), q);
}

std::vector<double> Windows::CleanValues(
    const std::vector<double>& per_window) const {
  const std::vector<bool> clean = CleanMask();
  std::vector<double> values;
  for (size_t i = 0; i < clean.size() && i < per_window.size(); ++i) {
    if (clean[i]) values.push_back(per_window[i]);
  }
  return values;
}

size_t Windows::clean_count() const {
  const std::vector<bool> clean = CleanMask();
  return static_cast<size_t>(std::count(clean.begin(), clean.end(), true));
}

double Windows::clean_steal() const {
  const std::vector<bool> clean = CleanMask();
  double sum = 0.0;
  for (size_t i = 0; i < clean.size(); ++i) {
    if (clean[i]) sum += steal_[i];
  }
  const size_t n = clean_count();
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace perfbench

#include "eval/workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"
#include "domain/hypercube_domain.h"
#include "domain/ipv4_domain.h"

namespace privhp {

std::vector<double> ZipfMasses(size_t m, double exponent) {
  PRIVHP_CHECK(m >= 1);
  std::vector<double> masses(m);
  double total = 0.0;
  for (size_t i = 0; i < m; ++i) {
    masses[i] = std::pow(static_cast<double>(i + 1), -exponent);
    total += masses[i];
  }
  for (double& v : masses) v /= total;
  return masses;
}

namespace {

// Draws an index from a normalized mass vector via its CDF.
size_t SampleIndex(const std::vector<double>& masses, RandomEngine* rng) {
  double u = rng->UniformDouble();
  for (size_t i = 0; i < masses.size(); ++i) {
    u -= masses[i];
    if (u <= 0.0) return i;
  }
  return masses.size() - 1;
}

}  // namespace

std::vector<Point> GenerateUniform(int d, size_t n, RandomEngine* rng) {
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p(d);
    for (double& c : p) c = rng->UniformDouble();
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<Point> GenerateGaussianMixture(int d, size_t n, size_t clusters,
                                           double stddev, RandomEngine* rng) {
  PRIVHP_CHECK(clusters >= 1);
  std::vector<Point> centers;
  centers.reserve(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    Point center(d);
    for (double& x : center) x = rng->UniformDouble(0.15, 0.85);
    centers.push_back(std::move(center));
  }
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point& center = centers[rng->UniformInt(clusters)];
    Point p(d);
    for (int c = 0; c < d; ++c) {
      double v = rng->Gaussian(center[c], stddev);
      p[c] = std::clamp(v, 0.0, std::nextafter(1.0, 0.0));
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<Point> GenerateZipfCells(int d, size_t n, int level,
                                     double exponent, RandomEngine* rng) {
  HypercubeDomain domain(d);
  PRIVHP_CHECK(level >= 1 && level <= 24);
  const size_t num_cells = size_t{1} << level;
  std::vector<double> masses = ZipfMasses(num_cells, exponent);
  // Random cell permutation so mass is not spatially sorted.
  std::vector<uint64_t> cells(num_cells);
  std::iota(cells.begin(), cells.end(), 0);
  for (size_t i = num_cells - 1; i > 0; --i) {
    std::swap(cells[i], cells[rng->UniformInt(i + 1)]);
  }
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t cell = cells[SampleIndex(masses, rng)];
    out.push_back(domain.SampleCell(level, cell, rng));
  }
  return out;
}

std::vector<Point> GenerateSparseAtoms(int d, size_t n, size_t support_size,
                                       RandomEngine* rng) {
  PRIVHP_CHECK(support_size >= 1);
  std::vector<Point> atoms;
  atoms.reserve(support_size);
  for (size_t i = 0; i < support_size; ++i) {
    Point p(d);
    for (double& c : p) c = rng->UniformDouble();
    atoms.push_back(std::move(p));
  }
  const std::vector<double> masses = ZipfMasses(support_size, 1.1);
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(atoms[SampleIndex(masses, rng)]);
  }
  return out;
}

std::vector<Point> GenerateIpv4Trace(size_t n, size_t heavy_prefixes,
                                     double exponent, RandomEngine* rng) {
  PRIVHP_CHECK(heavy_prefixes >= 1 && heavy_prefixes <= 256);
  // Heavy /8s, then skewed /16s inside each, then uniform hosts.
  std::vector<uint32_t> slash8(heavy_prefixes);
  for (auto& p : slash8) p = static_cast<uint32_t>(rng->UniformInt(256));
  const std::vector<double> p8 = ZipfMasses(heavy_prefixes, exponent);
  const std::vector<double> p16 = ZipfMasses(64, exponent);
  std::vector<uint32_t> slash16_offsets(64);
  for (auto& o : slash16_offsets) {
    o = static_cast<uint32_t>(rng->UniformInt(256));
  }

  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t a = slash8[SampleIndex(p8, rng)];
    const uint32_t b = slash16_offsets[SampleIndex(p16, rng)];
    const uint32_t host = static_cast<uint32_t>(rng->UniformInt(1u << 16));
    out.push_back(Ipv4Domain::FromAddress((a << 24) | (b << 16) | host));
  }
  return out;
}

std::vector<Point> GenerateGeoHotspots(double lat_min, double lat_max,
                                       double lon_min, double lon_max,
                                       size_t n, size_t hotspots,
                                       RandomEngine* rng) {
  PRIVHP_CHECK(hotspots >= 1);
  const double lat_span = lat_max - lat_min;
  const double lon_span = lon_max - lon_min;
  std::vector<Point> centers;
  centers.reserve(hotspots);
  for (size_t h = 0; h < hotspots; ++h) {
    centers.push_back(Point{lat_min + lat_span * rng->UniformDouble(0.2, 0.8),
                            lon_min + lon_span * rng->UniformDouble(0.2, 0.8)});
  }
  const double sigma_lat = 0.02 * lat_span;
  const double sigma_lon = 0.02 * lon_span;
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.8)) {
      const Point& c = centers[rng->UniformInt(hotspots)];
      const double lat = std::clamp(rng->Gaussian(c[0], sigma_lat), lat_min,
                                    std::nextafter(lat_max, lat_min));
      const double lon = std::clamp(rng->Gaussian(c[1], sigma_lon), lon_min,
                                    std::nextafter(lon_max, lon_min));
      out.push_back(Point{lat, lon});
    } else {
      out.push_back(
          Point{rng->UniformDouble(lat_min, lat_max),
                rng->UniformDouble(lon_min, lon_max)});
    }
  }
  return out;
}

}  // namespace privhp

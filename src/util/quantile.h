// Sample quantile shared by the bench reports and the multi-group server's
// aggregates, so every reported p50/p95/p99 follows one convention.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sgk {

/// Quantile of a sample with linear interpolation between order statistics
/// (the convention docs/observability.md documents); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace sgk

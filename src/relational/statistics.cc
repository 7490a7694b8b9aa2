#include "relational/statistics.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace raven::relational {

namespace {

constexpr std::int64_t kDistinctCap = 64;

// Strict weak ordering over doubles that places all NaNs in a single
// equivalence class after every real number. std::set<double> with the
// default `<` violates its ordering contract the moment a NaN is inserted
// (NaN < x and x < NaN are both false, yet NaN "equals" nothing), which is
// undefined behavior — this comparator keeps the set well-formed.
struct NanSafeLess {
  bool operator()(double a, double b) const {
    if (std::isnan(a)) return false;
    if (std::isnan(b)) return true;
    return a < b;
  }
};

}  // namespace

ColumnStats ComputeColumnStats(const Column& column) {
  // The zone summary's `constant` (min == max, all finite) is exactly "one
  // distinct finite value": a constant column must be constant at a finite
  // value, since downstream predicate derivation turns `constant` into
  // `col = c`, and `col = NaN` is false for the very rows it describes.
  ColumnStats stats = ComputeZoneStats(column.data.data(), column.size());
  stats.distinct_exact = true;
  std::set<double, NanSafeLess> distinct;
  for (double v : column.data) {
    distinct.insert(v);
    if (static_cast<std::int64_t>(distinct.size()) > kDistinctCap) {
      stats.distinct_exact = false;
      break;
    }
  }
  stats.distinct = stats.distinct_exact
                       ? static_cast<std::int64_t>(distinct.size())
                       : kDistinctCap + 1;
  return stats;
}

ColumnStats ComputeZoneStats(const double* data, std::int64_t n) {
  ColumnStats stats;
  stats.num_rows = n;
  stats.distinct_exact = false;
  bool saw_finite = false;
  for (std::int64_t i = 0; i < n; ++i) {
    const double v = data[i];
    if (std::isfinite(v)) {
      if (!saw_finite) {
        stats.min = v;
        stats.max = v;
        saw_finite = true;
      } else {
        stats.min = std::min(stats.min, v);
        stats.max = std::max(stats.max, v);
      }
    } else {
      ++stats.non_finite_count;
      if (std::isnan(v)) ++stats.nan_count;
    }
  }
  stats.has_non_finite = stats.non_finite_count > 0;
  if (saw_finite && !stats.has_non_finite && stats.min == stats.max) {
    stats.constant = stats.min;
  }
  return stats;
}

std::map<std::string, ColumnStats> ComputeTableStats(const Table& table) {
  std::map<std::string, ColumnStats> out;
  for (const auto& column : table.columns()) {
    out[column.name] = ComputeColumnStats(column);
  }
  return out;
}

}  // namespace raven::relational

#ifndef RAVEN_RELATIONAL_STATISTICS_H_
#define RAVEN_RELATIONAL_STATISTICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/status.h"
#include "relational/table.h"

namespace raven::relational {

/// Per-column summary statistics used by data-property-derived predicate
/// pruning (paper §4.1: "Using data statistics, we might observe that only
/// specific unique values appear in the data ... we can derive predicates")
/// and by the storage layer as per-block zone maps.
///
/// min/max cover FINITE values only: NaN compares false against everything
/// (so std::min/std::max would silently poison the range) and ±inf would
/// make any derived range predicate vacuous. Non-finite values are counted
/// separately; consumers that derive or evaluate range predicates MUST
/// check `has_non_finite` before trusting min/max (a NaN row fails every
/// range comparison, so a block whose finite range excludes the predicate
/// may still hold rows a `<>` — or no predicate at all — would keep).
struct ColumnStats {
  /// Range of the finite values (meaningless when num_rows == nan_count +
  /// inf count, i.e. no finite value was seen; see has_finite()).
  double min = 0.0;
  double max = 0.0;
  std::int64_t num_rows = 0;
  /// Rows whose value is NaN (the engine's null sentinel in CSV ingest).
  std::int64_t nan_count = 0;
  /// Rows whose value is NaN or ±inf.
  std::int64_t non_finite_count = 0;
  /// True when any row is NaN or ±inf. Zone-map skipping and predicate
  /// derivation must treat such columns as unbounded.
  bool has_non_finite = false;
  /// Number of distinct values, tracked exactly up to a small cap
  /// (past the cap the column is treated as high-cardinality). NaNs are
  /// collapsed into a single distinct value.
  std::int64_t distinct = 0;
  bool distinct_exact = true;
  /// Set when the column holds a single FINITE value across all rows.
  std::optional<double> constant;

  /// True when at least one finite value contributed to min/max.
  bool has_finite() const { return num_rows > non_finite_count; }
};

/// Computes stats for one column: its ComputeZoneStats summary plus the
/// distinct count, exact up to a small cap.
ColumnStats ComputeColumnStats(const Column& column);

/// Zone map of `n` values: the finite min/max and the non-finite (and NaN)
/// counts only — no distinct-value set, so it costs one branch-light pass
/// and can be built per block on demand. `constant` is still exact: the
/// values are one finite number iff min == max and none is non-finite.
/// `distinct` is left unknown (0, inexact).
ColumnStats ComputeZoneStats(const double* data, std::int64_t n);

/// Computes stats for every column of a table.
std::map<std::string, ColumnStats> ComputeTableStats(const Table& table);

}  // namespace raven::relational

#endif  // RAVEN_RELATIONAL_STATISTICS_H_

#ifndef RAVEN_RELATIONAL_ZONE_MAP_H_
#define RAVEN_RELATIONAL_ZONE_MAP_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "relational/chunk.h"
#include "relational/expression.h"
#include "relational/statistics.h"
#include "relational/table.h"

namespace raven::relational {

/// The one zone-map skipping rule, shared by in-memory and on-disk scans:
/// true when a block summarized by `stats` may hold a row matching `pred`.
/// Deliberately conservative: only range/equality shapes consult min/max, a
/// block containing any non-finite value is NEVER skipped (NaN fails every
/// range comparison, so finite min/max says nothing about NaN rows under
/// `<>` or downstream re-evaluation), and an unknown column or stats entry
/// always matches. Skipping is an optimization only — the filter above the
/// scan still evaluates — so the single correctness obligation is to never
/// skip a block holding a matching row.
bool BlockMayMatch(const ColumnStats& stats, const SimplePredicate& pred);

/// Pushed-down conjuncts bound to the zone maps of one in-memory table
/// (see TableZoneMaps::Bind). Cheap to copy; valid while the table's
/// TableZoneMaps lives. A default-constructed filter has no conjuncts and
/// matches everything.
class ZoneFilter {
 public:
  bool empty() const { return terms_.empty(); }

  /// True unless every kChunkSize block overlapping rows [begin, end) is
  /// ruled out by some conjunct — the in-memory twin of the disk scan's
  /// per-block test, for ranges of any size and alignment.
  bool RangeMayMatch(std::int64_t begin, std::int64_t end) const;

 private:
  friend class TableZoneMaps;
  struct Term {
    const std::vector<ColumnStats>* blocks;  // one per kChunkSize block
    SimplePredicate pred;
  };
  std::vector<Term> terms_;
};

/// Per-block zone maps of one registered in-memory table: one ColumnStats
/// per column per kChunkSize block, holding only the finite min/max and the
/// non-finite count (see ComputeZoneStats). Each column's maps are built
/// once, the first time a pushed-down conjunct names the column, and are
/// never invalidated: registered table data is immutable. Thread-safe.
class TableZoneMaps {
 public:
  /// `table` must outlive this object (the catalog owns both).
  explicit TableZoneMaps(const Table& table);
  TableZoneMaps(const TableZoneMaps&) = delete;
  TableZoneMaps& operator=(const TableZoneMaps&) = delete;

  /// Binds `preds` to this table's zone maps, building the maps of the
  /// columns they name on first use. Conjuncts naming no column of the
  /// table are dropped: an unknown column can never justify a skip.
  ZoneFilter Bind(const std::vector<SimplePredicate>& preds) const;

 private:
  struct ColumnZones {
    std::once_flag built;
    std::vector<ColumnStats> blocks;
  };

  const Table& table_;
  mutable std::deque<ColumnZones> columns_;  // parallel to table_.columns()
};

}  // namespace raven::relational

#endif  // RAVEN_RELATIONAL_ZONE_MAP_H_

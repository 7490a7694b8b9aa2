#include "relational/zone_map.h"

#include <algorithm>
#include <cmath>

namespace raven::relational {

bool BlockMayMatch(const ColumnStats& stats, const SimplePredicate& pred) {
  // Non-finite rows are invisible to the finite min/max range, so no range
  // argument over it can exclude them (the NaN regression: a block of
  // {1, 2, NaN} must survive `col >= 100` because downstream semantics —
  // e.g. `<>` predicates or later pipeline stages — may keep NaN rows).
  if (stats.has_non_finite) return true;
  if (!stats.has_finite()) return true;  // empty/unknown: never skip
  if (!std::isfinite(pred.constant)) return true;
  switch (pred.op) {
    case CompareOp::kEq:
      return pred.constant >= stats.min && pred.constant <= stats.max;
    case CompareOp::kNe:
      // Skippable only when the whole block is one finite value equal to
      // the constant.
      return !(stats.constant.has_value() && *stats.constant == pred.constant);
    case CompareOp::kLt:
      return stats.min < pred.constant;
    case CompareOp::kLe:
      return stats.min <= pred.constant;
    case CompareOp::kGt:
      return stats.max > pred.constant;
    case CompareOp::kGe:
      return stats.max >= pred.constant;
  }
  return true;
}

bool ZoneFilter::RangeMayMatch(std::int64_t begin, std::int64_t end) const {
  if (terms_.empty() || begin >= end) return true;
  for (std::int64_t block = begin / kChunkSize;
       block <= (end - 1) / kChunkSize; ++block) {
    const auto b = static_cast<std::size_t>(block);
    bool may_match = true;
    for (const Term& term : terms_) {
      if (b >= term.blocks->size()) return true;  // no zone map: never skip
      if (!BlockMayMatch((*term.blocks)[b], term.pred)) {
        may_match = false;
        break;
      }
    }
    if (may_match) return true;
  }
  return false;
}

TableZoneMaps::TableZoneMaps(const Table& table) : table_(table) {
  for (std::int64_t c = 0; c < table.num_columns(); ++c) {
    columns_.emplace_back();
  }
}

ZoneFilter TableZoneMaps::Bind(const std::vector<SimplePredicate>& preds) const {
  ZoneFilter filter;
  for (const SimplePredicate& pred : preds) {
    auto index = table_.ColumnIndex(pred.column);
    if (!index.ok()) continue;
    const auto c = static_cast<std::size_t>(*index);
    ColumnZones& zones = columns_[c];
    std::call_once(zones.built, [&] {
      const std::vector<double>& data = table_.columns()[c].data;
      const auto rows = static_cast<std::int64_t>(data.size());
      zones.blocks.reserve(
          static_cast<std::size_t>((rows + kChunkSize - 1) / kChunkSize));
      for (std::int64_t begin = 0; begin < rows; begin += kChunkSize) {
        zones.blocks.push_back(ComputeZoneStats(
            data.data() + begin, std::min(kChunkSize, rows - begin)));
      }
    });
    filter.terms_.push_back(ZoneFilter::Term{&zones.blocks, pred});
  }
  return filter;
}

}  // namespace raven::relational

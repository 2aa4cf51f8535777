#ifndef GRANMINE_GRANULARITY_SUPPORT_H_
#define GRANMINE_GRANULARITY_SUPPORT_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "granmine/granularity/granularity.h"

namespace granmine {

/// The largest tick index a scan materializes. A table value that needs a
/// later tick has no value, and a coverage question that needs more source
/// ticks is answered "not covered" — both conservative (no bound derived,
/// no conversion made).
inline constexpr Tick kMaxScanTick = Tick{1} << 20;

/// One granularity's ticks over its scan window [1, W], with
/// W = LastDeviantTick() + ticks_per_period, walked once with TickExtent:
///
///  * every tick's hull (first piece's first instant, last piece's last);
///  * the support (the union of all extents) as sorted, coalesced
///    intervals, split where the periodic part starts.
///
/// Ticks past W follow the `Periodicity` contract — for z past the
/// exception window, tick z + ticks_per_period is tick z shifted by
/// `period` — so the window answers for every tick. Together the two lists
/// are the type's minimal periodic set (an exception prefix plus one
/// repeating period, after Bettini, Mascetti & Wang): table scans read the
/// hulls, coverage merges the interval lists (docs/granularities.md).
class SupportWindow {
 public:
  /// Walks `g`'s window; nullopt when W exceeds kMaxScanTick.
  static std::optional<SupportWindow> Walk(const Granularity& g);

  /// W: the number of walked ticks.
  Tick size() const { return static_cast<Tick>(hulls_.size()); }

  /// Hull of tick z >= 1; past the window by the periodic rule.
  TimeSpan Hull(Tick z) const;

  /// Whether every instant of `source`'s support within [0, end] lies in
  /// `target`'s support: one linear merge of the two interval lists. With
  /// no `target_window` (its walk would pass kMaxScanTick) the target's
  /// pieces are read tick by tick from tick 1, only as far as `end`.
  static bool Contains(const Granularity& target,
                       const SupportWindow* target_window,
                       const SupportWindow& source, TimePoint end);

  /// Frees the interval lists; the hulls (all a table scan reads) stay.
  void DropSupport();

 private:
  class Cursor;

  Tick last_deviant_ = 0;
  Granularity::Periodicity periodicity_;
  std::vector<TimeSpan> hulls_;  // hulls_[z - 1] = hull of tick z
  /// Coalesced extents of ticks [1, W]; those of ticks past the exception
  /// window start at `cycle_begin_` and repeat every period.
  std::vector<TimeSpan> support_;
  std::size_t cycle_begin_ = 0;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_SUPPORT_H_

#include "granmine/granularity/tables.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "granmine/common/check.h"
#include "granmine/common/math.h"
#include "granmine/obs/obs.h"

namespace granmine {

void GranularityTables::Seal(
    const std::vector<const Granularity*>& family,
    std::vector<std::optional<SupportWindow>> windows) {
  if (sealed_) return;
  GM_CHECK(windows.size() == family.size());
  sealed_entries_.clear();
  sealed_entries_.resize(family.size());
  for (std::size_t id = 0; id < family.size(); ++id) {
    const Granularity* g = family[id];
    GM_CHECK(g != nullptr);
    GM_CHECK(g->id() == static_cast<GranularityId>(id));
    std::optional<SupportWindow>& window = windows[id];
    SealedEntry& slot = sealed_entries_[id];
    for (std::size_t t = 0; t < kTables; ++t) {
      const Table table = static_cast<Table>(t);
      std::vector<std::int64_t>& row = slot.rows[t];
      row.assign(static_cast<std::size_t>(kSealedKCap) + 1, kSealedNoValue);
      for (std::int64_t k = 1; k <= kSealedKCap; ++k) {
        std::optional<std::int64_t> v = Analytic(table, *g, k);
        if (!v.has_value() && window.has_value()) v = Scan(table, *window, k);
        row[static_cast<std::size_t>(k)] = v.value_or(kSealedNoValue);
      }
    }
    // k past the sealed cap stays on the memo, which scans the same hulls.
    if (window.has_value()) {
      window->DropSupport();
      EntryFor(*g).window = std::move(window);
    }
    // Publish the guard pointer last: SealedValue only trusts a slot whose
    // address matches, so a granularity from a *different* system that
    // happens to share an id can never read a foreign row.
    slot.gran = g;
  }
  sealed_ = true;
}

std::optional<std::optional<std::int64_t>> GranularityTables::SealedValue(
    Table table, const Granularity& g, std::int64_t k) const {
  if (!sealed_ || k < 1 || k > kSealedKCap) return std::nullopt;
  const GranularityId id = g.id();
  if (id < 0 || static_cast<std::size_t>(id) >= sealed_entries_.size()) {
    return std::nullopt;
  }
  const SealedEntry& slot = sealed_entries_[static_cast<std::size_t>(id)];
  if (slot.gran != &g) return std::nullopt;
  const std::int64_t v = slot.rows[static_cast<std::size_t>(table)]
                                  [static_cast<std::size_t>(k)];
  if (v == kSealedNoValue) {
    return std::optional<std::optional<std::int64_t>>(std::nullopt);
  }
  return std::optional<std::optional<std::int64_t>>(v);
}

GranularityTables::Entry& GranularityTables::EntryFor(const Granularity& g) {
  {
    std::shared_lock<std::shared_mutex> lock(entries_mutex_);
    if (auto it = entries_.find(&g); it != entries_.end()) {
      return *it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(entries_mutex_);
  std::unique_ptr<Entry>& slot = entries_[&g];
  if (slot == nullptr) slot = std::make_unique<Entry>();
  return *slot;
}

std::optional<std::int64_t> GranularityTables::Analytic(Table table,
                                                        const Granularity& g,
                                                        std::int64_t k) {
  switch (table) {
    case Table::kMinSize:
      return g.AnalyticMinSize(k);
    case Table::kMaxSize:
      return g.AnalyticMaxSize(k);
    case Table::kMinGap:
      return g.AnalyticMinGap(k);
  }
  return std::nullopt;
}

std::optional<std::int64_t> GranularityTables::Scan(
    Table table, const SupportWindow& window, std::int64_t k) {
  // Hulls of ticks past the exception window follow the periodic pattern, so
  // the window's start positions exhibit every possible span/gap shape (see
  // DESIGN.md).
  const Tick offset = table == Table::kMinGap ? k : k - 1;
  if (offset > kMaxScanTick - window.size()) return std::nullopt;
  const bool maximize = table == Table::kMaxSize;
  std::int64_t best = maximize ? 0 : kInfinity;
  for (Tick i = 1; i <= window.size(); ++i) {
    const TimeSpan lo = window.Hull(i);
    const TimeSpan hi = window.Hull(i + offset);
    const std::int64_t value = table == Table::kMinGap
                                   ? hi.first - lo.last
                                   : hi.last - lo.first + 1;
    best = maximize ? std::max(best, value) : std::min(best, value);
  }
  return best;
}

std::optional<std::int64_t> GranularityTables::ScannedValue(
    Table table, const Granularity& g, std::int64_t k) {
  Entry& entry = EntryFor(g);
  auto& memo = entry.memo[static_cast<std::size_t>(table)];
  {
    std::shared_lock<std::shared_mutex> lock(entry.mutex);
    if (auto it = memo.find(k); it != memo.end()) {
      GM_COUNTER_ADD("granmine_tables_lookups_total", "result=\"hit\"", 1);
      return it->second;
    }
  }
  // Miss: scan under the exclusive lock (the first scan walks the window).
  // Re-check first — another thread may have computed k while we waited.
  std::unique_lock<std::shared_mutex> lock(entry.mutex);
  if (auto it = memo.find(k); it != memo.end()) {
    GM_COUNTER_ADD("granmine_tables_lookups_total", "result=\"hit\"", 1);
    return it->second;
  }
  GM_COUNTER_ADD("granmine_tables_lookups_total", "result=\"miss\"", 1);
  if (!entry.window.has_value()) {
    entry.window = SupportWindow::Walk(g);
    if (!entry.window.has_value()) return std::nullopt;  // past the cap
    entry.window->DropSupport();
  }
  std::optional<std::int64_t> value = Scan(table, *entry.window, k);
  if (value.has_value()) memo.emplace(k, *value);
  return value;
}

std::optional<std::int64_t> GranularityTables::Lookup(Table table,
                                                      const Granularity& g,
                                                      std::int64_t k) {
  if (auto sealed = SealedValue(table, g, k); sealed.has_value()) {
    GM_COUNTER_ADD("granmine_tables_lookups_total", "result=\"sealed\"", 1);
    return *sealed;
  }
  if (std::optional<std::int64_t> v = Analytic(table, g, k); v.has_value()) {
    return v;
  }
  return ScannedValue(table, g, k);
}

std::optional<std::int64_t> GranularityTables::MinSize(const Granularity& g,
                                                       std::int64_t k) {
  GM_CHECK(k >= 0);
  if (k == 0) return 0;
  return Lookup(Table::kMinSize, g, k);
}

std::optional<std::int64_t> GranularityTables::MaxSize(const Granularity& g,
                                                       std::int64_t k) {
  GM_CHECK(k >= 0);
  if (k == 0) return 0;
  return Lookup(Table::kMaxSize, g, k);
}

std::optional<std::int64_t> GranularityTables::MinGap(const Granularity& g,
                                                      std::int64_t k) {
  GM_CHECK(k >= 0);
  if (k == 0) {
    std::optional<std::int64_t> max1 = MaxSize(g, 1);
    if (!max1.has_value()) return std::nullopt;
    return 1 - *max1;
  }
  return Lookup(Table::kMinGap, g, k);
}

std::optional<std::int64_t> GranularityTables::LeastTicksAbove(
    Table table, const Granularity& g, std::int64_t threshold,
    std::int64_t reach, std::int64_t bound, std::int64_t lo) {
  const Granularity::Periodicity p = g.periodicity();
  const std::int64_t periods = FloorDiv(reach, p.period) + 2;
  const std::int64_t by_period = periods > kInfinity / p.ticks_per_period
                                     ? kInfinity
                                     : periods * p.ticks_per_period;
  std::int64_t hi = std::max<std::int64_t>(std::min(bound, by_period), 1);
  // Whether the table at s exceeds the threshold; nullopt when it has no
  // value within the caps.
  const auto above = [&](std::int64_t s) -> std::optional<bool> {
    std::optional<std::int64_t> v;
    switch (table) {
      case Table::kMinSize:
        v = MinSize(g, s);
        break;
      case Table::kMaxSize:
        v = MaxSize(g, s);
        break;
      case Table::kMinGap:
        v = MinGap(g, s);
        break;
    }
    if (!v.has_value()) return std::nullopt;
    return *v > threshold;
  };
  std::optional<bool> at_hi = above(hi);
  while (at_hi.has_value() && !*at_hi) {  // defensive; should not trigger
    hi *= 2;
    at_hi = above(hi);
  }
  if (!at_hi.has_value()) return std::nullopt;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    std::optional<bool> v = above(mid);
    if (!v.has_value()) return std::nullopt;
    if (*v) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::optional<std::int64_t> GranularityTables::LeastTicksCovering(
    const Granularity& g, std::int64_t x) {
  GM_CHECK(x >= 1);
  // minsize is strictly increasing in s and minsize(s) >= s, so the answer
  // (if representable) is at most x: minsize(s) >= x, i.e. > x - 1.
  return LeastTicksAbove(Table::kMinSize, g, x - 1, x, x, 1);
}

std::optional<std::int64_t> GranularityTables::LeastTicksExceeding(
    const Granularity& g, std::int64_t x) {
  if (x < 0) return 0;
  // maxsize is strictly increasing with maxsize(r) >= r; the answer is at
  // most x + 1.
  return LeastTicksAbove(Table::kMaxSize, g, x, x, x + 1, 0);
}

std::optional<std::int64_t> GranularityTables::LeastTicksWithGapExceeding(
    const Granularity& g, std::int64_t x) {
  // mingap(s) >= minsize(s-1) + 1 >= s, so the answer is at most x + 1.
  const std::int64_t reach = std::max<std::int64_t>(x, 0);
  return LeastTicksAbove(Table::kMinGap, g, x, reach, reach + 1, 1);
}

}  // namespace granmine

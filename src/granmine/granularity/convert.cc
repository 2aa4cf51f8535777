#include "granmine/granularity/convert.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <vector>

#include "granmine/common/check.h"
#include "granmine/common/math.h"
#include "granmine/obs/obs.h"

namespace granmine {

std::optional<Tick> CoveringTick(const Granularity& mu, const Granularity& nu,
                                 Tick z) {
  if (z < 1) return std::nullopt;
  std::vector<TimeSpan> nu_extent;
  nu.TickExtent(z, &nu_extent);
  if (nu_extent.empty()) return std::nullopt;
  std::optional<Tick> candidate = mu.TickContaining(nu_extent.front().first);
  if (!candidate.has_value()) return std::nullopt;
  std::vector<TimeSpan> mu_extent;
  mu.TickExtent(*candidate, &mu_extent);
  // Every nu interval must lie inside some mu interval of the candidate tick.
  std::size_t j = 0;
  for (const TimeSpan& piece : nu_extent) {
    while (j < mu_extent.size() && mu_extent[j].last < piece.first) ++j;
    if (j >= mu_extent.size() || !mu_extent[j].Contains(piece)) {
      return std::nullopt;
    }
  }
  return candidate;
}

namespace {

// Pairs with a full-support side decide in O(1); nullopt when both sides
// are gapped. Event timestamps are non-negative (§2: positive integers of
// the primitive type), so coverage only has to hold on [0, +inf).
std::optional<bool> FullSupportCovers(const Granularity& target,
                                      const Granularity& source) {
  const TimePoint source_start = std::max<TimePoint>(source.SupportStart(), 0);
  if (source.HasFullSupport()) {
    return target.HasFullSupport() && target.SupportStart() <= source_start;
  }
  if (target.HasFullSupport()) {
    return target.SupportStart() <= source_start;
  }
  return std::nullopt;
}

// Both gapped: the last source tick the merge reads — one joint period,
// extended past both exception windows. nullopt when that passes
// kMaxScanTick source ticks (conservatively "not covered").
std::optional<Tick> MergeHorizon(const Granularity& target,
                                 const Granularity& source) {
  const Granularity::Periodicity ps = source.periodicity();
  const Granularity::Periodicity pt = target.periodicity();
  std::int64_t joint_period;
  if (__builtin_mul_overflow(ps.period / std::gcd(ps.period, pt.period),
                             pt.period, &joint_period)) {
    return std::nullopt;
  }
  std::int64_t joint_source_ticks =
      joint_period / ps.period * ps.ticks_per_period;
  Tick last = source.LastDeviantTick() + joint_source_ticks;
  // Extend past the target's exception window as well.
  if (!target.IsStrictlyPeriodic()) {
    std::optional<TimeSpan> dev_hull =
        target.TickHull(target.LastDeviantTick() + 1);
    GM_CHECK(dev_hull.has_value());
    last = std::max(last, FirstTickEndingAtOrAfter(source, dev_hull->last) +
                              joint_source_ticks);
  }
  if (last > kMaxScanTick) return std::nullopt;
  return last;
}

// The coverage answer, with `window_of(g)` supplying a pointer-like handle
// to g's walked window (nullopt past kMaxScanTick). Windows are asked for
// only for a gapped pair whose joint period fits under the cap; that
// horizon spans the source's whole window, so the source's was walked, and
// a missing target window is read tick by tick.
template <typename WindowOf>
bool DecideCovers(const Granularity& target, const Granularity& source,
                  WindowOf window_of) {
  if (std::optional<bool> decided = FullSupportCovers(target, source)) {
    return *decided;
  }
  const std::optional<Tick> last = MergeHorizon(target, source);
  if (!last.has_value()) return false;
  const auto target_window = window_of(target);
  const auto source_window = window_of(source);
  GM_CHECK(source_window->has_value() && (*source_window)->size() <= *last);
  return SupportWindow::Contains(
      target, target_window->has_value() ? &**target_window : nullptr,
      **source_window, (*source_window)->Hull(*last).last);
}

}  // namespace

bool SupportCovers(const Granularity& target, const Granularity& source) {
  return DecideCovers(target, source, [](const Granularity& g) {
    return std::make_unique<const std::optional<SupportWindow>>(
        SupportWindow::Walk(g));
  });
}

void SupportCoverageCache::Seal(
    const std::vector<const Granularity*>& family,
    const std::vector<std::optional<SupportWindow>>& windows) {
  if (sealed_) return;
  const std::size_t n = family.size();
  GM_CHECK(windows.size() == n);
  sealed_family_ = family;
  sealed_matrix_.assign(n * n, false);
  for (std::size_t t = 0; t < n; ++t) {
    GM_CHECK(family[t] != nullptr);
    GM_CHECK(family[t]->id() == static_cast<GranularityId>(t));
    for (std::size_t s = 0; s < n; ++s) {
      sealed_matrix_[t * n + s] =
          DecideCovers(*family[t], *family[s], [&](const Granularity& g) {
            return &windows[&g == family[t] ? t : s];
          });
    }
  }
  // Pre-seal walks are superseded by the family's.
  std::lock_guard<std::mutex> lock(windows_mutex_);
  windows_.clear();
  sealed_ = true;
}

bool SupportCoverageCache::Covers(const Granularity& target,
                                  const Granularity& source) {
  if (sealed_) {
    const std::size_t n = sealed_family_.size();
    const GranularityId tid = target.id();
    const GranularityId sid = source.id();
    if (tid >= 0 && sid >= 0 && static_cast<std::size_t>(tid) < n &&
        static_cast<std::size_t>(sid) < n &&
        sealed_family_[static_cast<std::size_t>(tid)] == &target &&
        sealed_family_[static_cast<std::size_t>(sid)] == &source) {
      GM_COUNTER_ADD("granmine_coverage_lookups_total", "result=\"sealed\"",
                     1);
      return sealed_matrix_[static_cast<std::size_t>(tid) * n +
                            static_cast<std::size_t>(sid)];
    }
  }
  const Key key = std::make_pair(&target, &source);
  Shard& shard = ShardFor(key);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    if (auto it = shard.cache.find(key); it != shard.cache.end()) {
      GM_COUNTER_ADD("granmine_coverage_lookups_total", "result=\"hit\"", 1);
      return it->second;
    }
  }
  GM_COUNTER_ADD("granmine_coverage_lookups_total", "result=\"miss\"", 1);
  // Coverage is deterministic, so computing outside the lock at worst
  // duplicates work; emplace keeps the first answer (they are all equal).
  bool result = DecideCovers(target, source, [this](const Granularity& g) {
    return WindowFor(g);
  });
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  shard.cache.emplace(key, result);
  return result;
}

std::shared_ptr<const std::optional<SupportWindow>>
SupportCoverageCache::WindowFor(const Granularity& g) {
  {
    std::lock_guard<std::mutex> lock(windows_mutex_);
    if (auto it = windows_.find(&g); it != windows_.end()) return it->second;
  }
  // Walked outside the lock, like the pair memo: a race at worst walks
  // twice, and the first walk stored wins.
  auto window = std::make_shared<const std::optional<SupportWindow>>(
      SupportWindow::Walk(g));
  std::lock_guard<std::mutex> lock(windows_mutex_);
  return windows_.emplace(&g, std::move(window)).first->second;
}

}  // namespace granmine

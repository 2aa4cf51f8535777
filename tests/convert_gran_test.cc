#include "granmine/granularity/convert.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "granmine/common/random.h"
#include "granmine/granularity/support.h"
#include "granmine/granularity/system.h"

namespace granmine {
namespace {

// ---------------------------------------------------------------------------
// The per-instant reference. SupportCovers used to walk every source piece
// instant by instant through the target's TickContaining/TickExtent; that
// walk is kept here as the oracle the interval merge must match bit for bit.

bool ReferenceContainsSpan(const Granularity& g, const TimeSpan& span) {
  if (span.empty()) return true;
  TimePoint t = span.first;
  std::vector<TimeSpan> extent;
  while (t <= span.last) {
    std::optional<Tick> z = g.TickContaining(t);
    if (!z.has_value()) return false;
    extent.clear();
    g.TickExtent(*z, &extent);
    TimePoint advanced = t;
    for (const TimeSpan& piece : extent) {
      if (piece.Contains(t)) {
        advanced = piece.last + 1;
        break;
      }
    }
    EXPECT_GT(advanced, t) << g.name() << " tick " << *z;
    if (advanced <= t) return false;
    t = advanced;
  }
  return true;
}

bool ReferenceCovers(const Granularity& target, const Granularity& source) {
  const TimePoint source_start = std::max<TimePoint>(source.SupportStart(), 0);
  if (source.HasFullSupport()) {
    return target.HasFullSupport() && target.SupportStart() <= source_start;
  }
  if (target.HasFullSupport()) {
    return target.SupportStart() <= source_start;
  }
  const Granularity::Periodicity ps = source.periodicity();
  const Granularity::Periodicity pt = target.periodicity();
  std::int64_t joint_period;
  if (__builtin_mul_overflow(ps.period / std::gcd(ps.period, pt.period),
                             pt.period, &joint_period)) {
    return false;
  }
  const std::int64_t joint_source_ticks =
      joint_period / ps.period * ps.ticks_per_period;
  Tick last = source.LastDeviantTick() + joint_source_ticks;
  if (!target.IsStrictlyPeriodic()) {
    std::optional<TimeSpan> dev_hull =
        target.TickHull(target.LastDeviantTick() + 1);
    last = std::max(last, FirstTickEndingAtOrAfter(source, dev_hull->last) +
                              joint_source_ticks);
  }
  if (last > kMaxScanTick) return false;
  std::vector<TimeSpan> extent;
  for (Tick z = 1; z <= last; ++z) {
    extent.clear();
    source.TickExtent(z, &extent);
    for (TimeSpan piece : extent) {
      piece.first = std::max<TimePoint>(piece.first, 0);
      if (!ReferenceContainsSpan(target, piece)) return false;
    }
  }
  return true;
}

// The calendar families the oracle covers: seconds and days, with and
// without holiday overlays (weekday holidays in three different years).
std::vector<std::unique_ptr<GranularitySystem>> CalendarFamilies() {
  const std::vector<CivilDate> holidays = {
      {1970, 12, 25}, {1971, 1, 1}, {1972, 7, 4}};
  std::vector<std::unique_ptr<GranularitySystem>> families;
  families.push_back(GranularitySystem::Gregorian());
  families.push_back(GranularitySystem::Gregorian(holidays));
  families.push_back(GranularitySystem::GregorianDays());
  families.push_back(GranularitySystem::GregorianDays(holidays));
  return families;
}

// Random sorted tick intervals inside one period of `period` instants;
// neighbours may touch or leave gaps.
std::vector<TimeSpan> RandomTicks(Rng& rng, std::int64_t period) {
  std::vector<TimeSpan> ticks;
  TimePoint t = rng.Uniform(0, 1);
  while (t < period) {
    const TimePoint last = std::min(t + rng.Uniform(0, 2), period - 1);
    ticks.push_back(TimeSpan::Of(t, last));
    t = last + 1 + rng.Uniform(0, 2);
  }
  if (ticks.empty()) ticks.push_back(TimeSpan::Of(0, 0));
  return ticks;
}

// A type whose support contains `ticks`' support: the pattern repeated
// `copies` times over `copies` periods, with some neighbouring ticks merged
// across their gap.
std::vector<TimeSpan> Widened(Rng& rng, const std::vector<TimeSpan>& ticks,
                              std::int64_t period, std::int64_t copies) {
  std::vector<TimeSpan> wide;
  for (std::int64_t c = 0; c < copies; ++c) {
    for (const TimeSpan& tick : ticks) {
      const TimeSpan shifted =
          TimeSpan::Of(tick.first + c * period, tick.last + c * period);
      if (!wide.empty() && rng.Bernoulli(0.3)) {
        wide.back().last = shifted.last;
      } else {
        wide.push_back(shifted);
      }
    }
  }
  return wide;
}

// A frozen family of seeded synthetic types: random patterns, their
// widened supersets (so the merge meets "covered" answers between gapped
// types too), and two long coprime periods whose joint period needs more
// than kMaxScanTick source ticks.
std::unique_ptr<GranularitySystem> SyntheticFamily(std::uint64_t seed) {
  Rng rng(seed);
  auto system = std::make_unique<GranularitySystem>();
  for (int i = 0; i < 4; ++i) {
    const std::string name = "s" + std::to_string(i);
    const std::int64_t period = rng.Uniform(3, 24);
    const TimePoint origin = rng.Uniform(-period, period);
    const std::vector<TimeSpan> ticks = RandomTicks(rng, period);
    const std::int64_t copies = rng.Uniform(1, 3);
    system->AddSynthetic(name, period, ticks, origin);
    system->AddSynthetic(name + "-wide", period * copies,
                         Widened(rng, ticks, period, copies), origin);
  }
  std::vector<TimeSpan> sparse;
  for (TimePoint t = 0; t < 2000; t += 2) sparse.push_back(TimeSpan::Of(t, t));
  system->AddSynthetic("long-sparse", 2003, sparse);
  system->AddSynthetic("long-block", 1999, {TimeSpan::Of(0, 1500)});
  EXPECT_TRUE(system->Freeze().ok());
  return system;
}

void ExpectCoverageMatchesReference(const GranularitySystem& system) {
  for (const Granularity* target : system.family()) {
    for (const Granularity* source : system.family()) {
      const bool expected = ReferenceCovers(*target, *source);
      EXPECT_EQ(SupportCovers(*target, *source), expected)
          << target->name() << " covers " << source->name();
      EXPECT_EQ(system.coverage().Covers(*target, *source), expected)
          << "sealed: " << target->name() << " covers " << source->name();
    }
  }
}

void ExpectHullsMatchTickHull(const Granularity& g) {
  std::optional<SupportWindow> window = SupportWindow::Walk(g);
  ASSERT_TRUE(window.has_value()) << g.name();
  const Tick past = window->size() + 2 * g.periodicity().ticks_per_period;
  for (Tick z = 1; z <= past; z += z <= window->size() + 64 ? 1 : 7) {
    ASSERT_EQ(window->Hull(z), g.TickHull(z)) << g.name() << " tick " << z;
  }
}

class ConvertGranTest : public testing::Test {
 protected:
  ConvertGranTest() : system_(GranularitySystem::GregorianDays()) {}
  const Granularity& Get(const char* name) {
    const Granularity* g = system_->Find(name);
    EXPECT_NE(g, nullptr) << name;
    return *g;
  }
  std::unique_ptr<GranularitySystem> system_;
};

TEST_F(ConvertGranTest, CoveringTickMonthOfDay) {
  // ⌈z⌉^month_day is always defined: day 31 (Feb 1) is in month 2.
  EXPECT_EQ(CoveringTick(Get("month"), Get("day"), 32), 2);
  EXPECT_EQ(CoveringTick(Get("month"), Get("day"), 1), 1);
  EXPECT_EQ(CoveringTick(Get("month"), Get("day"), 31), 1);  // Jan 31
}

TEST_F(ConvertGranTest, CoveringTickMonthOfWeekOftenUndefined) {
  // The paper: ⌈z⌉^month_week is undefined when week z straddles two months.
  const Granularity& month = Get("month");
  const Granularity& week = Get("week");
  // Week 5 = days 25..31 (Mon Jan 26 .. Sun Feb 1): straddles Jan/Feb.
  EXPECT_EQ(week.TickHull(5), TimeSpan::Of(25, 31));
  EXPECT_EQ(CoveringTick(month, week, 5), std::nullopt);
  // Week 2 = days 4..10 lies inside January.
  EXPECT_EQ(CoveringTick(month, week, 2), 1);
}

TEST_F(ConvertGranTest, CoveringTickBdayOfDayUndefinedOnWeekends) {
  // ⌈z⌉^b-day_day is undefined when day z is a Saturday/Sunday.
  const Granularity& b_day = Get("b-day");
  const Granularity& day = Get("day");
  EXPECT_EQ(CoveringTick(b_day, day, 1), 1);              // Thu
  EXPECT_EQ(CoveringTick(b_day, day, 3), std::nullopt);   // Sat
  EXPECT_EQ(CoveringTick(b_day, day, 5), 3);              // Mon
}

TEST_F(ConvertGranTest, CoveringTickWithGappedCoarseType) {
  // b-month covers a b-day; a month-of-b-days covers each of its b-days.
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("b-day"), 1), 1);
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("b-day"), 22), 1);
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("b-day"), 23), 2);
  // But b-month does NOT cover a full week (weekends are outside b-month).
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("week"), 2), std::nullopt);
  // b-month covers a b-week that lies within one month.
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("b-week"), 2), 1);
}

TEST_F(ConvertGranTest, FullSupportCoverage) {
  // day covers b-day's support, not vice versa.
  EXPECT_TRUE(SupportCovers(Get("day"), Get("b-day")));
  EXPECT_FALSE(SupportCovers(Get("b-day"), Get("day")));
  // month covers everything full-support and b-day too.
  EXPECT_TRUE(SupportCovers(Get("month"), Get("day")));
  EXPECT_TRUE(SupportCovers(Get("month"), Get("b-day")));
  EXPECT_TRUE(SupportCovers(Get("month"), Get("week")));
  EXPECT_TRUE(SupportCovers(Get("year"), Get("month")));
  EXPECT_TRUE(SupportCovers(Get("day"), Get("week")));
}

TEST_F(ConvertGranTest, GappedPairCoverage) {
  // The paper's examples: b-week converts into week, month, or b-day, but
  // not into weekend-day.
  EXPECT_TRUE(SupportCovers(Get("week"), Get("b-week")));
  EXPECT_TRUE(SupportCovers(Get("month"), Get("b-week")));
  EXPECT_TRUE(SupportCovers(Get("b-day"), Get("b-week")));
  EXPECT_FALSE(SupportCovers(Get("weekend-day"), Get("b-week")));
  // Same-support family: b-day <-> b-month both ways.
  EXPECT_TRUE(SupportCovers(Get("b-month"), Get("b-day")));
  EXPECT_TRUE(SupportCovers(Get("b-day"), Get("b-month")));
  // Disjoint patterns fail.
  EXPECT_FALSE(SupportCovers(Get("b-day"), Get("weekend-day")));
  EXPECT_FALSE(SupportCovers(Get("weekend-day"), Get("b-day")));
}

TEST_F(ConvertGranTest, HolidayShrinksSourceCoverage) {
  auto holiday_system =
      GranularitySystem::GregorianDays({CivilDate{1970, 1, 2}});
  const Granularity& b_day_h = *holiday_system->Find("b-day");
  const Granularity& b_day = Get("b-day");
  // The plain b-day support includes Fri 1970-01-02, which the holiday
  // version lacks — so the holiday type cannot serve as a target for the
  // plain one, while the reverse direction works.
  EXPECT_FALSE(SupportCovers(b_day_h, b_day));
  EXPECT_TRUE(SupportCovers(b_day, b_day_h));
}

TEST_F(ConvertGranTest, ReferenceSpanWalkSeesGaps) {
  const Granularity& b_day = Get("b-day");
  EXPECT_TRUE(ReferenceContainsSpan(b_day, TimeSpan::Of(0, 1)));   // Thu-Fri
  EXPECT_FALSE(ReferenceContainsSpan(b_day, TimeSpan::Of(0, 2)));  // hits Sat
  EXPECT_TRUE(ReferenceContainsSpan(b_day, TimeSpan::Of(4, 8)));   // Mon-Fri
  EXPECT_TRUE(ReferenceContainsSpan(Get("day"), TimeSpan::Of(0, 1000)));
}

TEST_F(ConvertGranTest, CoverageCacheMemoizes) {
  SupportCoverageCache cache;
  EXPECT_TRUE(cache.Covers(Get("day"), Get("b-day")));
  EXPECT_TRUE(cache.Covers(Get("day"), Get("b-day")));
  EXPECT_FALSE(cache.Covers(Get("b-day"), Get("day")));
}

// Every ordered pair of every calendar family: the interval merge, unfrozen
// and sealed, agrees with the per-instant walk.
TEST(CoverageOracleTest, CalendarFamiliesMatchPerInstantWalk) {
  for (std::unique_ptr<GranularitySystem>& system : CalendarFamilies()) {
    ASSERT_TRUE(system->Freeze().ok());
    ExpectCoverageMatchesReference(*system);
  }
}

TEST(CoverageOracleTest, SeededSyntheticTypesMatchPerInstantWalk) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectCoverageMatchesReference(*SyntheticFamily(seed));
  }
}

// The cap stays conservative and identical: a joint period that needs more
// than kMaxScanTick source ticks is "not covered" on both sides.
TEST(CoverageOracleTest, JointPeriodPastTheCapIsNotCovered) {
  std::unique_ptr<GranularitySystem> system = SyntheticFamily(1);
  const Granularity& sparse = *system->Find("long-sparse");
  const Granularity& block = *system->Find("long-block");
  ASSERT_GT(block.periodicity().period * sparse.periodicity().ticks_per_period,
            kMaxScanTick);
  EXPECT_FALSE(ReferenceCovers(block, sparse));
  EXPECT_FALSE(SupportCovers(block, sparse));
  EXPECT_FALSE(system->coverage().Covers(block, sparse));
}

// The window answers for every tick: walked hulls equal TickHull inside it,
// and past it the periodic rule hull(z + tpp) = hull(z) + period does too.
TEST(SupportWindowTest, HullsMatchTickHullInsideAndPastTheWindow) {
  for (std::unique_ptr<GranularitySystem>& system : CalendarFamilies()) {
    for (const Granularity* g : system->family()) ExpectHullsMatchTickHull(*g);
  }
  std::unique_ptr<GranularitySystem> synthetic = SyntheticFamily(2);
  for (const Granularity* g : synthetic->family()) {
    ExpectHullsMatchTickHull(*g);
  }
}

// A gapped target whose own window is past the cap: the merge reads its
// ticks only as far as the source's joint period needs, so a source whose
// period it divides is still decided exactly, covered or not.
TEST(CoverageOracleTest, GappedTargetPastTheCapMatchesPerInstantWalk) {
  GranularitySystem system;
  const std::int64_t period = 2 * (kMaxScanTick + 1);
  std::vector<TimeSpan> evens;
  for (TimePoint t = 0; t < period; t += 2) evens.push_back(TimeSpan::Of(t, t));
  const Granularity* dense = system.AddSynthetic("dense", period, evens);
  const Granularity* inside = system.AddSynthetic(
      "inside", period, {TimeSpan::Of(0, 0), TimeSpan::Of(4, 4),
                         TimeSpan::Of(period - 2, period - 2)});
  const Granularity* outside = system.AddSynthetic(
      "outside", period, {TimeSpan::Of(4, 4), TimeSpan::Of(9, 9)});
  ASSERT_FALSE(SupportWindow::Walk(*dense).has_value());
  EXPECT_TRUE(ReferenceCovers(*dense, *inside));
  EXPECT_FALSE(ReferenceCovers(*dense, *outside));
  ASSERT_TRUE(system.Freeze().ok());
  for (const Granularity* source : {inside, outside}) {
    const bool expected = ReferenceCovers(*dense, *source);
    EXPECT_EQ(SupportCovers(*dense, *source), expected) << source->name();
    EXPECT_EQ(system.coverage().Covers(*dense, *source), expected)
        << "sealed: " << source->name();
    SupportCoverageCache unsealed;
    EXPECT_EQ(unsealed.Covers(*dense, *source), expected)
        << "unsealed: " << source->name();
  }
}

TEST(SupportWindowTest, WindowPastTheCapIsNotWalked) {
  GranularitySystem system;
  std::vector<TimeSpan> points;
  for (TimePoint t = 0; t < 2 * (kMaxScanTick + 1); t += 2) {
    points.push_back(TimeSpan::Of(t, t));
  }
  const Granularity* dense =
      system.AddSynthetic("dense", 2 * (kMaxScanTick + 1), std::move(points));
  EXPECT_FALSE(SupportWindow::Walk(*dense).has_value());
  EXPECT_EQ(system.tables().MinSize(*dense, 1), std::nullopt);
}

}  // namespace
}  // namespace granmine

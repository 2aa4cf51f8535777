#include "granmine/granularity/tables.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "granmine/common/math.h"
#include "granmine/common/random.h"
#include "granmine/granularity/civil_calendar.h"
#include "granmine/granularity/system.h"

namespace granmine {
namespace {

class TablesTest : public testing::Test {
 protected:
  TablesTest() : system_(GranularitySystem::GregorianDays()) {}
  const Granularity& Get(const char* name) {
    const Granularity* g = system_->Find(name);
    EXPECT_NE(g, nullptr) << name;
    return *g;
  }
  GranularityTables& tables() { return system_->tables(); }
  std::unique_ptr<GranularitySystem> system_;
};

TEST_F(TablesTest, PaperValuesForMonths) {
  // The paper's running examples (Appendix A.1), with day as primitive:
  // minsize(month, 1) = 28, maxsize(month, 1) = 31.
  EXPECT_EQ(tables().MinSize(Get("month"), 1), 28);
  EXPECT_EQ(tables().MaxSize(Get("month"), 1), 31);
}

TEST_F(TablesTest, PaperValueForBusinessDays) {
  // maxsize(b-day, 2) = 4 (Friday through Monday), as stated in the paper.
  EXPECT_EQ(tables().MaxSize(Get("b-day"), 2), 4);
  EXPECT_EQ(tables().MinSize(Get("b-day"), 2), 2);
  EXPECT_EQ(tables().MinSize(Get("b-day"), 1), 1);
  // mingap(b-day, 1) = 1 (consecutive weekdays).
  EXPECT_EQ(tables().MinGap(Get("b-day"), 1), 1);
  // Six consecutive b-days span at most Fri..next Fri = 8 days.
  EXPECT_EQ(tables().MaxSize(Get("b-day"), 6), 8);
}

TEST_F(TablesTest, UniformTypesAreClosedForm) {
  const Granularity& day = Get("day");
  EXPECT_EQ(tables().MinSize(day, 5), 5);
  EXPECT_EQ(tables().MaxSize(day, 5), 5);
  EXPECT_EQ(tables().MinGap(day, 3), 3);
  const Granularity& week = Get("week");
  EXPECT_EQ(tables().MinSize(week, 2), 14);
  // Adjacent weeks touch: min(week(i+1)) - max(week(i)) = 1.
  EXPECT_EQ(tables().MinGap(week, 1), 1);
  EXPECT_EQ(tables().MinGap(week, 2), 8);
}

TEST_F(TablesTest, ZeroTickConventions) {
  EXPECT_EQ(tables().MinSize(Get("month"), 0), 0);
  EXPECT_EQ(tables().MaxSize(Get("month"), 0), 0);
  // mingap(g, 0) = 1 - maxsize(g, 1): within one tick the "gap" is negative.
  EXPECT_EQ(tables().MinGap(Get("month"), 0), 1 - 31);
  EXPECT_EQ(tables().MinGap(Get("day"), 0), 0);
}

TEST_F(TablesTest, MonthSpansMatchBruteForce) {
  const Granularity& month = Get("month");
  for (std::int64_t k : {1, 2, 3, 12, 13, 24}) {
    // Brute force over 100 years of start months.
    std::int64_t lo = kInfinity, hi = 0;
    for (Tick i = 1; i <= 1200; ++i) {
      std::int64_t span =
          month.TickHull(i + k - 1)->last - month.TickHull(i)->first + 1;
      lo = std::min(lo, span);
      hi = std::max(hi, span);
    }
    EXPECT_EQ(tables().MinSize(month, k), lo) << "k=" << k;
    EXPECT_EQ(tables().MaxSize(month, k), hi) << "k=" << k;
  }
}

TEST_F(TablesTest, YearSpans) {
  const Granularity& year = Get("year");
  EXPECT_EQ(tables().MinSize(year, 1), 365);
  EXPECT_EQ(tables().MaxSize(year, 1), 366);
  // Any 4 consecutive years contain exactly one leap year... except runs
  // crossing a skipped century leap (1900, 2100): min = 1460, max = 1461.
  EXPECT_EQ(tables().MaxSize(year, 4), 3 * 365 + 366);
  EXPECT_EQ(tables().MinSize(year, 4), 4 * 365);  // e.g. 2097..2100
}

TEST_F(TablesTest, SuperadditivityProperties) {
  // minsize and mingap are superadditive (a span of a+b ticks contains
  // disjoint spans of a and b ticks); maxsize of a+b ticks additionally
  // absorbs the gap between the two blocks, so only the weaker bound
  // maxsize(a+b) <= maxsize(a) + maxsize(b) + maxgap holds — we assert the
  // directions the sound conversion relies on, plus minsize <= maxsize.
  Rng rng(7);
  for (const char* name : {"month", "b-day", "b-week", "b-month", "year"}) {
    const Granularity& g = Get(name);
    for (int trial = 0; trial < 20; ++trial) {
      std::int64_t a = rng.Uniform(1, 30);
      std::int64_t b = rng.Uniform(1, 30);
      auto min_ab = tables().MinSize(g, a + b);
      auto min_a = tables().MinSize(g, a);
      auto min_b = tables().MinSize(g, b);
      ASSERT_TRUE(min_ab && min_a && min_b);
      EXPECT_GE(*min_ab, *min_a + *min_b) << name;
      auto max_ab = tables().MaxSize(g, a + b);
      auto max_a = tables().MaxSize(g, a);
      ASSERT_TRUE(max_ab && max_a);
      EXPECT_GE(*max_ab, *max_a) << name;  // monotone
      EXPECT_LE(*tables().MinSize(g, a), *tables().MaxSize(g, a)) << name;
      auto gap_ab = tables().MinGap(g, a + b);
      auto gap_a = tables().MinGap(g, a);
      auto gap_b = tables().MinGap(g, b);
      ASSERT_TRUE(gap_ab && gap_a && gap_b);
      EXPECT_GE(*gap_ab, *gap_a + *gap_b) << name;
    }
  }
}

TEST_F(TablesTest, SizesAreStrictlyIncreasing) {
  for (const char* name : {"month", "b-day", "b-month"}) {
    const Granularity& g = Get(name);
    for (std::int64_t k = 1; k < 20; ++k) {
      EXPECT_LT(*tables().MinSize(g, k), *tables().MinSize(g, k + 1)) << name;
      EXPECT_LT(*tables().MaxSize(g, k), *tables().MaxSize(g, k + 1)) << name;
    }
  }
}

TEST_F(TablesTest, LeastTicksCovering) {
  const Granularity& month = Get("month");
  // 28 days are covered by 1 month minimum-span; 29 need 2.
  EXPECT_EQ(tables().LeastTicksCovering(month, 28), 1);
  EXPECT_EQ(tables().LeastTicksCovering(month, 29), 2);
  EXPECT_EQ(tables().LeastTicksCovering(month, 1), 1);
  const Granularity& day = Get("day");
  EXPECT_EQ(tables().LeastTicksCovering(day, 365), 365);
}

TEST_F(TablesTest, LeastTicksExceeding) {
  const Granularity& month = Get("month");
  // maxsize(month, 1) = 31 > 30, so 1 tick suffices to exceed 30 days.
  EXPECT_EQ(tables().LeastTicksExceeding(month, 30), 1);
  EXPECT_EQ(tables().LeastTicksExceeding(month, 31), 2);
  EXPECT_EQ(tables().LeastTicksExceeding(month, -5), 0);
  EXPECT_EQ(tables().LeastTicksExceeding(month, 0), 1);
}

TEST_F(TablesTest, HolidaysStretchMaxSize) {
  // Removing Mon 1970-01-05 (day tick 5) makes Fri..Tue a 5-day pair span.
  auto system = GranularitySystem::GregorianDays({CivilDate{1970, 1, 5}});
  const Granularity& b_day = *system->Find("b-day");
  EXPECT_EQ(system->tables().MaxSize(b_day, 2), 5);
  // min quantities are unaffected (clean stretches still exist).
  EXPECT_EQ(system->tables().MinSize(b_day, 2), 2);
  EXPECT_EQ(system->tables().MinGap(b_day, 1), 1);
}

TEST(SecondTablesTest, PaperDayConversionExample) {
  // §3: [0,0]day spans 0..86399 seconds at most — maxsize(day,1) in seconds.
  auto system = GranularitySystem::Gregorian();
  const Granularity& day = *system->Find("day");
  EXPECT_EQ(system->tables().MaxSize(day, 1), 86400);
  EXPECT_EQ(system->tables().MinSize(day, 1), 86400);
}

TEST(SyntheticTablesTest, GappedToyValues) {
  GranularitySystem system;
  // Ticks [0,2] and [5,6] per period of 10.
  const Granularity* toy = system.AddSynthetic(
      "toy", 10, {TimeSpan::Of(0, 2), TimeSpan::Of(5, 6)});
  EXPECT_EQ(system.tables().MinSize(*toy, 1), 2);   // [5,6]
  EXPECT_EQ(system.tables().MaxSize(*toy, 1), 3);   // [0,2]
  EXPECT_EQ(system.tables().MinSize(*toy, 2), 7);   // [0..6]
  EXPECT_EQ(system.tables().MaxSize(*toy, 2), 8);   // [5..12]
  EXPECT_EQ(system.tables().MinGap(*toy, 1), 3);  // 5-2=3 vs 10-6=4
  EXPECT_EQ(system.tables().MinGap(*toy, 2), 8);  // 10-2=8 vs 15-6=9
}

// The scan the sealed rows came from before the one-walk freeze: hulls
// straight from TickHull, materialized up to the furthest tick a
// k <= kSealedKCap scan reads. Every sealed row of every calendar family,
// holiday overlays included, must equal it value for value.
TEST(TablesOracleTest, SealedRowsMatchTickHullScan) {
  const std::vector<CivilDate> holidays = {
      {1970, 12, 25}, {1971, 1, 1}, {1972, 7, 4}};
  std::vector<std::unique_ptr<GranularitySystem>> families;
  families.push_back(GranularitySystem::Gregorian());
  families.push_back(GranularitySystem::Gregorian(holidays));
  families.push_back(GranularitySystem::GregorianDays());
  families.push_back(GranularitySystem::GregorianDays(holidays));
  const std::int64_t cap = GranularityTables::kSealedKCap;
  for (std::unique_ptr<GranularitySystem>& system : families) {
    ASSERT_TRUE(system->Freeze().ok());
    for (const Granularity* g : system->family()) {
      if (g->AnalyticMinSize(1).has_value()) continue;  // closed form
      const Tick starts =
          g->LastDeviantTick() + g->periodicity().ticks_per_period;
      std::vector<TimeSpan> hulls;  // hulls[z - 1] = TickHull(z)
      for (Tick z = 1; z <= starts + cap; ++z) {
        hulls.push_back(*g->TickHull(z));
      }
      auto hull = [&](Tick z) {
        return hulls[static_cast<std::size_t>(z - 1)];
      };
      for (std::int64_t k = 1; k <= cap; ++k) {
        std::int64_t min_size = kInfinity, max_size = 0, min_gap = kInfinity;
        for (Tick i = 1; i <= starts; ++i) {
          const std::int64_t span = hull(i + k - 1).last - hull(i).first + 1;
          min_size = std::min(min_size, span);
          max_size = std::max(max_size, span);
          min_gap = std::min(min_gap, hull(i + k).first - hull(i).last);
        }
        EXPECT_EQ(system->tables().MinSize(*g, k), min_size)
            << g->name() << " k=" << k;
        EXPECT_EQ(system->tables().MaxSize(*g, k), max_size)
            << g->name() << " k=" << k;
        EXPECT_EQ(system->tables().MinGap(*g, k), min_gap)
            << g->name() << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace granmine

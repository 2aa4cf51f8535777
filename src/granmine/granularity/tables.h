#ifndef GRANMINE_GRANULARITY_TABLES_H_
#define GRANMINE_GRANULARITY_TABLES_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "granmine/granularity/granularity.h"
#include "granmine/granularity/support.h"

namespace granmine {

/// Computes and caches the paper's Appendix-A.1 table functions, all
/// expressed in primitive instants:
///
///  * minsize(μ, k) / maxsize(μ, k): minimum / maximum length of the span of
///    k consecutive ticks of μ (from the first instant of the first tick to
///    the last instant of the last, inclusive);
///  * mingap(μ, k): minimum of min(μ(i+k)) − max(μ(i)) over i.
///
/// Values are exact: uniform types answer in closed form; periodic types are
/// scanned over one period of start positions (plus the finite exception
/// window of holiday overlays), which covers every hull pattern the type can
/// exhibit. The scans read the hulls of the type's `SupportWindow`, walked
/// once per granularity. Queries return nullopt only when a scan would pass
/// `kMaxScanTick`; callers treat that conservatively (no bound derived).
///
/// Identity has two phases. While *building*, granularities are keyed by
/// address in a sharded hashed directory; after `Seal()` (driven by
/// `GranularitySystem::Freeze()`) the family's values for k up to
/// `kSealedKCap` live in flat per-`GranularityId` arrays and a lookup is a
/// bounds-checked array read — no hashing, no lock. A table instance must
/// not outlive the granularities it has been queried with.
///
/// Thread safety: all queries may be issued concurrently from any number of
/// threads. Pre-seal (and for k beyond `kSealedKCap`, or granularities
/// outside the sealed family), entries are sharded per granularity behind a
/// `std::shared_mutex` each (memo hits take only the shared lock; a miss
/// computes under the exclusive lock, so each value is scanned once and then
/// shared), and the shard directory itself is guarded the same way. Post-seal
/// the dense arrays are immutable, so sealed hits are wait-free. See
/// docs/concurrency.md and docs/architecture.md.
class GranularityTables {
 public:
  /// Largest k precomputed per (granularity, table) by `Seal`. Constraint
  /// conversion and propagation consult small k almost exclusively; larger
  /// k (deep binary-search probes of the Least* queries) stay on the memo.
  static constexpr std::int64_t kSealedKCap = 128;

  /// Freezes the table set for `family` (granularities listed in id order,
  /// `family[i]->id() == i`): precomputes minsize/maxsize/mingap for every
  /// k in [1, kSealedKCap] into flat id-indexed arrays, scanning
  /// `windows[id]` (nullopt past kMaxScanTick). Afterwards those lookups are
  /// plain array reads; anything else falls back to the sharded memo, which
  /// keeps each window's hulls (its support lists are dropped) for deeper
  /// scans. Idempotent; must not race with queries (freeze on the build
  /// thread, then share).
  void Seal(const std::vector<const Granularity*>& family,
            std::vector<std::optional<SupportWindow>> windows);

  bool sealed() const { return sealed_; }

  /// minsize(g, k); k >= 0 (0 yields 0).
  std::optional<std::int64_t> MinSize(const Granularity& g, std::int64_t k);
  /// maxsize(g, k); k >= 0 (0 yields 0).
  std::optional<std::int64_t> MaxSize(const Granularity& g, std::int64_t k);
  /// mingap(g, k); k >= 0. mingap(g, 0) = 1 - maxsize(g, 1) (may be negative).
  std::optional<std::int64_t> MinGap(const Granularity& g, std::int64_t k);

  /// Smallest s >= 1 with minsize(g, s) >= x (x >= 1), or nullopt when it
  /// cannot be established within the caps.
  std::optional<std::int64_t> LeastTicksCovering(const Granularity& g,
                                                 std::int64_t x);

  /// Smallest r >= 0 with maxsize(g, r) > x, or nullopt when it cannot be
  /// established within the caps. For x < 0 the answer is 0.
  std::optional<std::int64_t> LeastTicksExceeding(const Granularity& g,
                                                  std::int64_t x);

  /// Smallest s >= 1 with mingap(g, s) > x, or nullopt when it cannot be
  /// established within the caps. mingap is non-decreasing in s.
  std::optional<std::int64_t> LeastTicksWithGapExceeding(const Granularity& g,
                                                         std::int64_t x);

 private:
  /// The table function a scan computes; indexes the memo maps and sealed
  /// rows, and selects the fold.
  enum class Table { kMinSize, kMaxSize, kMinGap };
  static constexpr std::size_t kTables = 3;

  /// Sentinel inside sealed rows for "no value within the caps".
  static constexpr std::int64_t kSealedNoValue =
      std::numeric_limits<std::int64_t>::min();

  /// One per-granularity shard: its own lock plus the memoized tables.
  struct Entry {
    std::shared_mutex mutex;
    /// The granularity's hulls, walked on the first scan (or handed over by
    /// Seal) with the support lists dropped.
    std::optional<SupportWindow> window;
    std::array<std::unordered_map<std::int64_t, std::int64_t>, kTables> memo;
  };

  /// One frozen granularity's precomputed tables: `rows[table][k]` for k in
  /// [1, kSealedKCap] (index 0 unused), `kSealedNoValue` marking nullopt.
  /// `gran` guards against id collisions across systems: a lookup only
  /// trusts the slot when the address matches.
  struct SealedEntry {
    const Granularity* gran = nullptr;
    std::array<std::vector<std::int64_t>, kTables> rows;
  };

  Entry& EntryFor(const Granularity& g);
  /// One table value for k >= 1: sealed array, closed form, then memo.
  std::optional<std::int64_t> Lookup(Table table, const Granularity& g,
                                     std::int64_t k);
  /// The closed-form value, when the type has one.
  static std::optional<std::int64_t> Analytic(Table table,
                                              const Granularity& g,
                                              std::int64_t k);
  /// The value scanned over the window's start positions; nullopt when a
  /// scanned tick would pass kMaxScanTick.
  static std::optional<std::int64_t> Scan(Table table,
                                          const SupportWindow& window,
                                          std::int64_t k);
  /// Memoized lookup/compute of one table value for k >= 1 (analytic paths
  /// already exhausted by the caller). Locks the entry internally.
  std::optional<std::int64_t> ScannedValue(Table table, const Granularity& g,
                                           std::int64_t k);
  /// Smallest s >= lo whose table value exceeds `threshold`, for a table
  /// non-decreasing in s: bisection below min(bound, the ticks of
  /// FloorDiv(reach, period) + 2 periods). Nullopt when a probed value has
  /// none within the caps.
  std::optional<std::int64_t> LeastTicksAbove(Table table, const Granularity& g,
                                              std::int64_t threshold,
                                              std::int64_t reach,
                                              std::int64_t bound,
                                              std::int64_t lo);

  /// Sealed fast path of Lookup: the precomputed value for
  /// (table, g, k), or nullopt when the lookup must fall back to the memo
  /// (not sealed, k out of range, or g outside the sealed family). The
  /// inner optional is the table answer itself (kSealedNoValue → nullopt).
  std::optional<std::optional<std::int64_t>> SealedValue(
      Table table, const Granularity& g, std::int64_t k) const;

  std::shared_mutex entries_mutex_;
  // unique_ptr values keep Entry addresses stable and the map movable even
  // though Entry itself (owning a mutex) is not.
  std::unordered_map<const Granularity*, std::unique_ptr<Entry>> entries_;
  /// Immutable after Seal; indexed by GranularityId.
  std::vector<SealedEntry> sealed_entries_;
  bool sealed_ = false;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_TABLES_H_

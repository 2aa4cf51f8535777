#include "granmine/granularity/support.h"

#include <algorithm>

#include "granmine/common/check.h"

namespace granmine {

/// Yields a window's support intervals in increasing order: the walked
/// list once, then its periodic part again and again, each time shifted by
/// one more period. Adjacent intervals may touch across a period boundary;
/// ContainsSupport coalesces them as it goes.
class SupportWindow::Cursor {
 public:
  explicit Cursor(const SupportWindow& window) : window_(window) {}

  TimeSpan Next() {
    if (index_ == window_.support_.size()) {
      index_ = window_.cycle_begin_;
      shift_ += window_.periodicity_.period;
    }
    const TimeSpan& span = window_.support_[index_++];
    return TimeSpan::Of(span.first + shift_, span.last + shift_);
  }

 private:
  const SupportWindow& window_;
  std::size_t index_ = 0;
  TimePoint shift_ = 0;
};

std::optional<SupportWindow> SupportWindow::Walk(const Granularity& g) {
  SupportWindow window;
  window.last_deviant_ = g.LastDeviantTick();
  window.periodicity_ = g.periodicity();
  const Tick size = window.last_deviant_ + window.periodicity_.ticks_per_period;
  if (size > kMaxScanTick) return std::nullopt;
  window.hulls_.reserve(static_cast<std::size_t>(size));
  // The periodic part is coalesced on its own so it can repeat by itself.
  std::vector<TimeSpan> cycle;
  std::vector<TimeSpan> extent;
  for (Tick z = 1; z <= size; ++z) {
    extent.clear();
    g.TickExtent(z, &extent);
    GM_CHECK(!extent.empty()) << g.name() << " tick " << z << " is empty";
    window.hulls_.push_back(
        TimeSpan::Of(extent.front().first, extent.back().last));
    std::vector<TimeSpan>* out =
        z > window.last_deviant_ ? &cycle : &window.support_;
    for (const TimeSpan& piece : extent) AppendMerging(piece, out);
  }
  window.cycle_begin_ = window.support_.size();
  window.support_.insert(window.support_.end(), cycle.begin(), cycle.end());
  return window;
}

TimeSpan SupportWindow::Hull(Tick z) const {
  GM_DCHECK(z >= 1);
  if (z <= size()) return hulls_[static_cast<std::size_t>(z - 1)];
  const Tick into_cycle = z - last_deviant_ - 1;
  const Tick cycles = into_cycle / periodicity_.ticks_per_period;
  const TimeSpan& base = hulls_[static_cast<std::size_t>(
      last_deviant_ + into_cycle % periodicity_.ticks_per_period)];
  const TimePoint shift = cycles * periodicity_.period;
  return TimeSpan::Of(base.first + shift, base.last + shift);
}

namespace {

// Yields a granularity's extent pieces in order, tick by tick from tick 1:
// the target side of a merge whose window was not walked. Ticks are
// disjoint and increasing, so the pieces come sorted; touching ones are
// coalesced by the merge.
class TickCursor {
 public:
  explicit TickCursor(const Granularity& g) : g_(g) {}

  TimeSpan Next() {
    while (index_ == pieces_.size()) {
      pieces_.clear();
      index_ = 0;
      g_.TickExtent(++tick_, &pieces_);
    }
    return pieces_[index_++];
  }

 private:
  const Granularity& g_;
  Tick tick_ = 0;
  std::vector<TimeSpan> pieces_;
  std::size_t index_ = 0;
};

template <typename Pieces, typename Targets>
bool MergeContains(Pieces& pieces, Targets& targets, TimePoint end) {
  // `covered` is a contiguous stretch of the target's support, grown by
  // coalescing touching intervals only as far as the current piece needs.
  TimeSpan covered = targets.Next();
  for (;;) {
    TimeSpan piece = pieces.Next();
    if (piece.first > end) return true;
    piece.first = std::max<TimePoint>(piece.first, 0);
    piece.last = std::min(piece.last, end);
    if (piece.empty()) continue;
    while (covered.last < piece.first) covered = targets.Next();
    if (covered.first > piece.first) return false;
    while (covered.last < piece.last) {
      const TimeSpan next = targets.Next();
      if (next.first > covered.last + 1) return false;
      covered.last = next.last;
    }
  }
}

}  // namespace

bool SupportWindow::Contains(const Granularity& target,
                             const SupportWindow* target_window,
                             const SupportWindow& source, TimePoint end) {
  GM_CHECK(!source.support_.empty() &&
           (target_window == nullptr || !target_window->support_.empty()))
      << "Contains on a window whose support was dropped";
  Cursor pieces(source);
  if (target_window != nullptr) {
    Cursor targets(*target_window);
    return MergeContains(pieces, targets, end);
  }
  TickCursor targets(target);
  return MergeContains(pieces, targets, end);
}

void SupportWindow::DropSupport() {
  std::vector<TimeSpan>().swap(support_);
  cycle_begin_ = 0;
}

}  // namespace granmine

#ifndef GRANMINE_IO_TEXT_FORMAT_H_
#define GRANMINE_IO_TEXT_FORMAT_H_

#include <string>
#include <string_view>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/constraint/event_structure.h"
#include "granmine/granularity/system.h"
#include "granmine/sequence/event.h"
#include "granmine/sequence/sequence.h"

namespace granmine {

/// Parses an event-structure description. One constraint per line:
///
///     # the Figure-1(a) structure
///     rise -> report : [1,1] b-day
///     report -> fall : [0,1] week
///     rise -> hp     : [0,5] b-day
///     hp -> fall     : [0,8] hour
///
/// Variables are declared implicitly in order of first mention; granularity
/// names are resolved against `system`; `inf` is accepted as an upper
/// bound; `#` starts a comment. On success `variable_names` (if given)
/// receives the names in variable-id order.
///
/// Custom granularities may be declared before use with
/// `granularity NAME = <expr>` lines (see ParseGranularityDefinition):
///
///     granularity shift       = group(hour, 8)
///     granularity fiscal-year = group(month, 12, 3)
///     open -> close : [0,0] shift
Result<EventStructure> ParseEventStructure(
    std::string_view text, const GranularitySystem& system,
    std::vector<std::string>* variable_names = nullptr);

/// Overload registering `granularity NAME = ...` declarations into a
/// mutable system (the const overload rejects them).
Result<EventStructure> ParseEventStructure(
    std::string_view text, GranularitySystem* system,
    std::vector<std::string>* variable_names = nullptr);

/// Parses one granularity definition expression and registers it:
///
///     uniform(WIDTH[, OFFSET])          fixed-width ticks
///     group(BASE, K[, PHASE])           K consecutive BASE ticks
///     groupby(INNER, OUTER)             INNER ticks grouped by OUTER
///     filter(BASE, PERIOD, o1 o2 ...)   periodic offset selection
///     synthetic(PERIOD, a-b c-d ...)    explicit tick intervals per period
///
/// Returns the registered granularity.
Result<const Granularity*> ParseGranularityDefinition(
    std::string_view name, std::string_view expression,
    GranularitySystem* system);

/// Parses an event sequence, one event per line:
///
///     1970-01-05 10:00:00  IBM-rise
///     1970-01-06           IBM-earnings-report   # midnight
///     3600                 tick                  # raw seconds also fine
///
/// Timestamps are either a raw integer (primitive instants) or a civil date
/// as ParseTimePoint reads it, with `units_per_day` instants per day.
/// Type names are interned into `registry`.
Result<EventSequence> ParseEventSequence(std::string_view text,
                                         EventTypeRegistry* registry,
                                         std::int64_t units_per_day = 86400);

/// "1970-01-05 Mon 10:00:00" for second-based instants (units_per_day =
/// 86400); "1970-01-05 Mon" for day-grained ones (units_per_day = 1).
std::string FormatTimePoint(TimePoint t, std::int64_t units_per_day = 86400);

/// Parses "YYYY-MM-DD[ Www][ HH:MM:SS]" (all FormatTimePoint writes) into an
/// instant. A wrong weekday or any other extra text is InvalidArgument.
Result<TimePoint> ParseTimePoint(std::string_view text,
                                 std::int64_t units_per_day = 86400);

}  // namespace granmine

#endif  // GRANMINE_IO_TEXT_FORMAT_H_

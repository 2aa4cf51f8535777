#include "granmine/io/text_format.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <map>
#include <sstream>

#include "granmine/common/check.h"
#include "granmine/common/math.h"
#include "granmine/granularity/civil_calendar.h"

namespace granmine {

namespace {

std::string_view StripComment(std::string_view line) {
  std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  return line;
}

/// Weekday names by WeekdayFromDays index, as FormatTimePoint writes them.
constexpr const char* kWeekdays[] = {"Mon", "Tue", "Wed", "Thu",
                                     "Fri", "Sat", "Sun"};

std::string_view Trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(
                              text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

Result<std::int64_t> ParseInt(std::string_view token) {
  std::int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::Invalid("expected an integer, found '" +
                           std::string(token) + "'");
  }
  return value;
}

// 1-based column of `token` inside `raw`. Valid because every view the
// parsers hand around (Trim/substr results) points into the original line's
// buffer; falls back to column 1 for a token from elsewhere.
std::size_t ColumnOf(std::string_view raw, std::string_view token) {
  if (token.data() != nullptr && raw.data() != nullptr &&
      token.data() >= raw.data() &&
      token.data() <= raw.data() + raw.size()) {
    return static_cast<std::size_t>(token.data() - raw.data()) + 1;
  }
  return 1;
}

}  // namespace

namespace {

Result<EventStructure> ParseEventStructureImpl(
    std::string_view text, const GranularitySystem& system,
    GranularitySystem* mutable_system,
    std::vector<std::string>* variable_names);

}  // namespace

Result<EventStructure> ParseEventStructure(
    std::string_view text, const GranularitySystem& system,
    std::vector<std::string>* variable_names) {
  return ParseEventStructureImpl(text, system, nullptr, variable_names);
}

Result<EventStructure> ParseEventStructure(
    std::string_view text, GranularitySystem* system,
    std::vector<std::string>* variable_names) {
  GM_CHECK(system != nullptr);
  return ParseEventStructureImpl(text, *system, system, variable_names);
}

namespace {

Result<EventStructure> ParseEventStructureImpl(
    std::string_view text, const GranularitySystem& system,
    GranularitySystem* mutable_system,
    std::vector<std::string>* variable_names) {
  EventStructure structure;
  std::map<std::string, VariableId, std::less<>> ids;
  std::vector<std::string> names;
  auto intern = [&](std::string_view name) {
    auto it = ids.find(name);
    if (it != ids.end()) return it->second;
    VariableId id = structure.AddVariable(std::string(name));
    ids.emplace(std::string(name), id);
    names.emplace_back(name);
    return id;
  };

  int line_number = 0;
  for (std::string_view raw : SplitLines(text)) {
    ++line_number;
    std::string_view line = Trim(StripComment(raw));
    if (line.empty()) continue;
    auto fail = [&](const std::string& what) {
      return Status::Invalid("line " + std::to_string(line_number) + ": " +
                             what);
    };
    // Same, with the offending token's column — ParseInt and name-lookup
    // failures used to surface bare ("expected an integer, found 'x'"),
    // which is unfindable in a structure file of any size.
    auto fail_at = [&](std::string_view token, const std::string& what) {
      return Status::Invalid("line " + std::to_string(line_number) +
                             ", column " +
                             std::to_string(ColumnOf(raw, token)) + ": " +
                             what);
    };
    // Custom granularity declarations: "granularity NAME = EXPR".
    constexpr std::string_view kKeyword = "granularity ";
    if (line.rfind(kKeyword, 0) == 0) {
      if (mutable_system == nullptr) {
        return fail("granularity declarations need a mutable system");
      }
      std::string_view rest = Trim(line.substr(kKeyword.size()));
      std::size_t eq = rest.find('=');
      if (eq == std::string_view::npos) return fail("missing '='");
      std::string_view gran_name = Trim(rest.substr(0, eq));
      std::string_view expr = Trim(rest.substr(eq + 1));
      Result<const Granularity*> defined =
          ParseGranularityDefinition(gran_name, expr, mutable_system);
      if (!defined.ok()) return fail(defined.status().message());
      continue;
    }
    std::size_t arrow = line.find("->");
    if (arrow == std::string_view::npos) return fail("missing '->'");
    std::size_t colon = line.find(':', arrow);
    if (colon == std::string_view::npos) return fail("missing ':'");
    std::string_view from_name = Trim(line.substr(0, arrow));
    std::string_view to_name = Trim(line.substr(arrow + 2, colon - arrow - 2));
    if (from_name.empty() || to_name.empty()) {
      return fail("missing variable name");
    }
    VariableId from = intern(from_name);
    VariableId to = intern(to_name);

    std::string_view rest = line.substr(colon + 1);
    // Comma-separated TCGs: "[m,n] gran".
    while (true) {
      rest = Trim(rest);
      if (rest.empty()) break;
      if (rest.front() != '[') return fail_at(rest, "expected '['");
      std::size_t comma = rest.find(',');
      std::size_t close = rest.find(']');
      if (comma == std::string_view::npos || close == std::string_view::npos ||
          comma > close) {
        return fail_at(rest, "malformed interval");
      }
      std::string_view lo_token = Trim(rest.substr(1, comma - 1));
      Result<std::int64_t> lo_parsed = ParseInt(lo_token);
      if (!lo_parsed.ok()) {
        return fail_at(lo_token, lo_parsed.status().message());
      }
      std::int64_t lo = *lo_parsed;
      std::string_view hi_token = Trim(rest.substr(comma + 1, close - comma - 1));
      std::int64_t hi;
      if (hi_token == "inf") {
        hi = kInfinity;
      } else {
        Result<std::int64_t> hi_parsed = ParseInt(hi_token);
        if (!hi_parsed.ok()) {
          return fail_at(hi_token, hi_parsed.status().message());
        }
        hi = *hi_parsed;
      }
      rest = rest.substr(close + 1);
      std::size_t next = rest.find('[');
      std::string_view gran_name;
      if (next == std::string_view::npos) {
        std::size_t sep = rest.find(',');
        gran_name = Trim(sep == std::string_view::npos ? rest
                                                       : rest.substr(0, sep));
        rest = sep == std::string_view::npos ? std::string_view()
                                             : rest.substr(sep + 1);
      } else {
        std::string_view upto = rest.substr(0, next);
        std::size_t sep = upto.rfind(',');
        if (sep == std::string_view::npos) return fail("missing ','");
        gran_name = Trim(upto.substr(0, sep));
        rest = rest.substr(sep + 1);
      }
      if (gran_name.empty()) return fail("missing granularity name");
      const Granularity* granularity = system.Find(gran_name);
      if (granularity == nullptr) {
        return fail_at(gran_name, "unknown granularity '" +
                                      std::string(gran_name) + "'");
      }
      Status added =
          structure.AddConstraint(from, to, Tcg::Of(lo, hi, granularity));
      if (!added.ok()) return fail(added.message());
    }
  }
  if (variable_names != nullptr) *variable_names = std::move(names);
  return structure;
}

}  // namespace

Result<const Granularity*> ParseGranularityDefinition(
    std::string_view name, std::string_view expression,
    GranularitySystem* system) {
  GM_CHECK(system != nullptr);
  name = Trim(name);
  expression = Trim(expression);
  if (name.empty()) return Status::Invalid("empty granularity name");
  if (system->Find(name) != nullptr) {
    return Status::Invalid("granularity '" + std::string(name) +
                           "' already exists");
  }
  std::size_t open = expression.find('(');
  if (open == std::string_view::npos || expression.back() != ')') {
    return Status::Invalid("expected FUNC(...), found '" +
                           std::string(expression) + "'");
  }
  std::string_view func = Trim(expression.substr(0, open));
  std::string_view body =
      expression.substr(open + 1, expression.size() - open - 2);
  // Split on commas (top level only — no nesting in this grammar).
  std::vector<std::string_view> args;
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t comma = body.find(',', start);
    if (comma == std::string_view::npos) comma = body.size();
    std::string_view arg = Trim(body.substr(start, comma - start));
    if (!arg.empty()) args.push_back(arg);
    start = comma + 1;
  }
  auto base_of = [&](std::string_view base_name)
      -> Result<const Granularity*> {
    const Granularity* base = system->Find(Trim(base_name));
    if (base == nullptr) {
      return Status::Invalid("unknown base granularity '" +
                             std::string(base_name) + "'");
    }
    return base;
  };
  // Add* returns nullptr (with the reason in last_add_error) when the
  // system has been frozen; surface that as a parse error.
  auto added = [&](const Granularity* g) -> Result<const Granularity*> {
    if (g == nullptr) return system->last_add_error();
    return g;
  };

  if (func == "uniform") {
    if (args.empty() || args.size() > 2) {
      return Status::Invalid("uniform(WIDTH[, OFFSET])");
    }
    GM_ASSIGN_OR_RETURN(std::int64_t width, ParseInt(args[0]));
    std::int64_t offset = 0;
    if (args.size() == 2) {
      GM_ASSIGN_OR_RETURN(offset, ParseInt(args[1]));
    }
    if (width < 1) return Status::Invalid("width must be >= 1");
    return added(system->AddUniform(std::string(name), width, offset));
  }
  if (func == "group") {
    if (args.size() < 2 || args.size() > 3) {
      return Status::Invalid("group(BASE, K[, PHASE])");
    }
    GM_ASSIGN_OR_RETURN(const Granularity* base, base_of(args[0]));
    GM_ASSIGN_OR_RETURN(std::int64_t k, ParseInt(args[1]));
    std::int64_t phase = 0;
    if (args.size() == 3) {
      GM_ASSIGN_OR_RETURN(phase, ParseInt(args[2]));
    }
    if (k < 1 || phase < 0) return Status::Invalid("need K >= 1, PHASE >= 0");
    return added(system->AddGroup(std::string(name), base, k, phase));
  }
  if (func == "groupby") {
    if (args.size() != 2) return Status::Invalid("groupby(INNER, OUTER)");
    GM_ASSIGN_OR_RETURN(const Granularity* inner, base_of(args[0]));
    GM_ASSIGN_OR_RETURN(const Granularity* outer, base_of(args[1]));
    return added(system->AddGroupBy(std::string(name), inner, outer));
  }
  if (func == "filter") {
    if (args.size() != 3) {
      return Status::Invalid("filter(BASE, PERIOD, o1 o2 ...)");
    }
    GM_ASSIGN_OR_RETURN(const Granularity* base, base_of(args[0]));
    GM_ASSIGN_OR_RETURN(std::int64_t period, ParseInt(args[1]));
    PeriodicPattern pattern;
    pattern.base_period = period;
    std::istringstream offsets{std::string(args[2])};
    std::int64_t offset;
    while (offsets >> offset) pattern.kept.push_back(offset);
    if (pattern.kept.empty()) return Status::Invalid("no kept offsets");
    std::sort(pattern.kept.begin(), pattern.kept.end());
    for (std::int64_t o : pattern.kept) {
      if (o < 0 || o >= period) return Status::Invalid("offset out of range");
    }
    return added(system->AddFilter(std::string(name), base,
                                   std::move(pattern)));
  }
  if (func == "synthetic") {
    if (args.size() != 2) {
      return Status::Invalid("synthetic(PERIOD, a-b c-d ...)");
    }
    GM_ASSIGN_OR_RETURN(std::int64_t period, ParseInt(args[0]));
    std::vector<TimeSpan> ticks;
    std::istringstream pieces{std::string(args[1])};
    std::string piece;
    while (pieces >> piece) {
      std::size_t dash = piece.find('-');
      if (dash == std::string::npos) {
        return Status::Invalid("expected a-b interval, found '" + piece +
                               "'");
      }
      GM_ASSIGN_OR_RETURN(std::int64_t a,
                          ParseInt(std::string_view(piece).substr(0, dash)));
      GM_ASSIGN_OR_RETURN(
          std::int64_t b,
          ParseInt(std::string_view(piece).substr(dash + 1)));
      if (a > b || a < 0 || b >= period) {
        return Status::Invalid("interval out of range: " + piece);
      }
      ticks.push_back(TimeSpan::Of(a, b));
    }
    if (ticks.empty()) return Status::Invalid("no tick intervals");
    return added(
        system->AddSynthetic(std::string(name), period, std::move(ticks)));
  }
  return Status::Invalid("unknown granularity constructor '" +
                         std::string(func) + "'");
}

Result<TimePoint> ParseTimePoint(std::string_view text,
                                 std::int64_t units_per_day) {
  text = Trim(text);
  auto invalid = [&](const char* what) {
    return Status::Invalid(std::string(what) + " in '" + std::string(text) +
                           "'");
  };
  // Reads an integer, then `sep` unless it is 0, off the front of `rest`.
  std::string_view rest = text;
  auto read = [&](int* value, char sep) {
    auto [ptr, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), *value);
    rest.remove_prefix(static_cast<std::size_t>(ptr - rest.data()));
    if (ec != std::errc() || sep == 0) return ec == std::errc();
    if (rest.empty() || rest.front() != sep) return false;
    rest.remove_prefix(1);
    return true;
  };
  int year = 0, month = 0, day = 0, hour = 0, minute = 0, second = 0;
  if (!read(&year, '-') || !read(&month, '-') || !read(&day, 0)) {
    return invalid("expected 'YYYY-MM-DD[ Www][ HH:MM:SS]'");
  }
  if (month < 1 || month > 12 || day < 1 || day > DaysInMonth(year, month)) {
    return invalid("invalid civil date");
  }
  const TimePoint days = DaysFromCivil(year, month, day);
  rest = Trim(rest);
  // The optional weekday FormatTimePoint writes must name the date's day.
  if (!rest.empty() && std::isalpha(static_cast<unsigned char>(rest.front()))) {
    const std::string_view weekday = rest.substr(0, rest.find(' '));
    if (weekday != kWeekdays[WeekdayFromDays(days)]) {
      return invalid("weekday does not match the date");
    }
    rest = Trim(rest.substr(weekday.size()));
  }
  if (rest.empty()) return days * units_per_day;
  if (!read(&hour, ':') || !read(&minute, ':') || !read(&second, 0) ||
      !rest.empty()) {
    return invalid("expected 'HH:MM:SS' after the date");
  }
  if (units_per_day != kSecondsPerDay) {
    return invalid("time of day on a day-grained calendar");
  }
  if (hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0 ||
      second > 59) {
    return invalid("invalid time of day");
  }
  return days * units_per_day + hour * 3600 + minute * 60 + second;
}

Result<EventSequence> ParseEventSequence(std::string_view text,
                                         EventTypeRegistry* registry,
                                         std::int64_t units_per_day) {
  GM_CHECK(registry != nullptr);
  EventSequence sequence;
  int line_number = 0;
  for (std::string_view raw : SplitLines(text)) {
    ++line_number;
    std::string_view line = Trim(StripComment(raw));
    if (line.empty()) continue;
    // The type name is the last whitespace-separated token; everything
    // before it is the timestamp.
    std::size_t split = line.find_last_of(" \t");
    if (split == std::string_view::npos) {
      return Status::Invalid("line " + std::to_string(line_number) +
                             ": expected '<timestamp> <type>'");
    }
    std::string_view stamp = Trim(line.substr(0, split));
    std::string_view type_name = Trim(line.substr(split + 1));
    TimePoint t;
    if (!stamp.empty() &&
        (std::isdigit(static_cast<unsigned char>(stamp.front())) ||
         stamp.front() == '-') &&
        stamp.find('-', 1) == std::string_view::npos) {
      Result<std::int64_t> parsed = ParseInt(stamp);
      if (!parsed.ok()) {
        return Status::Invalid("line " + std::to_string(line_number) +
                               ", column " +
                               std::to_string(ColumnOf(raw, stamp)) + ": " +
                               parsed.status().message());
      }
      t = *parsed;
    } else {
      Result<TimePoint> parsed = ParseTimePoint(stamp, units_per_day);
      if (!parsed.ok()) {
        return Status::Invalid("line " + std::to_string(line_number) +
                               ", column " +
                               std::to_string(ColumnOf(raw, stamp)) + ": " +
                               parsed.status().message());
      }
      t = *parsed;
    }
    sequence.Add(registry->Intern(type_name), t);
  }
  return sequence;
}

std::string FormatTimePoint(TimePoint t, std::int64_t units_per_day) {
  std::int64_t days = FloorDiv(t, units_per_day);
  std::int64_t within = t - days * units_per_day;
  CivilDate date = CivilFromDays(days);
  char buffer[64];
  if (units_per_day == kSecondsPerDay) {
    std::snprintf(buffer, sizeof(buffer),
                  "%04lld-%02d-%02d %s %02lld:%02lld:%02lld",
                  static_cast<long long>(date.year), date.month, date.day,
                  kWeekdays[WeekdayFromDays(days)],
                  static_cast<long long>(within / 3600),
                  static_cast<long long>((within / 60) % 60),
                  static_cast<long long>(within % 60));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%04lld-%02d-%02d %s",
                  static_cast<long long>(date.year), date.month, date.day,
                  kWeekdays[WeekdayFromDays(days)]);
  }
  return buffer;
}

}  // namespace granmine

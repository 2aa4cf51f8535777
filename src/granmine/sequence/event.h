#ifndef GRANMINE_SEQUENCE_EVENT_H_
#define GRANMINE_SEQUENCE_EVENT_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "granmine/common/time_span.h"

namespace granmine {

/// Dense id of an event type ("IBM-rise", "deposit", ...) within a registry.
using EventTypeId = int;

/// An event (E, t) per §2: an event type occurring at a timestamp.
struct Event {
  EventTypeId type = 0;
  TimePoint time = 0;

  bool operator==(const Event&) const = default;
};

/// Interns event-type names to dense ids. Append-only; ids are stable.
class EventTypeRegistry {
 public:
  /// Returns the id of `name`, creating it on first use.
  EventTypeId Intern(std::string_view name);

  /// The id of `name` if present.
  std::optional<EventTypeId> Find(std::string_view name) const;

  const std::string& name(EventTypeId id) const;

  int size() const { return static_cast<int>(names_.size()); }

 private:
  // Transparent hash + std::equal_to<> let Intern / Find look up by
  // string_view: parsing an event line allocates no key string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, EventTypeId, NameHash, std::equal_to<>>
      ids_;
};

}  // namespace granmine

#endif  // GRANMINE_SEQUENCE_EVENT_H_

#include "granmine/sequence/event.h"

#include "granmine/common/check.h"

namespace granmine {

EventTypeId EventTypeRegistry::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  EventTypeId id = static_cast<EventTypeId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<EventTypeId> EventTypeRegistry::Find(
    std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& EventTypeRegistry::name(EventTypeId id) const {
  GM_CHECK(id >= 0 && id < size()) << "unknown event type id " << id;
  return names_[static_cast<std::size_t>(id)];
}

}  // namespace granmine

#include "granmine/persist/codecs.h"

#include <utility>

namespace granmine::persist {

namespace {

/// Largest event count the decoder will allocate for. Far above any real
/// snapshot; exists so a bit-flipped count fails with Invalid instead of an
/// allocation attempt (the CRC catches flips first, but the decoder is also
/// exercised standalone by the fuzz suite).
constexpr std::uint64_t kMaxDecodedEvents = std::uint64_t{1} << 32;

}  // namespace

std::vector<std::uint8_t> EncodeEventSequence(const EventSequence& sequence) {
  Encoder enc;
  enc.PutU64(sequence.size());
  for (const Event& event : sequence.events()) {
    enc.PutI32(event.type);
    enc.PutI64(event.time);
  }
  return enc.buffer();
}

Result<EventSequence> DecodeEventSequence(const Section& section) {
  Decoder dec(section.payload, section.payload_offset);
  std::uint64_t count = 0;
  GM_RETURN_NOT_OK(dec.GetU64("event count", &count));
  // Each event is 12 bytes; a count the payload cannot hold is corrupt, and
  // checking before reserving keeps a flipped count from demanding memory.
  if (count > kMaxDecodedEvents || count * 12 > dec.remaining()) {
    return dec.Corrupt("event count " + std::to_string(count) +
                       " exceeds payload");
  }
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Event event;
    GM_RETURN_NOT_OK(dec.GetI32("event type", &event.type));
    GM_RETURN_NOT_OK(dec.GetI64("event time", &event.time));
    events.push_back(event);
  }
  GM_RETURN_NOT_OK(dec.ExpectEnd("event sequence"));
  return EventSequence(std::move(events));
}

}  // namespace granmine::persist

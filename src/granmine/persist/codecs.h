#ifndef GRANMINE_PERSIST_CODECS_H_
#define GRANMINE_PERSIST_CODECS_H_

#include <cstdint>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/persist/snapshot.h"
#include "granmine/sequence/sequence.h"

namespace granmine::persist {

/// Section codec for the kEventSequence payload (docs/persistence.md). The
/// encoder produces a payload for SnapshotWriter::WriteSection; the decoder
/// consumes a CRC-verified Section and reports corruption with absolute byte
/// offsets via the Decoder contract.

std::vector<std::uint8_t> EncodeEventSequence(const EventSequence& sequence);
Result<EventSequence> DecodeEventSequence(const Section& section);

}  // namespace granmine::persist

#endif  // GRANMINE_PERSIST_CODECS_H_

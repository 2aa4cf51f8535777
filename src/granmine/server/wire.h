#ifndef GRANMINE_SERVER_WIRE_H_
#define GRANMINE_SERVER_WIRE_H_

// The granmine RPC wire format (docs/serving.md): a 12-byte connection
// preamble followed by length-prefixed, CRC-checked frames, built on the
// persist layer's little-endian Encoder/Decoder conventions
// (docs/persistence.md). The format is deliberately snapshot-shaped —
// magic + u32 version up front, a CRC32C over every frame, unknown frame
// types skippable by construction — so the forward-compatibility rules
// operators already know from snapshots apply on the wire too.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/persist/snapshot.h"

namespace granmine::server {

/// Connection preamble: 8 magic bytes + u32 wire version, sent by both
/// sides immediately after connect. "GMRPC01\0" — the trailing NUL pads the
/// magic to 8 bytes, mirroring the snapshot magic convention.
inline constexpr std::size_t kMagicSize = 8;
inline constexpr char kWireMagic[kMagicSize + 1] = "GMRPC01\0";
inline constexpr std::uint32_t kWireVersion = 1;
inline constexpr std::size_t kPreambleSize = kMagicSize + 4;

/// Frame header: u32 type | u32 flags | u64 correlation id | u64 payload
/// length | u32 CRC32C over the first 24 header bytes plus the payload.
inline constexpr std::size_t kFrameHeaderSize = 28;

/// Plausibility bound on a single frame payload. A header announcing more
/// is a protocol error (likely stream desync), not an allocation request.
inline constexpr std::uint64_t kMaxPayloadBytes = 16ull * 1024 * 1024;

/// Frame types. Append-only: values are wire contract, never renumbered.
/// Requests live below 64, replies at 64 and above; a receiver that does
/// not know a type CRC-checks and skips the frame (responding kErrorReply
/// kUnsupported if it is a server), so new types degrade gracefully.
enum class FrameType : std::uint32_t {
  // Requests (client -> server).
  kMine = 1,
  kCheck = 2,
  kDot = 3,
  kStatusz = 4,
  kStreamOpen = 5,
  kStreamIngest = 6,
  kStreamSeal = 7,
  kPing = 8,
  // Replies (server -> client).
  kReply = 64,
  kErrorReply = 65,
  kStreamAck = 66,
  kPong = 67,
};

/// One decoded frame: CRC-verified, payload materialized.
struct Frame {
  FrameType type = FrameType::kPing;
  std::uint32_t flags = 0;
  std::uint64_t corr_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Appends the 12-byte preamble to `out`.
void AppendPreamble(std::vector<std::uint8_t>* out);

/// Validates a peer's preamble bytes (exactly kPreambleSize of them).
Status CheckPreamble(std::span<const std::uint8_t> bytes);

/// Appends one complete frame (header + payload, CRC stamped) to `out`.
void AppendFrame(std::vector<std::uint8_t>* out, FrameType type,
                 std::uint64_t corr_id, std::span<const std::uint8_t> payload);

/// A decoded frame header (the CRC is checked separately, once the payload
/// has arrived).
struct FrameHeader {
  FrameType type = FrameType::kPing;
  std::uint32_t flags = 0;
  std::uint64_t corr_id = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t stored_crc = 0;
};

/// Decodes the 28 header bytes of the frame at absolute stream offset
/// `offset` and checks the declared payload length against `max_payload`.
/// Callers run this before they wait for the payload, so a desynchronized
/// stream fails fast instead of turning into an allocation request. Both
/// the server's FrameParser and the blocking Client validate through it.
Result<FrameHeader> DecodeFrameHeader(
    std::span<const std::uint8_t, kFrameHeaderSize> bytes,
    std::uint64_t max_payload, std::uint64_t offset);

/// Checks `header.stored_crc` against the CRC32C of the first 24 header
/// bytes plus the payload; a mismatch names `offset`.
Status VerifyFrameCrc(std::span<const std::uint8_t, kFrameHeaderSize> bytes,
                      const FrameHeader& header,
                      std::span<const std::uint8_t> payload,
                      std::uint64_t offset);

/// Incremental frame parser over a connection's receive buffer. Bytes are
/// fed in whatever fragments the transport delivers (down to one byte at a
/// time); `Next()` yields a frame exactly when a complete, CRC-valid one is
/// buffered. Any error (oversized length, CRC mismatch) is a protocol
/// error: the stream offset is unrecoverable and the connection must be
/// torn down.
///
/// The intake buffer is one contiguous vector plus a read offset: the
/// header decode, the CRC and the payload copy each run over a contiguous
/// span. The unconsumed bytes move to the front only when more room is
/// needed and the consumed prefix is at least half of the filled buffer, so
/// each byte is moved at most once per byte consumed — O(1) amortised. The
/// buffer grows in powers of two as bytes arrive and keeps its capacity.
class FrameParser {
 public:
  explicit FrameParser(std::uint64_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  /// Appends `bytes` to the buffer (one copy).
  void Feed(std::span<const std::uint8_t> bytes);

  /// At least `min_bytes` of writable space directly after the buffered
  /// bytes, so a transport can recv() straight into the parser. Commit(n),
  /// called before any other member, then appends the first n of them
  /// (n ≤ the span's size).
  std::span<std::uint8_t> Tail(std::size_t min_bytes);
  void Commit(std::size_t n) { end_ += n; }

  /// One complete frame if buffered, std::nullopt if more bytes are needed,
  /// or a Status naming the absolute stream offset of the corruption.
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed as frames.
  std::size_t buffered() const { return end_ - begin_; }
  /// Absolute offset of the next frame boundary in the byte stream.
  std::uint64_t consumed() const { return consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;  ///< [begin_, end_) is unconsumed
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::uint64_t max_payload_;
  std::uint64_t consumed_ = 0;
};

// --- Payload codecs ------------------------------------------------------
//
// Payloads reuse persist::Encoder / persist::Decoder: little-endian
// fixed-width integers and u32-length-prefixed strings. Every decoder ends
// with ExpectEnd, so trailing garbage inside a CRC-valid frame is still a
// codec mismatch with a byte offset.

/// One `mine` request, carried by value: the server reads no files, the
/// client ships the structure / event texts. String knobs that the CLI
/// validates ("confidence", "on-budget", …) travel as the raw flag text and
/// are validated server-side with the same error messages, so a bad value
/// round-trips the exact granmine_cli diagnostic.
struct MineCall {
  std::string structure_text;
  std::string events_text;
  std::string reference;
  std::string confidence;  ///< empty = the 0.5 default
  std::string on_budget;   ///< empty = policy unset
  std::vector<std::string> pins;
  bool naive = false;
  bool explain = false;
  /// CLI parity: a deadline without an explicit --on-budget degrades to a
  /// partial report instead of failing the run.
  bool default_partial = false;
};

struct CheckCall {
  std::string structure_text;
  bool exact = false;
};

struct DotCall {
  std::string structure_text;
  bool tag = false;
};

struct StreamOpenCall {
  std::string structure_text;
  std::string reference;
  std::string window;     ///< raw flag text, validated server-side
  std::string slide;
  std::string theta;      ///< empty = the 0.5 default
  std::string types;      ///< comma-separated shared pool; empty = none
  std::string tolerance;  ///< empty = unset
  std::vector<std::string> pins;
};

std::vector<std::uint8_t> EncodeMineCall(const MineCall& call);
Status DecodeMineCall(std::span<const std::uint8_t> payload, MineCall* out);

std::vector<std::uint8_t> EncodeCheckCall(const CheckCall& call);
Status DecodeCheckCall(std::span<const std::uint8_t> payload, CheckCall* out);

std::vector<std::uint8_t> EncodeDotCall(const DotCall& call);
Status DecodeDotCall(std::span<const std::uint8_t> payload, DotCall* out);

std::vector<std::uint8_t> EncodeStreamOpenCall(const StreamOpenCall& call);
Status DecodeStreamOpenCall(std::span<const std::uint8_t> payload,
                            StreamOpenCall* out);

/// kStreamIngest payload: raw event-file lines, no envelope.
std::vector<std::uint8_t> EncodeIngestChunk(std::string_view lines);

/// kReply payload: the subcommand's exit code plus its exact stdout /
/// stderr / stats bytes (docs/serving.md, "Reply"). `out` is byte-identical
/// to what granmine_cli would have printed for the same request.
struct ReplyBody {
  std::int32_t exit_code = 0;
  std::string out;
  std::string err;
  std::string diag;
};

std::vector<std::uint8_t> EncodeReply(const ReplyBody& reply);
Status DecodeReply(std::span<const std::uint8_t> payload, ReplyBody* out);

/// kErrorReply payload: a serving-layer error (admission shed, protocol
/// violation, unknown frame type) — distinct from an application error,
/// which travels as a kReply with a non-zero exit code.
struct ErrorBody {
  std::uint32_t status_code = 0;  ///< StatusCode numeric value
  bool retryable = false;         ///< re-submit after backoff_ms is safe
  bool fatal = false;             ///< server closes the connection after this
  std::uint64_t backoff_ms = 0;   ///< suggested retry delay (retryable only)
  std::string message;
};

std::vector<std::uint8_t> EncodeError(const ErrorBody& error);
Status DecodeError(std::span<const std::uint8_t> payload, ErrorBody* out);

/// kStreamAck payload: one deterministic commit acknowledgement per
/// kStreamIngest / kStreamSeal frame — the counts and snapshot bytes are a
/// pure function of the lines ingested so far, independent of timing.
struct StreamAckBody {
  std::uint64_t accepted = 0;       ///< events accepted by this frame
  std::uint64_t rejected_late = 0;  ///< late arrivals rejected by this frame
  std::int32_t exit_code = 0;
  std::string out;  ///< snapshot blocks emitted by this frame, CLI bytes
  std::string err;  ///< per-line drop/parse diagnostics, CLI bytes
};

std::vector<std::uint8_t> EncodeStreamAck(const StreamAckBody& ack);
Status DecodeStreamAck(std::span<const std::uint8_t> payload,
                       StreamAckBody* out);

}  // namespace granmine::server

#endif  // GRANMINE_SERVER_WIRE_H_

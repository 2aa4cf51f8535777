#include "granmine/server/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "granmine/persist/crc32c.h"

namespace granmine::server {

namespace {

void PutU32Le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64Le(std::uint8_t* out, std::uint64_t v) {
  PutU32Le(out, static_cast<std::uint32_t>(v));
  PutU32Le(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t GetU32Le(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t GetU64Le(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(GetU32Le(in)) |
         static_cast<std::uint64_t>(GetU32Le(in + 4)) << 32;
}

void PutPins(persist::Encoder* enc, const std::vector<std::string>& pins) {
  enc->PutU32(static_cast<std::uint32_t>(pins.size()));
  for (const std::string& pin : pins) enc->PutString(pin);
}

Status GetPins(persist::Decoder* dec, std::vector<std::string>* pins) {
  std::uint32_t count = 0;
  GM_RETURN_NOT_OK(dec->GetU32("pin count", &count));
  // Each pin costs at least its 4-byte length prefix; a count beyond
  // remaining/4 cannot be satisfied — reject before reserving.
  if (count > dec->remaining() / 4) {
    return dec->Corrupt("pin count " + std::to_string(count) +
                        " exceeds remaining payload");
  }
  pins->clear();
  pins->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string pin;
    GM_RETURN_NOT_OK(dec->GetString("pin", &pin));
    pins->push_back(std::move(pin));
  }
  return Status::OK();
}

}  // namespace

void AppendPreamble(std::vector<std::uint8_t>* out) {
  const auto* magic = reinterpret_cast<const std::uint8_t*>(kWireMagic);
  out->insert(out->end(), magic, magic + kMagicSize);
  std::uint8_t version[4];
  PutU32Le(version, kWireVersion);
  out->insert(out->end(), version, version + 4);
}

Status CheckPreamble(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kPreambleSize) {
    return Status::Invalid("preamble: expected " +
                           std::to_string(kPreambleSize) + " bytes, got " +
                           std::to_string(bytes.size()));
  }
  if (std::memcmp(bytes.data(), kWireMagic, kMagicSize) != 0) {
    return Status::Invalid("preamble: bad magic (not a granmine RPC peer)");
  }
  const std::uint32_t version = GetU32Le(bytes.data() + kMagicSize);
  if (version != kWireVersion) {
    return Status::Unsupported("preamble: wire version " +
                               std::to_string(version) + ", this build speaks " +
                               std::to_string(kWireVersion));
  }
  return Status::OK();
}

void AppendFrame(std::vector<std::uint8_t>* out, FrameType type,
                 std::uint64_t corr_id,
                 std::span<const std::uint8_t> payload) {
  std::uint8_t header[kFrameHeaderSize];
  PutU32Le(header, static_cast<std::uint32_t>(type));
  PutU32Le(header + 4, 0);  // flags: reserved, receivers ignore unknown bits
  PutU64Le(header + 8, corr_id);
  PutU64Le(header + 16, static_cast<std::uint64_t>(payload.size()));
  std::uint32_t crc = persist::ExtendCrc32c(
      persist::kCrc32cInit, std::span<const std::uint8_t>(header, 24));
  crc = persist::ExtendCrc32c(crc, payload);
  PutU32Le(header + 24, crc);
  out->insert(out->end(), header, header + kFrameHeaderSize);
  out->insert(out->end(), payload.begin(), payload.end());
}

Result<FrameHeader> DecodeFrameHeader(
    std::span<const std::uint8_t, kFrameHeaderSize> bytes,
    std::uint64_t max_payload, std::uint64_t offset) {
  FrameHeader header;
  header.type = static_cast<FrameType>(GetU32Le(bytes.data()));
  header.flags = GetU32Le(bytes.data() + 4);
  header.corr_id = GetU64Le(bytes.data() + 8);
  header.payload_len = GetU64Le(bytes.data() + 16);
  header.stored_crc = GetU32Le(bytes.data() + 24);
  if (header.payload_len > max_payload) {
    return Status::Invalid(
        "frame at offset " + std::to_string(offset) + ": payload length " +
        std::to_string(header.payload_len) + " exceeds the " +
        std::to_string(max_payload) + "-byte bound");
  }
  return header;
}

Status VerifyFrameCrc(std::span<const std::uint8_t, kFrameHeaderSize> bytes,
                      const FrameHeader& header,
                      std::span<const std::uint8_t> payload,
                      std::uint64_t offset) {
  std::uint32_t crc =
      persist::ExtendCrc32c(persist::kCrc32cInit, bytes.first<24>());
  crc = persist::ExtendCrc32c(crc, payload);
  if (crc != header.stored_crc) {
    return Status::Invalid("frame at offset " + std::to_string(offset) +
                           ": CRC mismatch (stored " +
                           std::to_string(header.stored_crc) + ", computed " +
                           std::to_string(crc) + ")");
  }
  return Status::OK();
}

void FrameParser::Feed(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  std::memcpy(Tail(bytes.size()).data(), bytes.data(), bytes.size());
  Commit(bytes.size());
}

std::span<std::uint8_t> FrameParser::Tail(std::size_t min_bytes) {
  // The buffer grows only as bytes actually arrive — never from a header's
  // declared length — so a peer cannot reserve memory it does not send.
  if (buffer_.size() - end_ < min_bytes) {
    if (begin_ > 0 && 2 * begin_ >= end_) {
      // The consumed prefix is at least half the filled buffer, so the
      // unconsumed suffix is no longer than it: moving the suffix costs at
      // most one byte moved per byte consumed since the last compaction.
      std::memmove(buffer_.data(), buffer_.data() + begin_, buffered());
      end_ -= begin_;
      begin_ = 0;
    }
    if (buffer_.size() - end_ < min_bytes) {
      // Power-of-two capacities at least double on every growth, which
      // keeps a burst of pipelined frames amortised O(1) per byte and the
      // buffer under twice the most it ever held. Growing copies the
      // unconsumed bytes once anyway, so only those are copied.
      std::vector<std::uint8_t> grown(std::bit_ceil(buffered() + min_bytes));
      std::copy_n(buffer_.data() + begin_, buffered(), grown.data());
      end_ = buffered();
      begin_ = 0;
      buffer_.swap(grown);
    }
  }
  return {buffer_.data() + end_, buffer_.size() - end_};
}

Result<std::optional<Frame>> FrameParser::Next() {
  if (buffered() < kFrameHeaderSize) return std::optional<Frame>{};
  const std::span<const std::uint8_t> data(buffer_.data() + begin_,
                                           buffered());
  const auto header_bytes = data.first<kFrameHeaderSize>();
  GM_ASSIGN_OR_RETURN(FrameHeader header,
                      DecodeFrameHeader(header_bytes, max_payload_, consumed_));
  if (data.size() - kFrameHeaderSize < header.payload_len) {
    return std::optional<Frame>{};
  }
  const auto payload = data.subspan(
      kFrameHeaderSize, static_cast<std::size_t>(header.payload_len));
  GM_RETURN_NOT_OK(VerifyFrameCrc(header_bytes, header, payload, consumed_));
  Frame frame;
  frame.type = header.type;
  frame.flags = header.flags;
  frame.corr_id = header.corr_id;
  frame.payload.assign(payload.begin(), payload.end());
  const std::size_t frame_size = kFrameHeaderSize + payload.size();
  begin_ += frame_size;
  consumed_ += frame_size;
  if (begin_ == end_) begin_ = end_ = 0;
  return std::optional<Frame>{std::move(frame)};
}

std::vector<std::uint8_t> EncodeMineCall(const MineCall& call) {
  persist::Encoder enc;
  enc.PutString(call.structure_text);
  enc.PutString(call.events_text);
  enc.PutString(call.reference);
  enc.PutString(call.confidence);
  enc.PutString(call.on_budget);
  enc.PutU8(static_cast<std::uint8_t>((call.naive ? 1 : 0) |
                                      (call.explain ? 2 : 0) |
                                      (call.default_partial ? 4 : 0)));
  PutPins(&enc, call.pins);
  return enc.buffer();
}

Status DecodeMineCall(std::span<const std::uint8_t> payload, MineCall* out) {
  persist::Decoder dec(payload, 0);
  GM_RETURN_NOT_OK(dec.GetString("structure text", &out->structure_text));
  GM_RETURN_NOT_OK(dec.GetString("events text", &out->events_text));
  GM_RETURN_NOT_OK(dec.GetString("reference", &out->reference));
  GM_RETURN_NOT_OK(dec.GetString("confidence", &out->confidence));
  GM_RETURN_NOT_OK(dec.GetString("on-budget", &out->on_budget));
  std::uint8_t flags = 0;
  GM_RETURN_NOT_OK(dec.GetU8("mine flags", &flags));
  out->naive = (flags & 1) != 0;
  out->explain = (flags & 2) != 0;
  out->default_partial = (flags & 4) != 0;
  GM_RETURN_NOT_OK(GetPins(&dec, &out->pins));
  return dec.ExpectEnd("mine call");
}

std::vector<std::uint8_t> EncodeCheckCall(const CheckCall& call) {
  persist::Encoder enc;
  enc.PutString(call.structure_text);
  enc.PutU8(call.exact ? 1 : 0);
  return enc.buffer();
}

Status DecodeCheckCall(std::span<const std::uint8_t> payload, CheckCall* out) {
  persist::Decoder dec(payload, 0);
  GM_RETURN_NOT_OK(dec.GetString("structure text", &out->structure_text));
  std::uint8_t exact = 0;
  GM_RETURN_NOT_OK(dec.GetU8("exact flag", &exact));
  out->exact = exact != 0;
  return dec.ExpectEnd("check call");
}

std::vector<std::uint8_t> EncodeDotCall(const DotCall& call) {
  persist::Encoder enc;
  enc.PutString(call.structure_text);
  enc.PutU8(call.tag ? 1 : 0);
  return enc.buffer();
}

Status DecodeDotCall(std::span<const std::uint8_t> payload, DotCall* out) {
  persist::Decoder dec(payload, 0);
  GM_RETURN_NOT_OK(dec.GetString("structure text", &out->structure_text));
  std::uint8_t tag = 0;
  GM_RETURN_NOT_OK(dec.GetU8("tag flag", &tag));
  out->tag = tag != 0;
  return dec.ExpectEnd("dot call");
}

std::vector<std::uint8_t> EncodeStreamOpenCall(const StreamOpenCall& call) {
  persist::Encoder enc;
  enc.PutString(call.structure_text);
  enc.PutString(call.reference);
  enc.PutString(call.window);
  enc.PutString(call.slide);
  enc.PutString(call.theta);
  enc.PutString(call.types);
  enc.PutString(call.tolerance);
  PutPins(&enc, call.pins);
  return enc.buffer();
}

Status DecodeStreamOpenCall(std::span<const std::uint8_t> payload,
                            StreamOpenCall* out) {
  persist::Decoder dec(payload, 0);
  GM_RETURN_NOT_OK(dec.GetString("structure text", &out->structure_text));
  GM_RETURN_NOT_OK(dec.GetString("reference", &out->reference));
  GM_RETURN_NOT_OK(dec.GetString("window", &out->window));
  GM_RETURN_NOT_OK(dec.GetString("slide", &out->slide));
  GM_RETURN_NOT_OK(dec.GetString("theta", &out->theta));
  GM_RETURN_NOT_OK(dec.GetString("types", &out->types));
  GM_RETURN_NOT_OK(dec.GetString("tolerance", &out->tolerance));
  GM_RETURN_NOT_OK(GetPins(&dec, &out->pins));
  return dec.ExpectEnd("stream open call");
}

std::vector<std::uint8_t> EncodeIngestChunk(std::string_view lines) {
  return std::vector<std::uint8_t>(lines.begin(), lines.end());
}

std::vector<std::uint8_t> EncodeReply(const ReplyBody& reply) {
  persist::Encoder enc;
  enc.PutI32(reply.exit_code);
  enc.PutString(reply.out);
  enc.PutString(reply.err);
  enc.PutString(reply.diag);
  return enc.buffer();
}

Status DecodeReply(std::span<const std::uint8_t> payload, ReplyBody* out) {
  persist::Decoder dec(payload, 0);
  GM_RETURN_NOT_OK(dec.GetI32("exit code", &out->exit_code));
  GM_RETURN_NOT_OK(dec.GetString("stdout", &out->out));
  GM_RETURN_NOT_OK(dec.GetString("stderr", &out->err));
  GM_RETURN_NOT_OK(dec.GetString("diag", &out->diag));
  return dec.ExpectEnd("reply");
}

std::vector<std::uint8_t> EncodeError(const ErrorBody& error) {
  persist::Encoder enc;
  enc.PutU32(error.status_code);
  enc.PutU8(error.retryable ? 1 : 0);
  enc.PutU8(error.fatal ? 1 : 0);
  enc.PutU64(error.backoff_ms);
  enc.PutString(error.message);
  return enc.buffer();
}

Status DecodeError(std::span<const std::uint8_t> payload, ErrorBody* out) {
  persist::Decoder dec(payload, 0);
  GM_RETURN_NOT_OK(dec.GetU32("status code", &out->status_code));
  std::uint8_t retryable = 0, fatal = 0;
  GM_RETURN_NOT_OK(dec.GetU8("retryable flag", &retryable));
  GM_RETURN_NOT_OK(dec.GetU8("fatal flag", &fatal));
  out->retryable = retryable != 0;
  out->fatal = fatal != 0;
  GM_RETURN_NOT_OK(dec.GetU64("backoff ms", &out->backoff_ms));
  GM_RETURN_NOT_OK(dec.GetString("message", &out->message));
  return dec.ExpectEnd("error reply");
}

std::vector<std::uint8_t> EncodeStreamAck(const StreamAckBody& ack) {
  persist::Encoder enc;
  enc.PutU64(ack.accepted);
  enc.PutU64(ack.rejected_late);
  enc.PutI32(ack.exit_code);
  enc.PutString(ack.out);
  enc.PutString(ack.err);
  return enc.buffer();
}

Status DecodeStreamAck(std::span<const std::uint8_t> payload,
                       StreamAckBody* out) {
  persist::Decoder dec(payload, 0);
  GM_RETURN_NOT_OK(dec.GetU64("accepted", &out->accepted));
  GM_RETURN_NOT_OK(dec.GetU64("rejected late", &out->rejected_late));
  GM_RETURN_NOT_OK(dec.GetI32("exit code", &out->exit_code));
  GM_RETURN_NOT_OK(dec.GetString("stdout", &out->out));
  GM_RETURN_NOT_OK(dec.GetString("stderr", &out->err));
  return dec.ExpectEnd("stream ack");
}

}  // namespace granmine::server

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_
// Seeded request generation for the benchmark workloads, and the
// reference answers every server reply is checked against. Everything here
// is a pure function of the seed: the server only ever sees the request
// texts built here.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "granmine/common/status.h"
#include "granmine/engine/engine.h"
#include "granmine/server/wire.h"

namespace perfbench {

using granmine::server::FrameType;

/// An event tape in the event-file text format, one event per line.
struct Tape {
  std::string text;
  /// Byte offset of every line start, plus text.size() as a sentinel.
  std::vector<std::size_t> line_start;
  std::size_t lines() const { return line_start.size() - 1; }
  std::string_view Lines(std::size_t first, std::size_t count) const {
    return std::string_view(text).substr(
        line_start[first], line_start[first + count] - line_start[first]);
  }
};

/// What a reply must carry to pass the reference check.
struct Expected {
  std::int32_t exit_code = 0;
  /// Byte-equal reply stdout, except for mine requests, where it holds only
  /// the solution block of the naive (§5 baseline) run.
  std::string out;
  std::string err;
  std::uint64_t accepted = 0;  ///< stream acks only
  std::uint64_t rejected_late = 0;
};

struct Request {
  FrameType type = FrameType::kPing;
  std::string label;  ///< request kind, for per-kind breakdowns
  /// Pre-encoded payload. Mine requests leave it empty and carry `mine`
  /// plus a view of their event lines instead; EncodePayload builds their
  /// frame at send time so a large pool never sits in memory encoded.
  std::vector<std::uint8_t> payload;
  granmine::server::MineCall mine;
  std::string_view mine_events;
  std::size_t events = 0;  ///< input events the request carries
  Expected expected;
  /// Request ids the server mints while serving this frame: one at frame
  /// decode plus one per engine entry point reached. The statusz
  /// cross-check predicts the server's `requests_total` from these.
  std::uint64_t mints = 1;
};

std::vector<std::uint8_t> EncodePayload(const Request& request);

struct Workload {
  std::string name;
  std::vector<Tape> tapes;  ///< owns the text every `mine_events` views
  std::vector<Request> requests;
  /// Load connections the workload drives.
  int connections = 2;
  /// stream_feed: per connection, the request indices of one session
  /// (open, ingest..., seal), replayed back to back until the run ends.
  std::vector<std::vector<std::size_t>> sessions;
  /// Distinct structure texts the workload's requests use.
  std::vector<std::string> structures;
};

/// Closed-loop §5 discovery: a pool of `pool_size` distinct mine requests
/// (stock / ATM patterns, ~1e3 and ~1e4 events, pinned and free variables).
Workload MakeMineBatch(std::uint64_t seed, std::size_t pool_size);
/// Three stream sessions over out-of-order stock-tick tapes.
Workload MakeStreamFeed(std::uint64_t seed);

/// Fills every request's Expected (and `mints`) from in-process
/// server/service.h calls on `engine`; mine references run the naive
/// algorithm, on `threads` threads counting the caller.
granmine::Status ComputeExpected(granmine::Engine* engine, Workload* workload,
                                 int threads);

/// Checks one reply frame against the request's reference answer; on a
/// mismatch returns false and says why.
bool ReplyMatches(const Request& request, const granmine::server::Frame& frame,
                  std::string* why);

/// The solution block of a mine reply: the "N solution(s)" line and every
/// line after it (identical between the naive and optimized miners).
std::string SolutionLines(const std::string& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

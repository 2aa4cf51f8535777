#ifndef GRANMINE_SERVER_SERVER_H_
#define GRANMINE_SERVER_SERVER_H_

// The granmine network serving layer: a long-lived TCP server owning one
// Engine, speaking the framed wire protocol of server/wire.h
// (docs/serving.md). One poll-based event loop thread owns every socket and
// the per-connection intake buffers; frames parse incrementally as bytes
// arrive and dispatch to a small worker pool, so a slow mine on one
// connection never blocks another connection's reads or writes. Each
// connection's requests run strictly in order, one at a time — that is
// what makes stream ingest acknowledgements deterministic.
//
// Overload behaviour is the Engine's: Mine / stream-open requests pass
// through the AdmissionController inside the engine entry points, and a
// shed comes back to the client as a retryable kErrorReply carrying the
// reason and the suggested backoff (engine/admission.h, IsRetryableShed).

#include <cstdint>
#include <memory>
#include <string>

#include "granmine/common/result.h"

namespace granmine {
class Engine;
}

namespace granmine::server {

struct ServerOptions {
  /// Listen address. Defaults to loopback: granmine speaks an
  /// unauthenticated protocol, so exposing it beyond the host is an
  /// explicit operator decision (docs/serving.md, "Runbook").
  std::string host = "127.0.0.1";
  /// 0 = pick an ephemeral port (read it back with port() after Start).
  std::uint16_t port = 0;
  /// Dispatch worker threads. 2 keeps a cheap statusz/check responsive
  /// while one long mine runs; admission slots, not workers, are the
  /// intended concurrency throttle.
  int workers = 2;
  /// Per-frame payload bound; frames announcing more are protocol errors.
  std::uint64_t max_payload_bytes = 0;  ///< 0 = wire.h default
  /// Per-connection pipelining depth: request frames parsed but not yet
  /// dispatched. A peer that exceeds it stops being read (plain TCP
  /// backpressure) until workers drain its queue, so pipelining many
  /// max-size frames cannot grow the heap past
  /// max_pending_frames * max_payload_bytes per connection.
  std::size_t max_pending_frames = 16;
  /// Per-connection cap on buffered response bytes. A peer that pipelines
  /// requests but never reads its replies is disconnected when its outbox
  /// crosses this bound instead of buffering without bound.
  std::size_t max_outbox_bytes = 64ull * 1024 * 1024;
};

/// A running server. Start() freezes the engine (the network layer is a
/// serve-phase artifact: define granularities before starting) and spawns
/// the loop + worker threads; Stop() — also run by the destructor — drains
/// in-flight requests and joins them. Thread-safe: Start/Stop/telemetry may
/// be called from any thread.
class Server {
 public:
  explicit Server(Engine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();
  void Stop();

  /// The bound port (valid after a successful Start).
  std::uint16_t port() const;

  /// Lifetime telemetry, mirrored into granmine_server_* metrics.
  std::uint64_t connections_accepted() const;
  std::uint64_t frames_dispatched() const;
  std::uint64_t frame_errors() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace granmine::server

#endif  // GRANMINE_SERVER_SERVER_H_

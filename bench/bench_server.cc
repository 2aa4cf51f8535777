// Serving-layer cost model (docs/serving.md). Two claims to check:
//
//  (a) the frame codec is not the bottleneck — AppendFrame (header build +
//      CRC32C over header and payload) and FrameParser::Feed/Next move
//      bytes far faster than a loopback socket can deliver them, across
//      payload sizes up to a 400 KiB mine frame and even under
//      pathologically torn delivery; BM_Crc32c isolates the checksum;
//  (b) a loopback round trip through the full stack (client encode →
//      poll loop → worker dispatch → service render → reply frame) costs
//      tens of microseconds for a ping and stays request-bound, not
//      framing-bound, for a real check call.
//
// The server fixture is started once and shared across iterations: the
// multi-second Gregorian Freeze() at Server::Start is a startup cost, not
// a per-request one, and benchmarking it here would only measure that.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "granmine/engine/engine.h"
#include "granmine/persist/crc32c.h"
#include "granmine/server/client.h"
#include "granmine/server/server.h"
#include "granmine/server/wire.h"

namespace granmine {
namespace {

constexpr const char* kStructure =
    "rise -> report : [1,1] b-day\n"
    "report -> rise2 : [0,5] day\n";

std::vector<std::uint8_t> Payload(std::size_t size) {
  std::vector<std::uint8_t> payload(size);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < size; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    payload[i] = static_cast<std::uint8_t>(state >> 56);
  }
  return payload;
}

void BM_ServerWire_AppendFrame(benchmark::State& state) {
  const auto payload = Payload(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    server::AppendFrame(&out, server::FrameType::kStreamIngest, 7, payload);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ServerWire_AppendFrame)->Arg(64)->Arg(4096)->Arg(65536);

void BM_ServerWire_ParseFrame(benchmark::State& state) {
  const auto payload = Payload(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> wire;
  server::AppendFrame(&wire, server::FrameType::kStreamIngest, 7, payload);
  server::FrameParser parser;
  for (auto _ : state) {
    parser.Feed(wire);
    auto frame = parser.Next();
    if (!frame.ok() || !frame->has_value()) {
      state.SkipWithError("parse failed");
      return;
    }
    benchmark::DoNotOptimize((*frame)->payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
// 400 KiB is a 10^4-event §5 mine request, the largest frame mine_batch
// sends.
BENCHMARK(BM_ServerWire_ParseFrame)
    ->Arg(64)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(400 * 1024);

// CRC32C over one contiguous span: a small frame header-plus-payload, a
// stream-ingest sized frame, and a large mine frame.
void BM_Crc32c(benchmark::State& state) {
  const auto payload = Payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(persist::Crc32c(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(1 << 20);

// Worst-case reassembly: the same frame delivered in 16-byte slices, the
// shape a drip-feeding peer or a tiny SO_RCVBUF produces.
void BM_ServerWire_ParseTornFrame(benchmark::State& state) {
  const auto payload = Payload(4096);
  std::vector<std::uint8_t> wire;
  server::AppendFrame(&wire, server::FrameType::kStreamIngest, 7, payload);
  server::FrameParser parser;
  for (auto _ : state) {
    for (std::size_t off = 0; off < wire.size(); off += 16) {
      const std::size_t n = std::min<std::size_t>(16, wire.size() - off);
      parser.Feed({wire.data() + off, n});
    }
    auto frame = parser.Next();
    if (!frame.ok() || !frame->has_value()) {
      state.SkipWithError("parse failed");
      return;
    }
    benchmark::DoNotOptimize((*frame)->payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ServerWire_ParseTornFrame);

// One engine + server + connected client for every loopback benchmark; the
// Gregorian freeze is paid once here, as in a real deployment.
struct Loopback {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<server::Client> client;

  static Loopback* Get() {
    static Loopback* instance = [] {
      auto* loopback = new Loopback();
      auto engine = Engine::CreateGregorian(EngineOptions{});
      GM_CHECK(engine.ok());
      loopback->engine = std::move(*engine);
      loopback->server = std::make_unique<server::Server>(
          loopback->engine.get(), server::ServerOptions{});
      GM_CHECK(loopback->server->Start().ok());
      auto client =
          server::Client::Connect("127.0.0.1", loopback->server->port());
      GM_CHECK(client.ok());
      loopback->client = std::move(*client);
      return loopback;
    }();
    return instance;
  }
};

void BM_ServerLoopback_Ping(benchmark::State& state) {
  Loopback* loopback = Loopback::Get();
  for (auto _ : state) {
    if (!loopback->client->Ping().ok()) {
      state.SkipWithError("ping failed");
      return;
    }
  }
}
BENCHMARK(BM_ServerLoopback_Ping);

void BM_ServerLoopback_Check(benchmark::State& state) {
  Loopback* loopback = Loopback::Get();
  server::CheckCall call;
  call.structure_text = kStructure;
  for (auto _ : state) {
    auto response = loopback->client->Check(call);
    if (!response.ok() || response->exit_code != 0) {
      state.SkipWithError("check failed");
      return;
    }
    benchmark::DoNotOptimize(response->out.data());
  }
}
BENCHMARK(BM_ServerLoopback_Check);

void BM_ServerLoopback_Statusz(benchmark::State& state) {
  Loopback* loopback = Loopback::Get();
  for (auto _ : state) {
    auto response = loopback->client->Statusz();
    if (!response.ok() || response->exit_code != 0) {
      state.SkipWithError("statusz failed");
      return;
    }
    benchmark::DoNotOptimize(response->out.data());
  }
}
BENCHMARK(BM_ServerLoopback_Statusz);

}  // namespace
}  // namespace granmine

BENCHMARK_MAIN();

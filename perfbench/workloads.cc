#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "granmine/common/random.h"
#include "granmine/granularity/system.h"
#include "granmine/io/text_format.h"
#include "granmine/sequence/generators.h"
#include "granmine/server/service.h"

namespace perfbench {

using namespace granmine;
using namespace granmine::server;

namespace {

// The paper's Figure 1(a) stock pattern and the introduction's ATM pattern
// (deposit, then a large withdrawal the same day, then an alert within two
// days), in the structure-file DSL.
constexpr char kStockStructure[] =
    "rise -> report : [1,1] b-day\n"
    "report -> fall : [0,1] week\n"
    "rise -> hp     : [0,5] b-day\n"
    "hp -> fall     : [0,8] hour\n";
constexpr char kAtmStructure[] =
    "dep -> wd : [0,0] day\n"
    "wd -> alert : [1,2] day\n";
constexpr int kAtmAccounts = 5;

// stream_feed geometry: a stock-tick tape per session with a two-week
// window sliding daily, and 30 minutes of out-of-order tolerance.
constexpr int kStreamTradingDays = 200;
constexpr double kStreamTicksPerDay = 30.0;
constexpr std::int64_t kToleranceSecs = 1800;
constexpr double kDisorderedShare = 0.12;  // displaced within the tolerance
constexpr double kLateShare = 0.03;        // displaced beyond it
constexpr std::size_t kChunkLines = 32;

Tape RenderTape(const std::vector<Event>& events,
                const EventTypeRegistry& registry) {
  Tape tape;
  for (const Event& event : events) {
    tape.line_start.push_back(tape.text.size());
    // FormatTimePoint writes "YYYY-MM-DD Ddd HH:MM:SS"; the event parser
    // reads "YYYY-MM-DD HH:MM:SS" and would take the weekday as the end of
    // the stamp, dropping the time of day. Strip the weekday.
    std::string stamp = FormatTimePoint(event.time);
    stamp.erase(10, 4);
    tape.text += stamp;
    tape.text += ' ';
    tape.text += registry.name(event.type);
    tape.text += '\n';
  }
  tape.line_start.push_back(tape.text.size());
  return tape;
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& items) {
  return items[rng.Index(items.size())];
}

// One §5 discovery request over `count` lines of `tape` starting at a
// seeded offset. Pinned requests bind every non-root variable; free ones
// leave one unbound, so the miner enumerates it over every type present.
Request MineRequest(const Tape& tape, bool atm, std::size_t count, bool free,
                    Rng& rng) {
  Request request;
  request.type = FrameType::kMine;
  const std::size_t first = static_cast<std::size_t>(
      rng.Uniform(0, static_cast<std::int64_t>(tape.lines() - count)));
  request.mine_events = tape.Lines(first, count);
  request.events = count;
  MineCall& call = request.mine;
  std::vector<std::string> pins;
  if (atm) {
    const std::string acct =
        "-acct" + std::to_string(rng.Uniform(0, kAtmAccounts - 1));
    call.structure_text = kAtmStructure;
    call.reference = "deposit" + acct;
    call.confidence = Pick(rng, std::vector<std::string>{"0.4", "0.5", "0.6"});
    pins = {"wd=large-withdrawal" + acct, "alert=alert" + acct};
  } else {
    call.structure_text = kStockStructure;
    call.reference = "IBM-rise";
    call.confidence =
        Pick(rng, std::vector<std::string>{"0.25", "0.3", "0.35"});
    pins = {"report=IBM-earnings-report", "hp=HP-rise", "fall=IBM-fall"};
  }
  if (free) pins.erase(pins.begin() + static_cast<std::ptrdiff_t>(
                                          rng.Index(pins.size())));
  call.pins = pins;
  request.label = std::string(atm ? "atm" : "stock") +
                  (count >= 10000 ? "-1e4" : "-1e3") +
                  (free ? "-free" : "-pinned");
  return request;
}

Request PayloadRequest(FrameType type, std::string label,
                       std::vector<std::uint8_t> payload,
                       std::size_t events = 0) {
  Request request;
  request.type = type;
  request.label = std::move(label);
  request.payload = std::move(payload);
  request.events = events;
  return request;
}

}  // namespace

std::vector<std::uint8_t> EncodePayload(const Request& request) {
  if (request.type != FrameType::kMine) return request.payload;
  MineCall call = request.mine;
  call.events_text = std::string(request.mine_events);
  return EncodeMineCall(call);
}

Workload MakeMineBatch(std::uint64_t seed, std::size_t pool_size) {
  auto system = GranularitySystem::Gregorian();
  Workload workload;
  workload.name = "mine_batch";
  workload.connections = 2;
  StockWorkloadOptions stock_options;
  stock_options.trading_days = 8000;  // ~30k events
  stock_options.seed = seed;
  const granmine::Workload stock = MakeStockWorkload(*system, stock_options);
  AtmWorkloadOptions atm_options;
  atm_options.days = 2000;  // ~30k events
  atm_options.accounts = kAtmAccounts;
  atm_options.seed = seed + 1;
  const granmine::Workload atm = MakeAtmWorkload(*system, atm_options);
  workload.tapes.push_back(RenderTape(stock.sequence.events(), stock.registry));
  workload.tapes.push_back(RenderTape(atm.sequence.events(), atm.registry));
  workload.structures = {kStockStructure, kAtmStructure};

  // The pool is a sequence of shuffled blocks holding each kind (bit 0:
  // ATM, bit 1: 1e4 events, bit 2: one variable free) once, so every prefix
  // a run reaches has the same mix; offsets make every request distinct.
  // Kind 6, the stock pattern free over 1e4 events, is left out: at ~140 ms
  // (~340 ms for its naive reference) it alone took two thirds of the
  // server's time and of the reference budget.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  std::vector<std::size_t> kinds = {0, 1, 2, 3, 4, 5, 7};
  while (workload.requests.size() < pool_size) {
    rng.Shuffle(&kinds);
    for (std::size_t kind : kinds) {
      if (workload.requests.size() == pool_size) break;
      const bool use_atm = (kind & 1) != 0;
      workload.requests.push_back(
          MineRequest(workload.tapes[use_atm ? 1 : 0], use_atm,
                      (kind & 2) != 0 ? 10000 : 1000, (kind & 4) != 0, rng));
    }
  }
  return workload;
}

Workload MakeStreamFeed(std::uint64_t seed) {
  auto system = GranularitySystem::Gregorian();
  Workload workload;
  workload.name = "stream_feed";
  workload.connections = 3;
  workload.structures = {kStockStructure};
  StreamOpenCall open;
  open.structure_text = kStockStructure;
  open.reference = "IBM-rise";
  open.window = std::to_string(14 * 86400);
  open.slide = std::to_string(86400);
  open.theta = "0.3";
  open.tolerance = std::to_string(kToleranceSecs);
  // `fall` stays free over the tape's six fall types: every reference
  // occurrence keeps six resident candidate runs, a couple of milliseconds
  // of work per chunk, so hypervisor wake-up delays weigh less.
  open.pins = {"report=IBM-earnings-report", "hp=HP-rise"};
  open.types = "IBM-fall,HP-fall,T0-fall,T1-fall,T2-fall,T3-fall";

  for (int c = 0; c < workload.connections; ++c) {
    StockWorkloadOptions options;
    options.trading_days = kStreamTradingDays;
    options.noise_events_per_day = kStreamTicksPerDay;
    options.seed = seed * 3 + static_cast<std::uint64_t>(c) + 101;
    const granmine::Workload stock = MakeStockWorkload(*system, options);
    // Arrival order: most events on time, a fixed share displaced within
    // the tolerance (accepted out of order), a few beyond it (late, so the
    // server rejects them deterministically).
    Rng rng(options.seed ^ 0x5bd1e995);
    const std::vector<Event>& events = stock.sequence.events();
    std::vector<std::pair<TimePoint, std::size_t>> arrivals;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const double draw = rng.UniformReal();
      std::int64_t delay = 0;
      if (draw < kLateShare) {
        delay = kToleranceSecs + rng.Uniform(600, 4 * kToleranceSecs);
      } else if (draw < kLateShare + kDisorderedShare) {
        delay = rng.Uniform(1, kToleranceSecs);
      }
      arrivals.emplace_back(events[i].time + delay, i);
    }
    std::stable_sort(arrivals.begin(), arrivals.end());
    std::vector<Event> arrival_order;
    for (const auto& [key, i] : arrivals) arrival_order.push_back(events[i]);
    workload.tapes.push_back(RenderTape(arrival_order, stock.registry));
  }
  for (int c = 0; c < workload.connections; ++c) {
    const Tape& tape = workload.tapes[static_cast<std::size_t>(c)];
    std::vector<std::size_t> session;
    session.push_back(workload.requests.size());
    workload.requests.push_back(PayloadRequest(
        FrameType::kStreamOpen, "stream-open", EncodeStreamOpenCall(open)));
    for (std::size_t first = 0; first < tape.lines(); first += kChunkLines) {
      const std::size_t count = std::min(kChunkLines, tape.lines() - first);
      session.push_back(workload.requests.size());
      workload.requests.push_back(
          PayloadRequest(FrameType::kStreamIngest, "stream-ingest",
                         EncodeIngestChunk(tape.Lines(first, count)), count));
    }
    session.push_back(workload.requests.size());
    workload.requests.push_back(
        PayloadRequest(FrameType::kStreamSeal, "stream-seal", {}));
    workload.sessions.push_back(std::move(session));
  }
  return workload;
}

std::string SolutionLines(const std::string& out) {
  const std::size_t header = out.find(" solution(s) with frequency");
  if (header == std::string::npos) return "";
  const std::size_t line = out.rfind('\n', header);
  return out.substr(line == std::string::npos ? 0 : line + 1);
}

Status ComputeExpected(Engine* engine, Workload* workload, int threads) {
  GM_RETURN_NOT_OK(engine->Freeze());
  auto fail = [&](const Request& request, const std::string& what) {
    return Status::Internal(workload->name + " " + request.label +
                            " reference failed: " + what);
  };
  // Mints are measured serially; everything but the mine pool is cheap.
  std::vector<std::size_t> mines;
  std::unique_ptr<StreamSession> session;
  for (std::size_t i = 0; i < workload->requests.size(); ++i) {
    Request& request = workload->requests[i];
    Expected& expected = request.expected;
    const std::uint64_t before = engine->requests_minted();
    switch (request.type) {
      case FrameType::kMine:
        mines.push_back(i);
        continue;
      case FrameType::kStreamOpen: {
        StreamOpenCall call;
        GM_RETURN_NOT_OK(DecodeStreamOpenCall(request.payload, &call));
        auto opened = StreamSession::Open(engine, call);
        if (opened.session == nullptr) return fail(request, opened.result.err);
        session = std::move(opened.session);
        break;
      }
      case FrameType::kStreamIngest: {
        const std::string_view chunk(
            reinterpret_cast<const char*>(request.payload.data()),
            request.payload.size());
        auto ingested = session->Ingest(chunk);
        if (ingested.result.exit_code != 0) {
          return fail(request, ingested.result.err);
        }
        expected.accepted = ingested.accepted;
        expected.rejected_late = ingested.rejected_late;
        expected.out = std::move(ingested.result.out);
        expected.err = std::move(ingested.result.err);
        break;
      }
      case FrameType::kStreamSeal: {
        CallResult sealed = session->Seal();
        if (sealed.exit_code != 0) return fail(request, sealed.err);
        expected.accepted = session->accepted_total();
        expected.rejected_late = session->dropped_late();
        expected.out = std::move(sealed.out);
        expected.err = std::move(sealed.err);
        session.reset();
        break;
      }
      default:
        return fail(request, "no reference for this request type");
    }
    request.mints = 1 + (engine->requests_minted() - before);
  }
  if (mines.empty()) return Status::OK();

  // Mine references run the naive algorithm (MinerOptions::Naive, the §5
  // baseline). The first one runs alone to measure its mints.
  auto reference = [&](Request& request) {
    MineCall call = request.mine;
    call.events_text = std::string(request.mine_events);
    call.naive = true;
    CallResult result = ServeMine(engine, call);
    request.expected.exit_code = result.exit_code;
    request.expected.out = SolutionLines(result.out);
    request.expected.err = std::move(result.err);
  };
  const std::uint64_t before = engine->requests_minted();
  reference(workload->requests[mines[0]]);
  const std::uint64_t mine_mints = 1 + (engine->requests_minted() - before);
  std::atomic<std::size_t> next{1};
  auto drain = [&] {
    for (std::size_t k = next++; k < mines.size(); k = next++) {
      reference(workload->requests[mines[k]]);
    }
  };
  std::vector<std::thread> helpers;  // the calling thread is the last worker
  for (int t = 1; t < threads; ++t) helpers.emplace_back(drain);
  drain();
  for (std::thread& thread : helpers) thread.join();
  for (std::size_t i : mines) {
    Request& request = workload->requests[i];
    request.mints = mine_mints;
    if (request.expected.exit_code != 0 || request.expected.out.empty()) {
      return fail(request, request.expected.err);
    }
  }
  return Status::OK();
}

bool ReplyMatches(const Request& request, const Frame& frame,
                  std::string* why) {
  const Expected& expected = request.expected;
  auto mismatch = [&](const std::string& what) {
    *why = request.label + ": " + what;
    return false;
  };
  switch (frame.type) {
    case FrameType::kErrorReply: {
      ErrorBody error;
      if (!DecodeError(frame.payload, &error).ok()) {
        return mismatch("undecodable error frame");
      }
      return mismatch("error frame: " + error.message);
    }
    case FrameType::kStreamAck: {
      StreamAckBody ack;
      if (!DecodeStreamAck(frame.payload, &ack).ok()) {
        return mismatch("undecodable stream ack");
      }
      if (request.type != FrameType::kStreamIngest &&
          request.type != FrameType::kStreamSeal) {
        return mismatch("unexpected stream ack");
      }
      if (ack.accepted != expected.accepted ||
          ack.rejected_late != expected.rejected_late ||
          ack.exit_code != expected.exit_code || ack.out != expected.out ||
          ack.err != expected.err) {
        return mismatch("stream ack differs from the in-process session");
      }
      return true;
    }
    case FrameType::kReply: {
      ReplyBody reply;
      if (!DecodeReply(frame.payload, &reply).ok()) {
        return mismatch("undecodable reply");
      }
      switch (request.type) {
        case FrameType::kMine:
          if (reply.exit_code != expected.exit_code ||
              reply.err != expected.err ||
              SolutionLines(reply.out) != expected.out) {
            return mismatch("solutions differ from the naive miner's");
          }
          return true;
        case FrameType::kStreamOpen:
          if (reply.exit_code != expected.exit_code ||
              reply.out != expected.out || reply.err != expected.err) {
            return mismatch("reply differs from the in-process service");
          }
          return true;
        default:
          return mismatch("unexpected reply frame");
      }
    }
    default:
      return mismatch("unexpected frame type " +
                      std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
}

}  // namespace perfbench

#include "layers.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include "granmine/constraint/exact.h"
#include "granmine/constraint/propagation.h"
#include "granmine/io/text_format.h"
#include "granmine/mining/miner.h"
#include "granmine/server/service.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher_types.h"

namespace perfbench {

using namespace granmine;
using namespace granmine::server;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kMineSample = 16;    // pool requests probed
constexpr std::size_t kMatchRoots = 100;   // anchored runs per request
constexpr std::size_t kStreamLines = 6000;
constexpr int kReps = 5;

// One timed call: returns the call's result and adds its duration (µs).
template <typename F>
auto Timed(std::vector<double>* samples, F&& call) {
  const auto start = Clock::now();
  auto result = call();
  samples->push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  return result;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

// A mine request rebuilt in-process the way ServeMine builds it. Heap-held:
// `problem.structure` points into it.
struct MineProblem {
  std::vector<std::string> names;
  std::optional<EventStructure> structure;
  EventTypeRegistry registry;
  EventSequence sequence;
  DiscoveryProblem problem;
  bool pinned = true;
};

Result<std::unique_ptr<MineProblem>> BuildMineProblem(
    const GranularitySystem& system, const MineCall& call,
    std::string_view events, std::vector<double>* parse_us) {
  auto mine = std::make_unique<MineProblem>();
  GM_ASSIGN_OR_RETURN(EventStructure structure,
                      ParseEventStructure(call.structure_text, system,
                                          &mine->names));
  mine->structure.emplace(std::move(structure));
  GM_ASSIGN_OR_RETURN(mine->sequence, Timed(parse_us, [&] {
                        return ParseEventSequence(events, &mine->registry);
                      }));
  DiscoveryProblem& problem = mine->problem;
  problem.structure = &*mine->structure;
  problem.reference_type = *mine->registry.Find(call.reference);
  problem.min_confidence = std::stod(call.confidence);
  problem.allowed.assign(mine->names.size(), {});
  for (const std::string& pin : call.pins) {
    const std::size_t eq = pin.find('=');
    const auto var = std::find(mine->names.begin(), mine->names.end(),
                               pin.substr(0, eq));
    problem.allowed[static_cast<std::size_t>(var - mine->names.begin())] = {
        *mine->registry.Find(pin.substr(eq + 1))};
  }
  mine->pinned = call.pins.size() + 1 == mine->names.size();
  return mine;
}

void Put(Metrics* out, const std::string& name, double value,
         const char* unit) {
  (*out)[name] = Metric{value, unit};
}

// persist: the warm start the server's --snapshot path takes.
Status ProbePersist(const LayerInputs& inputs, Metrics* out) {
  std::vector<double> warm_us;
  for (int rep = 0; rep < kReps; ++rep) {
    Status status = Timed(&warm_us, [&]() -> Status {
      GM_ASSIGN_OR_RETURN(auto warm,
                          Engine::FromSnapshot(GranularitySystem::Gregorian(),
                                               inputs.image_path));
      return warm->Freeze();
    });
    GM_RETURN_NOT_OK(status);
  }
  Put(out, "persist.warm_start_s", Quantile(warm_us, 0.5) / 1e6, "s");
  Put(out, "persist.image_bytes",
      static_cast<double>(std::filesystem::file_size(inputs.image_path)),
      "bytes");
  return Status::OK();
}

// io / constraint / tag build over the workload's structures.
Status ProbeStructures(const LayerInputs& inputs, Metrics* out) {
  const Workload& workload = *inputs.workload;
  GranularitySystem* system = inputs.engine->system();
  std::vector<double> parse_us, propagate_us, exact_us, build_us;
  ConstraintPropagator propagator(&system->tables(), &system->coverage());
  ExactConsistencyChecker exact(&system->tables(), &system->coverage());
  for (const std::string& text : workload.structures) {
    for (int rep = 0; rep < kReps; ++rep) {
      GM_ASSIGN_OR_RETURN(EventStructure structure, Timed(&parse_us, [&] {
                            return ParseEventStructure(text, *system);
                          }));
      GM_ASSIGN_OR_RETURN(PropagationResult propagated,
                          Timed(&propagate_us, [&] {
                            return propagator.Propagate(structure);
                          }));
      // Like `check --exact`: the exact search runs only on structures
      // propagation did not refute.
      if (propagated.consistent) {
        GM_RETURN_NOT_OK(
            Timed(&exact_us, [&] { return exact.Check(structure); })
                .status());
      }
      GM_RETURN_NOT_OK(
          Timed(&build_us, [&] { return BuildTagForStructure(structure); })
              .status());
    }
  }
  Put(out, "io.parse_structure_us", Quantile(parse_us, 0.5), "us");
  Put(out, "constraint.propagate_us", Quantile(propagate_us, 0.5), "us");
  Put(out, "constraint.exact_us", Quantile(exact_us, 0.5), "us");
  Put(out, "tag.build_us", Quantile(build_us, 0.5), "us");
  return Status::OK();
}

// Mining, matching and the engine facade over a sample of the workload's
// mine requests; stream_feed, which sends none, mines its first tape.
Status ProbeMining(const LayerInputs& inputs, Metrics* out) {
  const Workload& workload = *inputs.workload;
  Engine* engine = inputs.engine;
  GranularitySystem* system = engine->system();
  std::vector<const Request*> mines;
  for (const Request& request : workload.requests) {
    if (request.type == FrameType::kMine && mines.size() < kMineSample) {
      mines.push_back(&request);
    }
  }
  Request tape_mine;
  if (mines.empty()) {
    tape_mine.type = FrameType::kMine;
    tape_mine.label = "tape-mine";
    tape_mine.mine.structure_text = workload.structures[0];
    tape_mine.mine.reference = "IBM-rise";
    tape_mine.mine.confidence = "0.3";
    tape_mine.mine.pins = {"report=IBM-earnings-report", "hp=HP-rise",
                           "fall=IBM-fall"};
    // The batch parser orders the tape's arrivals by timestamp.
    tape_mine.mine_events = workload.tapes[0].text;
    tape_mine.events = workload.tapes[0].lines();
    mines.push_back(&tape_mine);
  }
  std::vector<double> parse_us, screen_ms, scan_ms, overhead_us, match_us;
  std::uint64_t before = 0, after = 0;
  std::size_t events = 0;
  MinerOptions screening;
  screening.degrade_to_screening = true;
  for (const Request* request : mines) {
    GM_ASSIGN_OR_RETURN(auto mine,
                        BuildMineProblem(*system, request->mine,
                                         request->mine_events, &parse_us));
    events += mine->sequence.size();
    // Three interleaved rounds; each figure is its round median, and the
    // differences are taken between medians.
    std::vector<double> screen_us, full_us, engine_us;
    MiningReport report;
    MineRequest engine_request;
    engine_request.problem = &mine->problem;
    engine_request.sequence = &mine->sequence;
    for (int round = 0; round < 3; ++round) {
      GM_RETURN_NOT_OK(Timed(&screen_us, [&] {
                         return Miner(system, screening)
                             .Mine(mine->problem, mine->sequence);
                       }).status());
      GM_ASSIGN_OR_RETURN(report, Timed(&full_us, [&] {
                            return Miner(system).Mine(mine->problem,
                                                      mine->sequence);
                          }));
      GM_RETURN_NOT_OK(
          Timed(&engine_us, [&] { return engine->Mine(engine_request); })
              .status());
    }
    const double screen = Quantile(screen_us, 0.5);
    const double full = Quantile(full_us, 0.5);
    screen_ms.push_back(screen / 1e3);
    scan_ms.push_back(std::max(0.0, full - screen) / 1e3);
    overhead_us.push_back(Quantile(engine_us, 0.5) - full);
    before += report.candidates_before;
    after += report.candidates_after_screening;

    if (!mine->pinned) continue;
    // Anchored runs of the one complex type a pinned request names, each
    // cut off three weeks after its root (both patterns span less).
    GM_ASSIGN_OR_RETURN(TagBuildResult built,
                        BuildTagForStructure(*mine->structure));
    GM_ASSIGN_OR_RETURN(VariableId root, mine->structure->FindRoot());
    std::vector<EventTypeId> phi(mine->names.size());
    for (std::size_t v = 0; v < phi.size(); ++v) {
      phi[v] = v == static_cast<std::size_t>(root)
                   ? mine->problem.reference_type
                   : mine->problem.allowed[v][0];
    }
    const SymbolMap symbols =
        SymbolMap::FromAssignment(phi, mine->registry.size());
    const std::vector<std::size_t> roots =
        mine->sequence.OccurrencesOf(mine->problem.reference_type);
    for (std::size_t r = 0; r < roots.size() && r < kMatchRoots; ++r) {
      MatchRequest match;
      match.tag = &built.tag;
      match.events = mine->sequence.SuffixFrom(roots[r]);
      match.symbols = &symbols;
      match.options.anchored = true;
      match.options.deadline = match.events[0].time + 21 * 86400;
      GM_RETURN_NOT_OK(
          Timed(&match_us, [&] { return engine->Match(match); }).status());
    }
  }
  Put(out, "io.parse_events_us_per_kevent",
      Sum(parse_us) / static_cast<double>(events) * 1e3, "us");
  Put(out, "mining.screen_ms", Quantile(screen_ms, 0.5), "ms");
  Put(out, "mining.scan_ms", Quantile(scan_ms, 0.5), "ms");
  Put(out, "mining.candidates_kept_ratio",
      before == 0 ? 0 : static_cast<double>(after) / static_cast<double>(before),
      "fraction");
  Put(out, "engine.mine_overhead_us", Quantile(overhead_us, 0.5), "us");
  Put(out, "tag.match_us", Quantile(match_us, 0.5), "us");
  return Status::OK();
}

// Streaming: OnlineMiner::Ingest per event and Snapshot at each slide
// boundary over the first tape, as StreamSession drives them.
Status ProbeStream(const LayerInputs& inputs, Metrics* out) {
  const Workload& workload = *inputs.workload;
  Engine* engine = inputs.engine;
  GranularitySystem* system = engine->system();
  // stream_feed's own session; mine_batch streams its first (stock) tape
  // through the Figure 1(a) pattern.
  StreamOpenCall open;
  open.structure_text = workload.structures[0];
  open.reference = "IBM-rise";
  open.window = std::to_string(14 * 86400);
  open.slide = std::to_string(86400);
  open.theta = "0.3";
  open.tolerance = "1800";
  open.pins = {"report=IBM-earnings-report", "hp=HP-rise", "fall=IBM-fall"};
  for (const Request& request : workload.requests) {
    if (request.type == FrameType::kStreamOpen) {
      GM_RETURN_NOT_OK(DecodeStreamOpenCall(request.payload, &open));
      break;
    }
  }
  // The session's problem, resolved as StreamSession::Open resolves it.
  std::vector<std::string> names;
  GM_ASSIGN_OR_RETURN(EventStructure structure,
                      ParseEventStructure(open.structure_text, *system,
                                          &names));
  GM_ASSIGN_OR_RETURN(VariableId root, structure.FindRoot());
  EventTypeRegistry registry;
  DiscoveryProblem problem;
  problem.structure = &structure;
  problem.reference_type = registry.Intern(open.reference);
  problem.min_confidence = std::stod(open.theta);
  problem.allowed.assign(names.size(), {});
  for (const std::string& pin : open.pins) {
    const std::size_t eq = pin.find('=');
    const auto it = std::find(names.begin(), names.end(), pin.substr(0, eq));
    problem.allowed[static_cast<std::size_t>(it - names.begin())] = {
        registry.Intern(pin.substr(eq + 1))};
  }
  std::vector<EventTypeId> pool;
  std::istringstream types(open.types);
  for (std::string type; std::getline(types, type, ',');) {
    pool.push_back(registry.Intern(type));
  }
  for (std::size_t v = 0; v < names.size(); ++v) {
    if (v != static_cast<std::size_t>(root) && problem.allowed[v].empty()) {
      problem.allowed[v] = pool;
    }
  }
  const Tape& tape = workload.tapes[0];
  // Parsed line by line: ParseEventSequence sorts, and a stream must see
  // the tape in arrival order.
  std::vector<Event> arrivals;
  for (std::size_t i = 0; i < std::min(kStreamLines, tape.lines()); ++i) {
    GM_ASSIGN_OR_RETURN(EventSequence one,
                        ParseEventSequence(tape.Lines(i, 1), &registry));
    arrivals.insert(arrivals.end(), one.events().begin(), one.events().end());
  }
  StreamRequest request;
  request.problem = &problem;
  request.options.retention = std::stoll(open.window);
  request.options.tolerance = std::stoll(open.tolerance);
  GM_ASSIGN_OR_RETURN(OnlineMiner miner, engine->OpenStream(request));
  const std::int64_t slide = std::stoll(open.slide);
  TimePoint next_snapshot = kInfinity;
  std::vector<double> ingest_us, snapshot_ms;
  for (const Event& event : arrivals) {
    const Status status =
        Timed(&ingest_us, [&] { return miner.Ingest(event); });
    if (status.ok() && next_snapshot == kInfinity) {
      next_snapshot = event.time + slide;
    }
    while (miner.watermark() >= next_snapshot) {
      std::vector<double> one;
      GM_RETURN_NOT_OK(Timed(&one, [&] { return miner.Snapshot(); }).status());
      snapshot_ms.push_back(one[0] / 1e3);
      next_snapshot += slide;
    }
  }
  // Mean, not median: most arrivals only buffer, and the group commits
  // the watermark releases carry the cost.
  Put(out, "stream.ingest_us_per_event",
      Sum(ingest_us) / static_cast<double>(ingest_us.size()), "us");
  Put(out, "stream.snapshot_ms", Quantile(snapshot_ms, 0.5), "ms");
  Put(out, "stream.resident_configs",
      static_cast<double>(miner.resident_configurations()), "count");
  return Status::OK();
}

// The service layer in-process, and what the network adds on top of it
// for the same requests.
Status ProbeService(const LayerInputs& inputs, Metrics* out) {
  const Workload& workload = *inputs.workload;
  Engine* engine = inputs.engine;
  std::map<std::size_t, double> service_us;
  std::unique_ptr<StreamSession> session;
  const std::vector<std::size_t> no_session;
  const std::vector<std::size_t>& replay =
      workload.sessions.empty() ? no_session : workload.sessions[0];
  for (std::size_t i : replay) {
    const Request& request = workload.requests[i];
    std::vector<double> us;
    if (request.type == FrameType::kStreamOpen) {
      StreamOpenCall call;
      GM_RETURN_NOT_OK(DecodeStreamOpenCall(request.payload, &call));
      session = Timed(&us, [&] { return StreamSession::Open(engine, call); })
                    .session;
    } else if (request.type == FrameType::kStreamIngest) {
      const std::string_view chunk(
          reinterpret_cast<const char*>(request.payload.data()),
          request.payload.size());
      Timed(&us, [&] { return session->Ingest(chunk).accepted; });
    } else {
      Timed(&us, [&] { return session->Seal().exit_code; });
    }
    service_us[i] = us[0];
  }
  // mine_batch: the sampled prefix of the pool.
  for (std::size_t i = 0; i < workload.requests.size() && i < kMineSample;
       ++i) {
    const Request& request = workload.requests[i];
    if (request.type != FrameType::kMine) continue;
    MineCall call = request.mine;
    call.events_text = std::string(request.mine_events);
    std::vector<double> us;
    Timed(&us, [&] { return ServeMine(engine, call).exit_code; });
    service_us[i] = us[0];
  }
  // Weighted like the traffic: one sample per reply the run received.
  std::vector<double> served, overhead;
  for (const auto& [index, rtt] : *inputs.rtt_us) {
    auto it = service_us.find(index);
    if (it == service_us.end()) continue;
    served.push_back(it->second);
    overhead.push_back(rtt - it->second);
  }
  Put(out, "server.service_us", Quantile(served, 0.5), "us");
  Put(out, "server.rtt_overhead_us", Quantile(overhead, 0.5), "us");
  return Status::OK();
}

// The wire codec per request frame.
Status ProbeWire(const LayerInputs& inputs, Metrics* out) {
  const Workload& workload = *inputs.workload;
  std::vector<double> encode_us, parse_us;
  const std::size_t step =
      std::max<std::size_t>(1, workload.requests.size() / 64);
  for (std::size_t i = 0; i < workload.requests.size(); i += step) {
    const Request& request = workload.requests[i];
    const std::vector<std::uint8_t> payload = EncodePayload(request);
    std::vector<std::uint8_t> frame;
    Timed(&encode_us, [&] {
      AppendFrame(&frame, request.type, i + 1, payload);
      return frame.size();
    });
    FrameParser parser;
    GM_ASSIGN_OR_RETURN(std::optional<Frame> parsed, Timed(&parse_us, [&] {
                          parser.Feed(frame);
                          return parser.Next();
                        }));
    if (!parsed.has_value()) return Status::Internal("frame did not parse");
  }
  Put(out, "server.frame_encode_us", Quantile(encode_us, 0.5), "us");
  Put(out, "server.frame_parse_us", Quantile(parse_us, 0.5), "us");
  return Status::OK();
}

}  // namespace

Status ProbeLayers(const LayerInputs& inputs, Metrics* out) {
  for (auto probe : {ProbePersist, ProbeStructures, ProbeMining, ProbeStream,
                     ProbeService, ProbeWire}) {
    GM_RETURN_NOT_OK(probe(inputs, out));
  }
  return Status::OK();
}

}  // namespace perfbench

// perfbench_loadgen — the load generator of the granmine serving benchmark.
//
//   perfbench_loadgen --workload mine_batch|stream_feed
//                     --seed N --seconds S --trace 0|1
//                     --serve PATH --cli PATH --workdir DIR
//                     [--build-type T] [--commit C] [--selftest]
//
// Builds the workload's requests from the seed, computes every expected
// reply in-process, spawns granmine_serve (timing its set-up), drives it
// over loopback for S seconds with at most four threads and four
// connections, checks every reply, cross-checks the server's own counters
// against the generator's, and prints every metric by name and unit. The
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0 (server untraced), the
// per-layer ones with --trace 1 (server run with --metrics-out /
// --trace-out, plus in-process probes of each module).
//
// --selftest corrupts one expected reply, runs the workload, and exits 0
// only if the reference check caught the corruption.
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "granmine/engine/engine.h"
#include "granmine/server/client.h"
#include "granmine/server/wire.h"
#include "layers.h"
#include "server_process.h"
#include "workloads.h"

using namespace granmine;
using namespace granmine::server;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

// Distinct mine requests generated per measured second. mine_batch never
// sends a request twice: a run that exhausts the pool stops early. Runs at
// this commit completed 81-147 requests per second on a 4-vCPU VM (the
// fastest with none of its CPU time stolen by the host), so the pool lasts
// the whole run until the server gets over twice as fast.
constexpr std::size_t kMinePoolPerSecond = 320;
// Cold starts per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr std::size_t kNoRequest = std::numeric_limits<std::size_t>::max();

struct Options {
  std::string workload, serve, cli, workdir;
  std::string build_type = "unknown", commit = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      options->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") options->workload = value;
    else if (flag == "--seed") options->seed = std::stoull(value);
    else if (flag == "--seconds") options->seconds = std::stod(value);
    else if (flag == "--trace") options->trace = value == "1";
    else if (flag == "--serve") options->serve = value;
    else if (flag == "--cli") options->cli = value;
    else if (flag == "--workdir") options->workdir = value;
    else if (flag == "--build-type") options->build_type = value;
    else if (flag == "--commit") options->commit = value;
    else return false;
  }
  return !options->workload.empty() && !options->serve.empty() &&
         !options->cli.empty() && !options->workdir.empty() &&
         options->seconds > 0;
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// What one generator thread saw; merged after the run.
struct LoadStats {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t error_frames = 0;
  std::uint64_t transport_failures = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t events = 0;  ///< input events of successful requests
  std::uint64_t mints = 0;   ///< request ids the server should mint
  std::map<FrameType, std::uint64_t> frames;  ///< attempted, by type
  std::vector<double> latency_ms;
  std::vector<std::pair<std::size_t, double>> rtt_us;
  std::map<std::string, std::vector<double>> latency_by_label;
  std::string first_failure;

  std::uint64_t failed() const {
    return error_frames + transport_failures + check_failures;
  }
  void Fail(const std::string& why) {
    if (first_failure.empty()) first_failure = why;
  }
  void Sent(const Request& request) {
    ++attempted;
    ++frames[request.type];
    mints += request.mints;
  }
  void Record(const Request& request, std::size_t index, const Frame& reply,
              double rtt_us_value) {
    std::string why;
    if (!ReplyMatches(request, reply, &why)) {
      ++(reply.type == FrameType::kErrorReply ? error_frames : check_failures);
      Fail(why);
      return;
    }
    ++succeeded;
    events += request.events;
    latency_ms.push_back(rtt_us_value / 1e3);
    latency_by_label[request.label].push_back(rtt_us_value / 1e3);
    rtt_us.emplace_back(index, rtt_us_value);
  }
  void Transport(const Status& status) {
    ++transport_failures;
    Fail("transport: " + status.ToString());
  }
  void Merge(const LoadStats& other) {
    attempted += other.attempted;
    succeeded += other.succeeded;
    error_frames += other.error_frames;
    transport_failures += other.transport_failures;
    check_failures += other.check_failures;
    events += other.events;
    mints += other.mints;
    for (const auto& [type, count] : other.frames) frames[type] += count;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    rtt_us.insert(rtt_us.end(), other.rtt_us.begin(), other.rtt_us.end());
    for (const auto& [label, samples] : other.latency_by_label) {
      std::vector<double>& mine = latency_by_label[label];
      mine.insert(mine.end(), samples.begin(), samples.end());
    }
    if (first_failure.empty()) first_failure = other.first_failure;
  }
};

Result<std::unique_ptr<Client>> Connect(std::uint16_t port) {
  GM_ASSIGN_OR_RETURN(auto client, Client::Connect("127.0.0.1", port));
  // A stalled server fails the run instead of hanging it.
  timeval timeout{60, 0};
  ::setsockopt(client->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
  return client;
}

// One closed-loop connection: sends the request `next()` names, waits for
// its reply, and repeats until `next()` returns kNoRequest. With one
// request in flight, a reply for any other correlation id is a protocol
// fault: it fails the connection.
template <typename Next>
void ClosedLoop(std::uint16_t port, const Workload& workload, Next next,
                LoadStats* stats) {
  auto client = Connect(port);
  if (!client.ok()) {
    ++stats->attempted;
    stats->Transport(client.status());
    return;
  }
  std::uint64_t corr = 0;
  for (std::size_t index = next(); index != kNoRequest; index = next()) {
    const Request& request = workload.requests[index];
    std::vector<std::uint8_t> frame;
    AppendFrame(&frame, request.type, ++corr, EncodePayload(request));
    stats->Sent(request);
    const auto sent = Clock::now();
    const Status sent_ok = (*client)->SendBytes(frame);
    Result<Frame> reply =
        sent_ok.ok() ? (*client)->ReadFrame() : Result<Frame>(sent_ok);
    const auto done = Clock::now();
    if (reply.ok() && reply->corr_id != corr) {
      reply = Status::Invalid("reply for correlation id " +
                              std::to_string(reply->corr_id) + " while " +
                              std::to_string(corr) + " was in flight");
    }
    if (!reply.ok()) {
      stats->Transport(reply.status());
      return;
    }
    stats->Record(request, index, *reply, Micros(done - sent));
  }
}

// Drives the workload for `seconds` on one closed-loop thread per
// connection; returns the merged stats and sets `elapsed_s` to the time
// from the first send to the last reply.
LoadStats RunLoad(const Workload& workload, std::uint16_t port,
                  double seconds, double* elapsed_s) {
  std::vector<LoadStats> per_thread(
      static_cast<std::size_t>(workload.connections));
  const auto started = Clock::now();
  const auto deadline =
      started + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  auto closed_loops = [&](auto&& next_for_connection) {
    std::vector<std::thread> threads;
    for (int c = 0; c < workload.connections; ++c) {
      threads.emplace_back([&, c] {
        auto next = next_for_connection(c);
        ClosedLoop(port, workload,
                   [&]() -> std::size_t {
                     return Clock::now() >= deadline ? kNoRequest : next();
                   },
                   &per_thread[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  };
  if (workload.name == "mine_batch") {
    // Each pool request is sent at most once.
    std::atomic<std::size_t> cursor{0};
    closed_loops([&](int) {
      return [&]() -> std::size_t {
        const std::size_t k = cursor++;
        return k < workload.requests.size() ? k : kNoRequest;
      };
    });
    if (cursor > workload.requests.size()) {
      std::printf("note: the pool of %zu mine requests ran out after %.1f s\n",
                  workload.requests.size(),
                  std::chrono::duration<double>(Clock::now() - started)
                      .count());
    }
  } else {
    // stream_feed: each connection replays its session (open, ingest...,
    // seal) back to back; a session cut by the deadline is dropped with its
    // connection.
    closed_loops([&](int c) {
      return [&session = workload.sessions[static_cast<std::size_t>(c)],
              position = std::size_t{0}]() mutable {
        return session[position++ % session.size()];
      };
    });
  }
  *elapsed_s = std::chrono::duration<double>(Clock::now() - started).count();
  LoadStats merged;
  for (const LoadStats& stats : per_thread) merged.Merge(stats);
  return merged;
}

Status RunCommand(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  // Runs `argv` to completion, its output in `log_path`.
  std::string command;
  for (const std::string& arg : argv) command += "'" + arg + "' ";
  command += "> '" + log_path + "' 2>&1";
  const int rc = std::system(command.c_str());
  if (rc != 0) {
    return Status::Internal("'" + argv[0] + "' failed, see " + log_path);
  }
  return Status::OK();
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

// The traced server's exported counters: cross-checked against what the
// generator sent (every request type, the two control statusz frames
// included; no frame errors, sheds or overflow disconnects), then turned
// into the counter-based layer metrics.
void AddServerCounters(const Exposition& m, const LoadStats& stats,
                       Metrics* reported, std::vector<std::string>* invalid) {
  auto sent_of = [&](FrameType type) {
    auto it = stats.frames.find(type);
    return it == stats.frames.end() ? 0.0 : static_cast<double>(it->second);
  };
  const std::vector<std::pair<FrameType, const char*>> types = {
      {FrameType::kMine, "mine"},
      {FrameType::kCheck, "check"},
      {FrameType::kDot, "dot"},
      {FrameType::kStatusz, "statusz"},
      {FrameType::kStreamOpen, "stream-open"},
      {FrameType::kStreamIngest, "stream-ingest"},
      {FrameType::kStreamSeal, "stream-seal"}};
  for (const auto& [type, label] : types) {
    const double sent = sent_of(type) + (type == FrameType::kStatusz ? 2 : 0);
    const double served = m.Get("granmine_server_requests_total",
                                std::string("type=\"") + label + "\"");
    if (stats.transport_failures == 0 && served != sent) {
      invalid->push_back(std::string("granmine_server_requests_total{") +
                         label + "} = " + JsonNumber(served) +
                         ", generator sent " + JsonNumber(sent));
    }
  }
  for (const char* name : {"granmine_server_frame_errors_total",
                           "granmine_server_sheds_total",
                           "granmine_server_overflow_disconnects_total"}) {
    if (m.Total(name) != 0) {
      invalid->push_back(std::string(name) + " = " +
                         JsonNumber(m.Total(name)));
    }
  }
  const double frames = static_cast<double>(stats.attempted);
  const double events = static_cast<double>(stats.events);
  const double mines = sent_of(FrameType::kMine);
  const double tag_runs = m.Total("granmine_mine_tag_runs_total");
  auto put = [&](const std::string& name, double value, const char* unit) {
    (*reported)[name] = Metric{value, unit};
  };
  put("granularity.table_lookups_per_req",
      Ratio(m.Total("granmine_tables_lookups_total"),
            static_cast<double>(stats.succeeded)), "count");
  put("tag.configs_per_run",
      Ratio(m.Total("granmine_tag_configurations_total"), tag_runs),
      "count");
  put("tag.transitions_per_event",
      Ratio(m.Total("granmine_tag_transitions_total"), events), "count");
  put("mining.tag_runs_per_req", Ratio(tag_runs, mines), "count");
  put("stream.late_ratio",
      Ratio(m.Total("granmine_stream_events_late_total"),
            sent_of(FrameType::kStreamIngest) > 0 ? events : 0),
      "fraction");
  put("server.bytes_per_req",
      Ratio(m.Total("granmine_server_bytes_read_total") +
                m.Total("granmine_server_bytes_written_total"),
            frames),
      "bytes");
  put("server.frame_errors", m.Total("granmine_server_frame_errors_total"),
      "count");
  put("server.sheds", m.Total("granmine_server_sheds_total"), "count");
}

int Run(const Options& options) {
  std::filesystem::create_directories(options.workdir);
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::clamp(nproc, 1, 4);

  // The in-process reference engine; its cold freeze is the layer number
  // behind setup_s.
  const auto freeze_start = Clock::now();
  auto engine = Engine::CreateGregorian();
  if (engine.ok()) {
    if (Status frozen = (*engine)->Freeze(); !frozen.ok()) engine = frozen;
  }
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 70;
  }
  const double freeze_s =
      std::chrono::duration<double>(Clock::now() - freeze_start).count();

  Workload workload;
  if (options.workload == "mine_batch") {
    workload = MakeMineBatch(
        options.seed, static_cast<std::size_t>(kMinePoolPerSecond *
                                               options.seconds) + 8);
  } else if (options.workload == "stream_feed") {
    workload = MakeStreamFeed(options.seed);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 64;
  }
  const auto reference_start = Clock::now();
  if (Status status = ComputeExpected(engine->get(), &workload, threads);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 70;
  }
  std::printf("reference answers for %zu request(s) computed in %.1f s\n",
              workload.requests.size(),
              std::chrono::duration<double>(Clock::now() - reference_start)
                  .count());
  for (std::size_t c = 0; c < workload.sessions.size(); ++c) {
    std::uint64_t accepted = 0, late = 0;
    for (std::size_t i : workload.sessions[c]) {
      if (workload.requests[i].type == FrameType::kStreamIngest) {
        accepted += workload.requests[i].expected.accepted;
        late += workload.requests[i].expected.rejected_late;
      }
    }
    std::printf("stream session %zu: %zu frames, %llu events accepted, "
                "%llu late\n",
                c, workload.sessions[c].size(),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(late));
  }
  std::size_t corrupted = kNoRequest;
  if (options.selftest) {
    corrupted = workload.sessions.empty() ? 0 : workload.sessions[0][1];
    workload.requests[corrupted].expected.out += "corrupted\n";
  }

  // The traced run probes the persist layer on a warm-start image.
  const std::string image = options.workdir + "/warm.snap";
  std::vector<std::string> argv = {options.serve, "--port", "0"};
  if (options.trace) {
    if (Status status = RunCommand({options.cli, "save", "--out", image},
                                   options.workdir + "/save.log");
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 70;
    }
  }
  const std::string metrics_path = options.workdir + "/metrics.prom";
  if (options.trace) {
    argv.insert(argv.end(), {"--metrics-out", metrics_path, "--trace-out",
                             options.workdir + "/trace.json"});
  }

  // Set-up, several times: each spawn is timed to its first pong; the last
  // server serves the run.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetups; ++i) {
    if (server != nullptr) {
      if (Status stopped = server->Stop(); !stopped.ok()) {
        std::fprintf(stderr, "%s\n", stopped.ToString().c_str());
        return 70;
      }
    }
    auto started =
        ServerProcess::Start(argv, options.workdir + "/serve.log");
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
      return 70;
    }
    server = std::move(*started);
    setups.push_back(server->setup_s());
  }

  std::vector<std::string> invalid;
  auto control = Connect(server->port());
  auto before = control.ok() ? ReadStatusz(control->get())
                             : Result<StatuszCounts>(control.status());
  if (!before.ok()) {
    std::fprintf(stderr, "server probe failed\n");
    return 70;
  }
  const auto cpu_before = server->CpuSeconds();
  const auto host_before = ReadHostCpu();
  double elapsed_s = 0;
  LoadStats stats =
      RunLoad(workload, server->port(), options.seconds, &elapsed_s);
  const auto host_after = ReadHostCpu();
  const auto cpu_after = server->CpuSeconds();
  const double steal_share =
      host_before.ok() && host_after.ok()
          ? Ratio(host_after->steal - host_before->steal,
                  host_after->total - host_before->total)
          : 0;
  auto rss = server->PeakRssMb();
  auto after = ReadStatusz(control->get());
  if (!cpu_before.ok() || !cpu_after.ok() || !rss.ok() || !after.ok()) {
    std::fprintf(stderr, "server probe failed after the run\n");
    return 70;
  }

  // Server-side cross-check: the server's own request-id count must move
  // by exactly what the generator sent (plus the closing statusz frame).
  const std::uint64_t minted = after->requests_total - before->requests_total;
  if (stats.transport_failures == 0 && minted != stats.mints + 1) {
    invalid.push_back("statusz requests_total moved by " +
                      std::to_string(minted) + ", generator predicts " +
                      std::to_string(stats.mints + 1));
  }
  if (after->shed != before->shed) invalid.push_back("statusz counted sheds");

  std::vector<double> ping_us;
  if (options.trace) {
    for (int i = 0; i < 200; ++i) {
      const auto start = Clock::now();
      if (!(*control)->Ping().ok()) break;
      ping_us.push_back(Micros(Clock::now() - start));
    }
  }
  control->reset();
  if (Status stopped = server->Stop(); !stopped.ok()) {
    invalid.push_back(stopped.ToString());
  }

  // Whole-run figures: every success, every latency sample, all the CPU
  // the server spent under load.
  const double succeeded = static_cast<double>(stats.succeeded);
  Metrics e2e;
  e2e["setup_s"] = {Quantile(setups, 0.5), "s"};
  e2e["throughput_rps"] = {succeeded / elapsed_s, "req/s"};
  e2e["events_per_s"] = {static_cast<double>(stats.events) / elapsed_s,
                         "events/s"};
  e2e["p50_ms"] = {Quantile(stats.latency_ms, 0.5), "ms"};
  e2e["p99_ms"] = {Quantile(stats.latency_ms, 0.99), "ms"};
  e2e["cpu_ms_per_req"] = {Ratio((*cpu_after - *cpu_before) * 1e3, succeeded),
                           "ms"};
  e2e["rss_mb"] = {*rss, "MB"};

  Metrics reported = e2e;
  if (options.trace) {
    reported.clear();
    LayerInputs inputs;
    inputs.workload = &workload;
    inputs.engine = engine->get();
    inputs.image_path = image;
    inputs.rtt_us = &stats.rtt_us;
    if (Status status = ProbeLayers(inputs, &reported); !status.ok()) {
      std::fprintf(stderr, "layer probe: %s\n", status.ToString().c_str());
      return 70;
    }
    auto exposition = ReadExposition(metrics_path);
    if (!exposition.ok()) {
      std::fprintf(stderr, "%s\n", exposition.status().ToString().c_str());
      return 70;
    }
    AddServerCounters(*exposition, stats, &reported, &invalid);
    reported["granularity.freeze_s"] = {freeze_s, "s"};
    reported["server.ping_rtt_us"] = {Quantile(ping_us, 0.5), "us"};
    for (const auto& [name, metric] : e2e) reported["traced." + name] = metric;
  }
  const double failed = static_cast<double>(stats.failed());
  const double attempted = static_cast<double>(std::max<std::uint64_t>(
      stats.attempted, 1));
  if (options.trace) {
    reported["failed_ratio"] = {failed / attempted, "fraction"};
    reported["loadgen.latency_samples"] = {
        static_cast<double>(stats.latency_ms.size()), "count"};
    reported["loadgen.host_steal_share"] = {steal_share, "fraction"};
  }

  if (options.selftest) {
    const bool caught = stats.check_failures > 0 &&
                        stats.first_failure.find(
                            workload.requests[corrupted].label) == 0;
    std::printf("selftest: %s (%llu check failure(s); first: %s)\n",
                caught ? "PASS, the corrupted expected reply was caught"
                       : "FAIL, the corruption went unnoticed",
                static_cast<unsigned long long>(stats.check_failures),
                stats.first_failure.c_str());
    return caught ? 0 : 1;
  }

  // Human-readable report, then the one-line JSON result.
  std::printf("perfbench %s seed=%llu trace=%d nproc=%d build_type=%s "
              "commit=%s\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, nproc, options.build_type.c_str(),
              options.commit.c_str());
  std::printf("  requests attempted %llu, succeeded %llu, failed %.0f "
              "(error frames %llu, transport %llu, reference mismatches %llu)"
              "; latency samples %zu in %.2f s; host steal %.1f%% of CPU time\n",
              static_cast<unsigned long long>(stats.attempted),
              static_cast<unsigned long long>(stats.succeeded), failed,
              static_cast<unsigned long long>(stats.error_frames),
              static_cast<unsigned long long>(stats.transport_failures),
              static_cast<unsigned long long>(stats.check_failures),
              stats.latency_ms.size(), elapsed_s, 100 * steal_share);
  if (!stats.first_failure.empty()) {
    std::printf("  first failure: %s\n", stats.first_failure.c_str());
  }
  for (const auto& [label, samples] : stats.latency_by_label) {
    std::printf("  latency %-20s n=%-7zu p50 %9.3f ms  p99 %9.3f ms\n",
                label.c_str(), samples.size(), Quantile(samples, 0.5),
                Quantile(samples, 0.99));
  }
  for (const std::string& reason : invalid) {
    std::printf("  INVALID: %s\n", reason.c_str());
  }
  for (const auto& [name, metric] : reported) {
    std::printf("  %-36s %14.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = stats.failed() == 0 && invalid.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(stats.attempted) +
                     ", \"failed\": " + std::to_string(stats.failed()) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : reported) {
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": " +
            JsonString(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload W --seed N --seconds S "
                 "--trace 0|1 --serve PATH --cli PATH --workdir DIR "
                 "[--build-type T] [--commit C] [--selftest]\n");
    return 64;
  }
  return Run(options);
}

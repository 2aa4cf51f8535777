// granmine_serve — the granmine network server (docs/serving.md).
//
//   granmine_serve [--host ADDR] [--port N] [--workers N]
//                  [--structure FILE]...
//                  [--threads N] [--deadline-ms N] [--mem-budget-mb N]
//                  [--max-queue N] [--degrade]
//                  [--metrics-out FILE] [--trace-out FILE]
//                  [--log-out FILE] [--log-level LVL]
//
// Owns one Engine for its whole lifetime and serves mine / check / dot /
// statusz / stream requests over the framed TCP protocol of
// src/granmine/server/wire.h. The granularity family is fixed at startup:
// each --structure file's granularity definitions extend the Gregorian
// family, and Server::Start freezes it — requests arriving
// over the wire can use every granularity defined here but cannot define
// new ones (the build/serve phase split, docs/architecture.md).
//
// The shared engine flags mean exactly what they mean in granmine_cli: one
// parser, one set of error messages (granmine/io/cli_args.h). --max-queue /
// --degrade switch on the admission controller, which is the intended
// overload throttle for a long-lived server — a shed request comes back to
// the client as a retryable error frame with a suggested backoff instead of
// a stuck connection (docs/robustness.md).
//
// Runs until SIGINT/SIGTERM, then drains in-flight requests and exits 0.
// --metrics-out / --trace-out write their expositions during that shutdown.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/io/cli_args.h"
#include "granmine/io/text_format.h"
#include "granmine/server/server.h"

using namespace granmine;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  granmine_serve [--host ADDR] [--port N] [--workers N] "
      "[--structure FILE]... [--threads N] "
      "[--deadline-ms N] [--mem-budget-mb N] [--max-queue N] [--degrade] "
      "[--metrics-out FILE] [--trace-out FILE] [--log-out FILE] "
      "[--log-level LVL]\n");
  return 64;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Reuse the granmine_cli flag grammar by prepending a command word: the
  // server has no subcommands, every argument is a flag.
  std::vector<const char*> shifted;
  shifted.push_back(argv[0]);
  shifted.push_back("serve");
  for (int i = 1; i < argc; ++i) shifted.push_back(argv[i]);
  auto args = ParseCliArgs(static_cast<int>(shifted.size()), shifted.data());
  if (!args.ok()) return Usage();
  auto engine_flags = ParseEngineFlags(*args);
  if (!engine_flags.ok()) {
    std::fprintf(stderr, "%s\n", engine_flags.status().ToString().c_str());
    return 64;
  }

  server::ServerOptions server_options;
  if (args->flags.count("host")) server_options.host = args->flags.at("host");
  int exit_code = 0;
  auto flag_int = [&](const char* flag, std::int64_t max,
                      std::int64_t* out) -> bool {
    if (!args->flags.count(flag)) return true;
    auto parsed = ParsePositiveInt(flag, args->flags.at(flag));
    if (parsed.ok() && *parsed > max) {
      parsed = Status::Invalid("--" + std::string(flag) + " expects at most " +
                               std::to_string(max) + ", got '" +
                               args->flags.at(flag) + "'");
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      exit_code = 64;
      return false;
    }
    *out = *parsed;
    return true;
  };
  std::int64_t port = 0;
  std::int64_t workers = server_options.workers;
  // "--port 0" is the explicit spelling of the default: bind an ephemeral
  // port (ParsePositiveInt would reject the 0).
  if (args->flags.count("port") && args->flags.at("port") == "0") {
    args->flags.erase("port");
  }
  if (!flag_int("port", 65535, &port) || !flag_int("workers", 64, &workers)) {
    return exit_code;
  }
  server_options.port = static_cast<std::uint16_t>(port);
  server_options.workers = static_cast<int>(workers);

  EngineOptions engine_options;
  engine_options.num_threads = engine_flags->threads.value_or(1);
  engine_options.limits.deadline_ms = engine_flags->deadline_ms.value_or(0);
  engine_options.limits.memory_budget_bytes =
      static_cast<std::uint64_t>(engine_flags->mem_budget_mb.value_or(0)) *
      1024 * 1024;
  engine_options.enable_metrics = !engine_flags->metrics_out.empty();
  engine_options.enable_tracing = !engine_flags->trace_out.empty();
  engine_options.enable_logging =
      engine_flags->log_level.has_value() || !engine_flags->log_out.empty();
  engine_options.log_level =
      engine_flags->log_level.value_or(obs::LogLevel::kInfo);
  engine_options.log_path = engine_flags->log_out;
  if (engine_flags->max_queue.has_value() || engine_flags->degrade) {
    engine_options.admission.enabled = true;
    engine_options.admission.max_queue =
        static_cast<std::size_t>(engine_flags->max_queue.value_or(16));
    engine_options.admission.degrade_when_saturated = engine_flags->degrade;
  }

  auto engine = Engine::CreateGregorian(engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 70;
  }
  // --structure is repeatable: each file is parsed for its granularity
  // definitions only, and they all extend the family the server freezes at
  // Start.
  for (const std::string& structure_path : args->structures) {
    auto text = ReadFileToString(structure_path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 66;
    }
    auto structure = ParseEventStructure(*text, (*engine)->system());
    if (!structure.ok()) {
      std::fprintf(stderr, "structure %s: %s\n", structure_path.c_str(),
                   structure.status().ToString().c_str());
      return 65;
    }
  }

  // Handlers go in before Start: a supervisor may signal as soon as it reads
  // the port line, and a stop that arrives during Start still drains.
  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  server::Server tcp_server(engine->get(), server_options);
  if (Status started = tcp_server.Start(); !started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    return 70;
  }
  std::printf("granmine_serve listening on %s:%u\n",
              server_options.host.c_str(),
              static_cast<unsigned>(tcp_server.port()));
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutting down: draining in-flight requests\n");
  tcp_server.Stop();

  int obs_code = 0;
  if (!engine_flags->metrics_out.empty()) {
    if (Status status = (*engine)->WriteMetrics(engine_flags->metrics_out);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      obs_code = 74;
    }
  }
  if (!engine_flags->trace_out.empty()) {
    if (Status status = (*engine)->WriteTrace(engine_flags->trace_out);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      obs_code = 74;
    }
  }
  return obs_code;
}

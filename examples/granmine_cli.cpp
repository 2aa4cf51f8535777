// granmine_cli — mine temporal patterns from text files.
//
//   granmine_cli mine   --structure S.txt --events E.txt --reference TYPE
//                       [--confidence 0.5] [--pin VAR=TYPE]... [--naive]
//                       [--threads N] [--deadline-ms N]
//                       [--on-budget abort|partial]
//                       [--metrics-out FILE] [--trace-out FILE]
//   granmine_cli stream --structure S.txt --reference TYPE
//                       --window SECS --slide SECS [--theta 0.5]
//                       [--events FILE|-] [--types T1,T2,...]
//                       [--pin VAR=TYPE]... [--tolerance SECS] [--threads N]
//                       [--checkpoint-every N --checkpoint-path FILE]
//                       [--metrics-out FILE] [--trace-out FILE]
//   granmine_cli save    --out FILE [--events E.txt]
//   granmine_cli restore --snapshot FILE
//   granmine_cli check  --structure S.txt [--exact]
//   granmine_cli dot    --structure S.txt [--tag]
//   granmine_cli demo
//
// Structure files use the text DSL of granmine/io/text_format.h:
//     rise -> report : [1,1] b-day
//     report -> fall : [0,1] week
// Event files carry one "<timestamp> <type>" per line, timestamps either
// raw seconds or "YYYY-MM-DD[ HH:MM:SS]".
//
// `stream` reads events from --events (default "-" = stdin) one line at a
// time, keeps the incremental miner's TAG runs resident, retains the last
// --window seconds of history, and prints a report snapshot every --slide
// seconds of watermark progress plus a final one at end of input. Because
// a stream never reveals its full type universe up front, every non-root
// variable needs a --pin or the shared --types list.
//
// `--checkpoint-every N --checkpoint-path FILE` makes `stream` write an
// atomic session checkpoint (docs/persistence.md) after every N accepted
// events. If FILE already exists at startup the session resumes from it
// instead of starting cold — so a crashed run restarted with the same
// command line picks up where the last checkpoint left off, provided the
// input continues from where the previous run stopped (the natural pipe /
// stdin shape; events re-fed from before the restored watermark are
// rejected as late arrivals, they are never double-counted within the
// tolerance horizon).
//
// `save` writes a versioned binary snapshot holding, optionally, a parsed
// event file; `restore` reads it back into an engine over the Gregorian
// family, frozen cold — the granularity caches are never stored, and the
// frozen-family image older snapshots carry is skipped — and prints what
// it found.
//
// Every subcommand runs against one `Engine` (granmine/engine/engine.h)
// owning the Gregorian granularity family: the shared engine flags
// (--threads, --deadline-ms, --metrics-out, --trace-out) are parsed once
// into EngineFlags and configure the engine, and structures defined in the
// input files extend the family during the build phase — the first mining
// request freezes it into the dense id-indexed caches.
//
// --metrics-out enables the obs layer's metrics and writes a Prometheus text
// exposition on exit; --trace-out enables span tracing and writes Chrome
// trace_event JSON (open in https://ui.perfetto.dev). Both also print a
// one-line `stats:` block on stderr (stderr so the stdout byte-diff contract
// across --threads, docs/concurrency.md, is untouched).
//
// --log-out FILE routes every once-per-run diagnostic (the stats block, the
// --threads clamp warning, PARTIAL summaries, flight-recorder dumps) through
// the structured event log as JSON lines instead of the legacy stderr
// rendering; --log-level debug|info|warn|error sets the minimum severity
// (and enables the logger on its own, keeping stderr rendering).
//
// `stream --statusz-every N` emits the engine's point-in-time status as one
// JSON object (plus a "stream" block with the live watermark / retention /
// checkpoint lag) to stderr after every N accepted events; a server's
// status is `granmine_client statusz`. See docs/observability.md.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/io/cli_args.h"
#include "granmine/io/text_format.h"
#include "granmine/persist/stream_codec.h"
#include "granmine/server/service.h"
#include "granmine/stream/online_miner.h"

using namespace granmine;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  granmine_cli mine   --structure FILE --events FILE "
      "--reference TYPE [--confidence C] [--pin VAR=TYPE]... "
      "[--naive] [--threads N] [--deadline-ms N] [--mem-budget-mb N] "
      "[--max-queue N] [--degrade] [--on-budget abort|partial] "
      "[--metrics-out FILE] [--trace-out FILE] [--log-out FILE] "
      "[--log-level LVL]\n"
      "  granmine_cli stream --structure FILE --reference TYPE "
      "--window SECS --slide SECS [--theta C] [--events FILE|-] "
      "[--types T1,T2,...] [--pin VAR=TYPE]... [--tolerance SECS] "
      "[--threads N] [--checkpoint-every N --checkpoint-path FILE] "
      "[--statusz-every N] [--metrics-out FILE] [--trace-out FILE] "
      "[--log-out FILE] [--log-level LVL]\n"
      "  granmine_cli save    --out FILE [--events FILE]\n"
      "  granmine_cli restore --snapshot FILE\n"
      "  granmine_cli check  --structure FILE [--exact]\n"
      "  granmine_cli dot    --structure FILE [--tag]\n"
      "  granmine_cli demo\n");
  return 64;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string FormatDouble2(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

// Whether once-per-run diagnostics go to the JSON sink (--log-out) instead
// of the legacy stderr rendering. The structured record is always emitted —
// it feeds the engine's flight recorder either way; only the human copy is
// conditional.
bool MachineLog() { return obs::EventLog::Global().sink_open(); }

// One once-per-run CLI diagnostic: a structured record (no rate limiting —
// these fire at most once per run), plus the legacy stderr line when no
// JSON sink is open. `legacy` carries its own trailing newline.
void CliDiag(obs::LogLevel level, const char* message,
             std::initializer_list<obs::LogField> fields,
             const std::string& legacy) {
  obs::EventLog::Global().Log(nullptr, level, "cli", message, fields);
  if (!MachineLog()) std::fputs(legacy.c_str(), stderr);
}

// Shared flag validation; on error prints the message and returns the
// sysexits code via `*exit_code`.
template <typename T>
bool Validated(Result<T> parsed, T* out, int* exit_code) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    *exit_code = 64;
    return false;
  }
  *out = std::move(*parsed);
  return true;
}

// Prints a service-layer CallResult the way the in-process subcommands
// always rendered: errors and the legacy stats line to stderr (the stats
// line only when no --log-out sink is open — the service already emitted
// its structured twin), the report itself to stdout. Returns the exit code.
int EmitResult(const server::CallResult& result) {
  if (!result.err.empty()) std::fputs(result.err.c_str(), stderr);
  if (!MachineLog() && !result.diag.empty()) {
    std::fputs(result.diag.c_str(), stderr);
  }
  if (!result.out.empty()) std::fputs(result.out.c_str(), stdout);
  return result.exit_code;
}

int RunDemo();

// The mine / check / dot / stream semantics live in the shared service
// layer (granmine/server/service.h) so the TCP server serves the same
// bytes; the CLI's job is reduced to reading files, packing the call
// struct, and printing the rendered result.
int RunMine(const CliArgs& args, const EngineFlags& engine_flags,
            Engine* engine) {
  auto structure_text = ReadFileToString(args.flags.at("structure"));
  auto events_text = ReadFileToString(args.flags.at("events"));
  if (!structure_text.ok() || !events_text.ok()) {
    std::fprintf(stderr, "%s\n", (!structure_text.ok()
                                      ? structure_text.status()
                                      : events_text.status())
                                     .ToString()
                                     .c_str());
    return 66;
  }
  server::MineCall call;
  call.structure_text = std::move(*structure_text);
  call.events_text = std::move(*events_text);
  call.reference = args.flags.at("reference");
  if (args.flags.count("confidence")) {
    call.confidence = args.flags.at("confidence");
  }
  if (args.flags.count("on-budget")) call.on_budget = args.flags.at("on-budget");
  call.pins = args.pins;
  call.naive = args.naive;
  call.explain = args.explain;
  // A deadline without an explicit --on-budget degrades gracefully: report
  // whatever was decided instead of failing the whole run.
  call.default_partial = engine_flags.deadline_ms.has_value();
  return EmitResult(ServeMine(engine, call));
}

// Fills the "stream" block of a statusz snapshot from the live session:
// the miner's retention telemetry plus the CLI-owned checkpoint cadence
// counters (the miner does not know about checkpoints; the CLI drives them).
StatuszStream StreamStatus(const OnlineMiner& miner,
                           const StreamRequest& request,
                           std::uint64_t checkpoints_written,
                           std::int64_t accepted_since_checkpoint,
                           bool checkpointing) {
  StatuszStream status;
  status.watermark = miner.watermark();
  status.horizon = miner.horizon();
  status.retention = request.options.retention;
  status.tolerance = request.options.tolerance;
  status.buffered_events = miner.buffered_events();
  status.late_events = miner.late_events();
  status.shed_events = miner.shed_events();
  status.resident_roots = miner.resident_roots();
  status.resident_configurations = miner.resident_configurations();
  status.checkpoints_written = checkpoints_written;
  status.events_since_checkpoint =
      checkpointing ? accepted_since_checkpoint : -1;
  return status;
}

int RunStream(const CliArgs& args, Engine* engine) {
  auto structure_text = ReadFileToString(args.flags.at("structure"));
  if (!structure_text.ok()) {
    std::fprintf(stderr, "%s\n", structure_text.status().ToString().c_str());
    return 66;
  }
  server::StreamOpenCall call;
  call.structure_text = std::move(*structure_text);
  call.reference = args.flags.at("reference");
  call.window = args.flags.at("window");
  call.slide = args.flags.at("slide");
  if (args.flags.count("theta")) call.theta = args.flags.at("theta");
  if (args.flags.count("types")) call.types = args.flags.at("types");
  if (args.flags.count("tolerance")) call.tolerance = args.flags.at("tolerance");
  call.pins = args.pins;

  int exit_code = 0;
  StreamCheckpointArgs checkpoint;
  if (!Validated(ParseStreamCheckpoint(args), &checkpoint, &exit_code)) {
    return exit_code;
  }
  // `--statusz-every N`: a point-in-time engine + session status JSON object
  // on stderr after every N accepted events — stderr, like the stats block,
  // so the stdout snapshot contract stays byte-diffable.
  std::int64_t statusz_every = 0;
  if (args.flags.count("statusz-every") &&
      !Validated(
          ParsePositiveInt("statusz-every", args.flags.at("statusz-every")),
          &statusz_every, &exit_code)) {
    return exit_code;
  }
  // Crash-safe resume: an existing checkpoint file means a previous run got
  // at least that far — restore it rather than starting cold. The restore
  // validates the checkpoint against this command line's problem geometry
  // (reference type, pins, window, tolerance) and refuses a mismatch.
  bool resume = false;
  if (checkpoint.every > 0) {
    if (std::FILE* probe = std::fopen(checkpoint.path.c_str(), "rb");
        probe != nullptr) {
      std::fclose(probe);
      resume = true;
    }
  }
  auto opened = server::StreamSession::Open(
      engine, call, resume ? checkpoint.path : std::string());
  if (!opened.session) return EmitResult(opened.result);
  server::StreamSession& session = *opened.session;
  if (resume) {
    std::fprintf(stderr, "resumed from checkpoint '%s' (watermark %s)\n",
                 checkpoint.path.c_str(),
                 FormatTimePoint(session.miner().watermark()).c_str());
  }

  const std::string events_path =
      args.flags.count("events") ? args.flags.at("events") : "-";
  std::ifstream file;
  if (events_path != "-") {
    file.open(events_path);
    if (!file) {
      std::fprintf(stderr, "cannot open '%s'\n", events_path.c_str());
      return 66;
    }
  }
  std::istream& in = events_path == "-" ? std::cin : file;

  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t checkpoints_written = 0;
  std::int64_t accepted_since_checkpoint = 0;
  std::int64_t accepted_since_statusz = 0;
  // The checkpoint / statusz cadence stays CLI-owned: the session runs this
  // hook after every accepted event, before that line's snapshot
  // evaluation — the same point in the loop the inline code occupied.
  auto after_accept = [&](OnlineMiner& miner) -> int {
    if (checkpoint.every > 0 &&
        ++accepted_since_checkpoint >= checkpoint.every) {
      // Atomic temp-file-plus-rename: a crash mid-write leaves the previous
      // checkpoint intact, never a torn file.
      if (Status saved = persist::SaveStreamCheckpoint(miner, checkpoint.path);
          !saved.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n", saved.ToString().c_str());
        return 74;
      }
      accepted_since_checkpoint = 0;
      ++checkpoints_written;
    }
    if (statusz_every > 0 && ++accepted_since_statusz >= statusz_every) {
      accepted_since_statusz = 0;
      const StatuszStream stream_status =
          StreamStatus(miner, session.request(), checkpoints_written,
                       accepted_since_checkpoint, checkpoint.every > 0);
      std::fprintf(stderr, "%s\n",
                   RenderStatuszJson(engine->Statusz(), &stream_status)
                       .c_str());
    }
    return 0;
  };

  std::string line;
  while (std::getline(in, line)) {
    // One line per Ingest call keeps the session's line numbering (and so
    // its parse / drop diagnostics) identical to the inline loop's. The
    // appended newline matters: an empty chunk would not count a line.
    auto outcome = session.Ingest(line + "\n", after_accept);
    if (!outcome.result.err.empty()) {
      std::fputs(outcome.result.err.c_str(), stderr);
    }
    if (!outcome.result.out.empty()) {
      std::fputs(outcome.result.out.c_str(), stdout);
    }
    if (outcome.result.exit_code != 0) return outcome.result.exit_code;
  }

  // Flush a final checkpoint on clean end of input (before Seal, so the
  // saved session is still resumable): a graceful shutdown loses nothing;
  // only a crash can lose the events accepted since the last checkpoint.
  if (checkpoint.every > 0 && accepted_since_checkpoint > 0) {
    if (Status saved = persist::SaveStreamCheckpoint(session.miner(),
                                                     checkpoint.path);
        !saved.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", saved.ToString().c_str());
      return 74;
    }
    ++checkpoints_written;
  }

  server::CallResult sealed = session.Seal();
  if (!sealed.err.empty()) std::fputs(sealed.err.c_str(), stderr);
  if (!sealed.out.empty()) std::fputs(sealed.out.c_str(), stdout);
  if (sealed.exit_code != 0) return sealed.exit_code;
  // stderr (or the --log-out sink) for the same reason as `mine`: stdout is
  // diffed across --threads.
  {
    const std::string stop = session.seal_stop_cause();
    const std::string elapsed =
        FormatDouble2(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count());
    const std::string snapshots = std::to_string(session.snapshots_taken() + 1);
    const std::string late = std::to_string(session.dropped_late());
    const std::string checkpoints = std::to_string(checkpoints_written);
    CliDiag(obs::LogLevel::kInfo, "stream stats",
            {{"stop_cause", stop}, {"elapsed_ms", elapsed},
             {"snapshots", snapshots}, {"late_drops", late},
             {"checkpoints", checkpoints}},
            "stats: stop-cause " + stop + ", elapsed " + elapsed +
                " ms, snapshots " + snapshots + ", late drops " + late +
                ", checkpoints " + checkpoints + "\n");
  }
  return 0;
}

int RunCheck(const CliArgs& args, Engine* engine) {
  auto text = ReadFileToString(args.flags.at("structure"));
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 66;
  }
  server::CheckCall call;
  call.structure_text = std::move(*text);
  call.exact = args.exact;
  return EmitResult(ServeCheck(engine, call));
}

int RunDot(const CliArgs& args, Engine* engine) {
  auto text = ReadFileToString(args.flags.at("structure"));
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 66;
  }
  server::DotCall call;
  call.structure_text = std::move(*text);
  call.tag = args.tag;
  return EmitResult(ServeDot(engine, call));
}

int RunSave(const CliArgs& args, Engine* engine) {
  int exit_code = 0;
  std::string out;
  if (!Validated(ParseOutputPath("out", args.flags.at("out")), &out,
                 &exit_code)) {
    return exit_code;
  }
  EventTypeRegistry registry;
  std::optional<EventSequence> sequence;
  if (args.flags.count("events")) {
    auto text = ReadFileToString(args.flags.at("events"));
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 66;
    }
    auto parsed = ParseEventSequence(*text, &registry);
    if (!parsed.ok()) {
      std::fprintf(stderr, "events: %s\n", parsed.status().ToString().c_str());
      return 65;
    }
    sequence = std::move(*parsed);
  }
  SnapshotSaveOptions options;
  if (sequence.has_value()) options.sequence = &*sequence;
  if (Status status = engine->SaveSnapshot(out, options); !status.ok()) {
    std::fprintf(stderr, "save: %s\n", status.ToString().c_str());
    return 74;
  }
  std::printf("snapshot written to %s", out.c_str());
  if (sequence.has_value()) {
    std::printf(": %zu events", sequence->size());
  }
  std::printf("\n");
  return 0;
}

int RunRestore(const CliArgs& args, const EngineOptions& engine_options) {
  // The restore contract (docs/persistence.md): FromSnapshot reads the
  // snapshot's sections and freezes the family cold.
  EventSequence sequence;
  auto engine = Engine::FromSnapshot(GranularitySystem::Gregorian(),
                                     args.flags.at("snapshot"), engine_options,
                                     &sequence);
  if (!engine.ok()) {
    std::fprintf(stderr, "restore: %s\n", engine.status().ToString().c_str());
    return engine.status().code() == StatusCode::kNotFound ? 66 : 65;
  }
  std::printf("restore OK: family of %zu granularities frozen",
              (*engine)->system()->family().size());
  if (sequence.size() > 0) {
    std::printf(", %zu stored events", sequence.size());
  }
  std::printf("\n");
  return 0;
}

int RunDemo() {
  std::printf("writing demo files demo_structure.txt / demo_events.txt\n");
  {
    std::ofstream s("demo_structure.txt");
    s << "rise -> report : [1,1] b-day\n"
         "report -> fall : [0,1] week\n"
         "rise -> hp     : [0,5] b-day\n"
         "hp -> fall     : [0,8] hour\n";
    std::ofstream e("demo_events.txt");
    e << "1970-01-05 10:00:00 IBM-rise\n"
         "1970-01-06 11:00:00 IBM-earnings-report\n"
         "1970-01-07 12:00:00 HP-rise\n"
         "1970-01-07 15:00:00 IBM-fall\n"
         "1970-01-12 10:00:00 IBM-rise\n"
         "1970-01-13 11:00:00 IBM-earnings-report\n"
         "1970-01-14 12:00:00 HP-rise\n"
         "1970-01-14 15:00:00 IBM-fall\n"
         "1970-01-19 10:00:00 IBM-rise\n";
  }
  std::printf(
      "try:\n"
      "  granmine_cli mine --structure demo_structure.txt --events "
      "demo_events.txt --reference IBM-rise --confidence 0.5\n"
      "  granmine_cli stream --structure demo_structure.txt --events "
      "demo_events.txt --reference IBM-rise --window 1209600 --slide 604800 "
      "--pin report=IBM-earnings-report --pin hp=HP-rise --pin fall=IBM-fall\n"
      "  granmine_cli check --structure demo_structure.txt --exact\n"
      "  granmine_cli dot --structure demo_structure.txt --tag\n");
  return 0;
}

// Writes the requested exposition files after the command finished. Returns
// 0 or an I/O exit code; never overrides a failing command's own code.
int WriteObservability(const EngineFlags& flags, const Engine& engine) {
  int exit_code = 0;
  if (!flags.metrics_out.empty()) {
    if (Status status = engine.WriteMetrics(flags.metrics_out); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      exit_code = 74;
    }
  }
  if (!flags.trace_out.empty()) {
    if (Status status = engine.WriteTrace(flags.trace_out); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      exit_code = 74;
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseCliArgs(argc, argv);
  if (!args.ok()) return Usage();
  // The engine flags are shared by every subcommand and validated once —
  // one parser, one set of error messages.
  auto engine_flags = ParseEngineFlags(*args);
  if (!engine_flags.ok()) {
    std::fprintf(stderr, "%s\n", engine_flags.status().ToString().c_str());
    return 64;
  }
  EngineOptions engine_options;
  engine_options.num_threads = engine_flags->threads.value_or(1);
  engine_options.limits.deadline_ms = engine_flags->deadline_ms.value_or(0);
  engine_options.limits.memory_budget_bytes =
      static_cast<std::uint64_t>(engine_flags->mem_budget_mb.value_or(0)) *
      1024 * 1024;
  engine_options.enable_metrics = !engine_flags->metrics_out.empty();
  engine_options.enable_tracing = !engine_flags->trace_out.empty();
  // --log-level alone enables the logger (stderr-rendered diagnostics keep
  // their legacy form); --log-out additionally opens the JSON-lines sink.
  engine_options.enable_logging =
      engine_flags->log_level.has_value() || !engine_flags->log_out.empty();
  engine_options.log_level =
      engine_flags->log_level.value_or(obs::LogLevel::kInfo);
  engine_options.log_path = engine_flags->log_out;
  // --max-queue or --degrade switch the admission controller on; a memory
  // or deadline stop then degrades to screening-only instead of failing the
  // run when --degrade is given (docs/robustness.md).
  if (engine_flags->max_queue.has_value() || engine_flags->degrade) {
    engine_options.admission.enabled = true;
    engine_options.admission.max_queue = static_cast<std::size_t>(
        engine_flags->max_queue.value_or(16));
    engine_options.admission.degrade_when_saturated = engine_flags->degrade;
  }
  auto engine = Engine::CreateGregorian(engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 70;
  }
  // Deferred from the parser so it can route through the logger the engine
  // just configured: recorded structurally always (the flight recorder sees
  // it), rendered on stderr only when no JSON sink is open.
  if (engine_flags->threads_clamp_warning.has_value()) {
    CliDiag(obs::LogLevel::kWarn, "threads clamped",
            {{"detail", *engine_flags->threads_clamp_warning}},
            "warning: " + *engine_flags->threads_clamp_warning + "\n");
  }
  auto need = [&](const char* flag) {
    return args->flags.count(flag) > 0;
  };
  int code = -1;
  if (args->command == "demo") {
    code = RunDemo();
  } else if (args->command == "mine" && need("structure") && need("events") &&
             need("reference")) {
    code = RunMine(*args, *engine_flags, engine->get());
  } else if (args->command == "stream" && need("structure") &&
             need("reference") && need("window") && need("slide")) {
    code = RunStream(*args, engine->get());
  } else if (args->command == "save" && need("out")) {
    code = RunSave(*args, engine->get());
  } else if (args->command == "restore" && need("snapshot")) {
    code = RunRestore(*args, engine_options);
  } else if (args->command == "check" && need("structure")) {
    code = RunCheck(*args, engine->get());
  } else if (args->command == "dot" && need("structure")) {
    code = RunDot(*args, engine->get());
  } else {
    return Usage();
  }
  const int obs_code = WriteObservability(*engine_flags, **engine);
  return code != 0 ? code : obs_code;
}

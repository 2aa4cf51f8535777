// E15 — persistence cost model. Three claims to check:
//
//  (a) snapshot save/load moves bytes at I/O-bound rates — the CRC32C frame
//      and the codec walk add no visible CPU wall (bytes_per_second counter);
//  (b) a cold Freeze() — one support walk per granularity, the sealed
//      table rows and the coverage matrix computed from those walks — is
//      cheap enough that restores re-freeze instead of installing a stored
//      image (the image section was retired; EXPERIMENTS.md E18);
//  (c) a stream checkpoint (encode + atomic temp-file write + rename) is
//      cheap enough to take every few thousand events.
//
// BENCH_PR8.json is generated with
//   bench/run_benches.sh --json BENCH_PR8.json --repetitions 3
//       bench_persist bench_admission_overhead

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/persist/stream_codec.h"
#include "granmine/sequence/sequence.h"
#include "granmine/stream/online_miner.h"

namespace granmine {
namespace {

constexpr int kTypeCount = 6;

std::string TempPath(const char* name) {
  return std::string("/tmp/granmine_bench_persist_") + name;
}

// A deterministic event tape over the Gregorian family's second ticks.
EventSequence MakeSequence(std::size_t count) {
  EventSequence sequence;
  std::uint64_t state = 0x51ed2701afe4c9b3ULL;
  TimePoint t = 1;
  for (std::size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    t += static_cast<TimePoint>((state >> 33) % 900);
    sequence.Add(Event{static_cast<EventTypeId>((state >> 13) % kTypeCount), t});
  }
  return sequence;
}

std::uint64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<std::uint64_t>(size) : 0;
}

// (a) Engine::SaveSnapshot throughput: an event sequence of range(0) events,
// through the atomic temp-file + rename path.
void BM_SnapshotSave(benchmark::State& state) {
  auto engine = Engine::CreateGregorian();
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  const EventSequence sequence = MakeSequence(
      static_cast<std::size_t>(state.range(0)));
  const std::string path = TempPath("save.bin");
  SnapshotSaveOptions options;
  options.sequence = &sequence;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    Status saved = (*engine)->SaveSnapshot(path, options);
    if (!saved.ok()) {
      state.SkipWithError("SaveSnapshot failed");
      return;
    }
    bytes += FileBytes(path);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotSave)->Arg(1000)->Arg(100000);

// (a) Engine::FromSnapshot throughput: read + CRC verify + decode + cold
// freeze + engine construction, i.e. the whole crash-recovery path.
void BM_SnapshotLoad(benchmark::State& state) {
  auto engine = Engine::CreateGregorian();
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  const EventSequence sequence = MakeSequence(
      static_cast<std::size_t>(state.range(0)));
  const std::string path = TempPath("load.bin");
  SnapshotSaveOptions options;
  options.sequence = &sequence;
  if (!(*engine)->SaveSnapshot(path, options).ok()) {
    state.SkipWithError("SaveSnapshot failed");
    return;
  }
  const std::uint64_t bytes = FileBytes(path);
  std::uint64_t total = 0;
  for (auto _ : state) {
    EventSequence restored_sequence;
    auto restored = Engine::FromSnapshot(GranularitySystem::Gregorian(), path,
                                         EngineOptions{}, &restored_sequence);
    if (!restored.ok()) {
      state.SkipWithError("FromSnapshot failed");
      return;
    }
    benchmark::DoNotOptimize(restored_sequence.size());
    total += bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(total));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotLoad)->Arg(1000)->Arg(100000);

// (b) Cold start: build the Gregorian family and freeze it — every sealed
// table row and the coverage matrix. What every restore pays.
void BM_ColdFreeze(benchmark::State& state) {
  for (auto _ : state) {
    std::unique_ptr<GranularitySystem> system = GranularitySystem::Gregorian();
    Status frozen = system->Freeze();
    if (!frozen.ok()) {
      state.SkipWithError("Freeze failed");
      return;
    }
    benchmark::DoNotOptimize(system.get());
  }
}
BENCHMARK(BM_ColdFreeze);

// (c) Stream checkpoint cadence cost: encode the resident session and write
// it through the atomic-rename path, on a live session of range(0) events
// (same shape as tests/stream_test.cc, 36 candidates).
void BM_StreamCheckpointSave(benchmark::State& state) {
  GranularitySystem system;
  const Granularity* unit = system.AddUniform("unit", 1);
  EventStructure structure;
  VariableId x0 = structure.AddVariable("X0");
  VariableId x1 = structure.AddVariable("X1");
  VariableId x2 = structure.AddVariable("X2");
  benchmark::DoNotOptimize(structure.AddConstraint(x0, x1, Tcg::Of(0, 8, unit)));
  benchmark::DoNotOptimize(structure.AddConstraint(x1, x2, Tcg::Of(0, 8, unit)));
  DiscoveryProblem problem;
  problem.structure = &structure;
  problem.reference_type = 0;
  problem.min_confidence = 0.05;
  problem.allowed.assign(3, {});
  problem.allowed[1] = {0, 1, 2, 3, 4, 5};
  problem.allowed[2] = {0, 1, 2, 3, 4, 5};
  auto miner = OnlineMiner::Create(&system, problem, OnlineMinerOptions{});
  if (!miner.ok()) {
    state.SkipWithError("OnlineMiner::Create failed");
    return;
  }
  std::uint64_t rng = 0x51ed2701afe4c9b3ULL;
  TimePoint t = 1;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    t += static_cast<TimePoint>((rng >> 33) % 2);
    if (!miner->Ingest(
                 Event{static_cast<EventTypeId>((rng >> 13) % kTypeCount), t})
             .ok()) {
      state.SkipWithError("Ingest failed");
      return;
    }
  }
  const std::string path = TempPath("checkpoint.bin");
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    Status saved = persist::SaveStreamCheckpoint(*miner, path);
    if (!saved.ok()) {
      state.SkipWithError("SaveStreamCheckpoint failed");
      return;
    }
    bytes += FileBytes(path);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_StreamCheckpointSave)->Arg(200)->Arg(2000);

// (c) The restore side: read + fingerprint check + state install over a
// freshly re-derived session.
void BM_StreamCheckpointRestore(benchmark::State& state) {
  GranularitySystem system;
  const Granularity* unit = system.AddUniform("unit", 1);
  EventStructure structure;
  VariableId x0 = structure.AddVariable("X0");
  VariableId x1 = structure.AddVariable("X1");
  VariableId x2 = structure.AddVariable("X2");
  benchmark::DoNotOptimize(structure.AddConstraint(x0, x1, Tcg::Of(0, 8, unit)));
  benchmark::DoNotOptimize(structure.AddConstraint(x1, x2, Tcg::Of(0, 8, unit)));
  DiscoveryProblem problem;
  problem.structure = &structure;
  problem.reference_type = 0;
  problem.min_confidence = 0.05;
  problem.allowed.assign(3, {});
  problem.allowed[1] = {0, 1, 2, 3, 4, 5};
  problem.allowed[2] = {0, 1, 2, 3, 4, 5};
  auto miner = OnlineMiner::Create(&system, problem, OnlineMinerOptions{});
  if (!miner.ok()) {
    state.SkipWithError("OnlineMiner::Create failed");
    return;
  }
  std::uint64_t rng = 0x51ed2701afe4c9b3ULL;
  TimePoint t = 1;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    t += static_cast<TimePoint>((rng >> 33) % 2);
    if (!miner->Ingest(
                 Event{static_cast<EventTypeId>((rng >> 13) % kTypeCount), t})
             .ok()) {
      state.SkipWithError("Ingest failed");
      return;
    }
  }
  const std::string path = TempPath("restore.bin");
  if (!persist::SaveStreamCheckpoint(*miner, path).ok()) {
    state.SkipWithError("SaveStreamCheckpoint failed");
    return;
  }
  for (auto _ : state) {
    auto restored = persist::RestoreStreamCheckpoint(&system, problem,
                                                     OnlineMinerOptions{}, path);
    if (!restored.ok()) {
      state.SkipWithError("RestoreStreamCheckpoint failed");
      return;
    }
    benchmark::DoNotOptimize(&*restored);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_StreamCheckpointRestore)->Arg(200)->Arg(2000);

}  // namespace
}  // namespace granmine

BENCHMARK_MAIN();

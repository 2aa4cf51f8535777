// The persistence subsystem's contract suite (docs/persistence.md):
//
//  - CRC32C: RFC 3720 known answers; the dispatched (hardware where
//    available) path equals the portable one at every length, alignment
//    and chained split;
//  - container: header/section/trailer framing roundtrips, unknown section
//    types are forward-skippable, truncation is Invalid with a byte offset;
//  - restore: a snapshot — an old one carrying the retired frozen-family
//    image section too — restores into a cold-frozen engine whose Mine
//    reply equals a fresh engine's, with the stored sequence returned;
//  - stream checkpoint/restore: the crash-recovery differential — kill the
//    session at EVERY checkpoint boundary, restore, finish the stream, and
//    both the report and the next checkpoint's bytes must be identical to an
//    uninterrupted run, at 1 and 4 threads;
//  - crash safety: an abandoned or governor-cancelled write leaves no
//    partial file; checkpoint I/O is charged to the governor;
//  - observability: snapshot restores and checkpoint resumes count on
//    separate counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/obs/metrics.h"
#include "granmine/obs/obs.h"
#include "granmine/paper/figures.h"
#include "granmine/persist/bytes.h"
#include "granmine/persist/codecs.h"
#include "granmine/persist/crc32c.h"
#include "granmine/persist/snapshot.h"
#include "granmine/persist/stream_codec.h"
#include "granmine/sequence/generators.h"
#include "granmine/stream/online_miner.h"

namespace granmine {
namespace {

using persist::Section;
using persist::SectionType;
using persist::SnapshotIoOptions;
using persist::SnapshotReader;
using persist::SnapshotWriter;
using persist::SpanSource;
using persist::VectorSink;

std::string TempPath(const char* name) {
  return testing::TempDir() + "granmine_persist_" + name;
}

bool FileExists(const std::string& path) {
  if (std::FILE* file = std::fopen(path.c_str(), "rb"); file != nullptr) {
    std::fclose(file);
    return true;
  }
  return false;
}

std::vector<std::uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// ---------------------------------------------------------------------------
// CRC32C: the RFC 3720 known answers, and the dispatched implementation (the
// crc32 instruction on x86-64 CPUs with SSE4.2) pinned to the portable
// slicing-by-8 routine and to a bit-at-a-time reference. Snapshot and wire
// bytes stay identical only if every path computes the same function.

std::uint32_t BitwiseCrc32c(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> SeededBytes(std::size_t size) {
  std::vector<std::uint8_t> out(size);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::uint8_t& b : out) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(state >> 56);
  }
  return out;
}

TEST(Crc32cTest, MatchesRfc3720KnownAnswers) {
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
  }
  const std::string check = "123456789";
  const struct {
    std::vector<std::uint8_t> bytes;
    std::uint32_t crc;
  } cases[] = {
      {std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu},
      {std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {std::vector<std::uint8_t>(check.begin(), check.end()), 0xE3069283u},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(persist::Crc32c(c.bytes), c.crc);
    EXPECT_EQ(persist::detail::ExtendCrc32cPortable(persist::kCrc32cInit,
                                                    c.bytes),
              c.crc);
    EXPECT_EQ(BitwiseCrc32c(c.bytes), c.crc);
  }
}

TEST(Crc32cTest, DispatchedPathMatchesPortableAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> bytes = SeededBytes(4096 + 8);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 4096; ++length) {
      const std::span<const std::uint8_t> data(bytes.data() + start, length);
      ASSERT_EQ(persist::Crc32c(data),
                persist::detail::ExtendCrc32cPortable(persist::kCrc32cInit,
                                                      data))
          << "start " << start << " length " << length;
    }
  }
  // Lengths around the interleaved block boundaries (3 × 256 and 3 × 8192)
  // and a 1 MiB run, checked against the bit-at-a-time reference too.
  const std::vector<std::uint8_t> big = SeededBytes((1u << 20) + 16);
  for (std::size_t length :
       {767u, 768u, 769u, 24575u, 24576u, 24577u, 50000u, 1u << 20}) {
    for (std::size_t start : {0u, 3u}) {
      const std::span<const std::uint8_t> data(big.data() + start, length);
      const std::uint32_t reference = BitwiseCrc32c(data);
      EXPECT_EQ(persist::Crc32c(data), reference) << "length " << length;
      EXPECT_EQ(persist::detail::ExtendCrc32cPortable(persist::kCrc32cInit,
                                                      data),
                reference)
          << "length " << length;
    }
  }
}

TEST(Crc32cTest, ChainedExtendEqualsOneShot) {
  const std::vector<std::uint8_t> bytes = SeededBytes(60000);
  const std::span<const std::uint8_t> all(bytes);
  const std::uint32_t whole = persist::Crc32c(all);
  for (std::size_t split : {0u, 1u, 7u, 8u, 255u, 769u, 8192u, 24577u,
                            59999u, 60000u}) {
    std::uint32_t crc = persist::ExtendCrc32c(persist::kCrc32cInit,
                                              all.first(split));
    crc = persist::ExtendCrc32c(crc, all.subspan(split));
    EXPECT_EQ(crc, whole) << "split " << split;
    std::uint32_t portable = persist::detail::ExtendCrc32cPortable(
        persist::kCrc32cInit, all.first(split));
    portable = persist::detail::ExtendCrc32cPortable(portable,
                                                     all.subspan(split));
    EXPECT_EQ(portable, whole) << "split " << split;
  }
}

// ---------------------------------------------------------------------------
// Container framing.

TEST(SnapshotContainerTest, RoundtripsSectionsInOrder) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  const std::vector<std::uint8_t> meta = Bytes({1, 2, 3, 4, 5});
  const std::vector<std::uint8_t> empty;
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, meta).ok());
  ASSERT_TRUE(writer.WriteSection(SectionType::kEventSequence, empty).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.sections_written(), 2u);

  SpanSource source(sink.buffer());
  Result<std::vector<Section>> sections = persist::ReadAllSections(&source);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_EQ(sections->size(), 2u);
  EXPECT_EQ((*sections)[0].type, SectionType::kMeta);
  EXPECT_EQ((*sections)[0].payload, meta);
  EXPECT_EQ((*sections)[1].type, SectionType::kEventSequence);
  EXPECT_TRUE((*sections)[1].payload.empty());
  // Payload offsets are file coordinates: past the 16-byte header and the
  // 20-byte frame.
  EXPECT_EQ((*sections)[0].payload_offset, 16u + 20u);
}

TEST(SnapshotContainerTest, UnknownSectionTypeIsSkippable) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  const std::vector<std::uint8_t> future = Bytes({42, 42, 42});
  const std::vector<std::uint8_t> known = Bytes({7});
  ASSERT_TRUE(
      writer.WriteSection(static_cast<SectionType>(999), future).ok());
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, known).ok());
  ASSERT_TRUE(writer.Finish().ok());

  // A reader that does not understand type 999 still CRC-verifies and steps
  // over it, and delivers the section after it intact.
  SpanSource source(sink.buffer());
  Result<std::vector<Section>> sections = persist::ReadAllSections(&source);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_EQ(sections->size(), 2u);
  EXPECT_EQ(static_cast<std::uint32_t>((*sections)[0].type), 999u);
  EXPECT_EQ((*sections)[1].payload, known);
}

TEST(SnapshotContainerTest, MissingTrailerIsTruncationWithOffset) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, Bytes({9, 9})).ok());
  // No Finish(): the file ends between sections, which must read as
  // truncation, not as a clean snapshot.
  SpanSource source(sink.buffer());
  Result<std::vector<Section>> sections = persist::ReadAllSections(&source);
  ASSERT_FALSE(sections.ok());
  EXPECT_EQ(sections.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sections.status().message().find("offset"), std::string::npos)
      << sections.status();
}

TEST(SnapshotContainerTest, BadMagicAndBadVersionAreDistinguished) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  ASSERT_TRUE(writer.Finish().ok());

  std::vector<std::uint8_t> bad_magic = sink.buffer();
  bad_magic[0] ^= 0xFF;
  SpanSource magic_source(bad_magic);
  SnapshotReader magic_reader(&magic_source);
  EXPECT_EQ(magic_reader.ReadHeader().code(), StatusCode::kInvalidArgument);

  std::vector<std::uint8_t> bad_version = sink.buffer();
  bad_version[8] = 0xFE;  // little-endian version field
  SpanSource version_source(bad_version);
  SnapshotReader version_reader(&version_source);
  EXPECT_EQ(version_reader.ReadHeader().code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Section codecs.

TEST(CodecTest, EventSequenceRoundtrips) {
  EventSequence sequence;
  sequence.Add(Event{3, 100});
  sequence.Add(Event{1, 100});
  sequence.Add(Event{0, -7});
  const std::vector<std::uint8_t> payload =
      persist::EncodeEventSequence(sequence);
  Section section;
  section.type = SectionType::kEventSequence;
  section.payload = payload;
  Result<EventSequence> decoded = persist::DecodeEventSequence(section);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(decoded->events()[i].type, sequence.events()[i].type);
    EXPECT_EQ(decoded->events()[i].time, sequence.events()[i].time);
  }
}

// ---------------------------------------------------------------------------
// Engine snapshot / restore.

std::string FormatReport(const MiningReport& report) {
  std::string out;
  char buffer[256];
  auto append = [&](const char* format, auto... args) {
    std::snprintf(buffer, sizeof(buffer), format, args...);
    out += buffer;
  };
  append("roots=%zu events=%zu/%zu cand=%llu/%llu runs=%llu configs=%llu\n",
         report.total_roots, report.events_before,
         report.events_after_reduction,
         static_cast<unsigned long long>(report.candidates_before),
         static_cast<unsigned long long>(report.candidates_after_screening),
         static_cast<unsigned long long>(report.tag_runs),
         static_cast<unsigned long long>(report.matcher_configurations));
  const MiningCompleteness& c = report.completeness;
  append("complete=%d stop=%d confirmed=%llu refuted=%llu unknown=%llu\n",
         c.complete ? 1 : 0, static_cast<int>(c.stop),
         static_cast<unsigned long long>(c.confirmed),
         static_cast<unsigned long long>(c.refuted),
         static_cast<unsigned long long>(c.unknown));
  for (const DiscoveredType& solution : report.solutions) {
    out += "sol";
    for (EventTypeId type : solution.assignment) {
      append(" %d", type);
    }
    append(" matched=%zu freq=%.17g\n", solution.matched_roots,
           solution.frequency);
  }
  return out;
}


TEST(EngineSnapshotTest, SaveThenFromSnapshotServesIdenticalResults) {
  const std::string path = TempPath("engine_snapshot.bin");
  std::remove(path.c_str());

  EventSequence sequence;
  for (int i = 0; i < 8; ++i) {
    sequence.Add(Event{static_cast<EventTypeId>(i % 2), i * 3600});
  }

  Result<std::unique_ptr<Engine>> cold = Engine::CreateGregorian();
  ASSERT_TRUE(cold.ok());
  SnapshotSaveOptions save;
  save.sequence = &sequence;
  ASSERT_TRUE((*cold)->SaveSnapshot(path, save).ok());

  EventSequence restored_sequence;
  Result<std::unique_ptr<Engine>> restored = Engine::FromSnapshot(
      GranularitySystem::Gregorian(), path, EngineOptions{},
      &restored_sequence);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_TRUE((*restored)->frozen());
  ASSERT_EQ(restored_sequence.size(), sequence.size());

  // The restored engine's sealed caches answer identically to the cold one's.
  const GranularitySystem& a = *(*cold)->system();
  const GranularitySystem& b = *(*restored)->system();
  ASSERT_EQ(a.family().size(), b.family().size());
  for (std::size_t g = 0; g < a.family().size(); ++g) {
    for (std::int64_t k : {1, 2, 7, 30}) {
      EXPECT_EQ(a.tables().MinSize(*a.family()[g], k),
                b.tables().MinSize(*b.family()[g], k));
      EXPECT_EQ(a.tables().MaxSize(*a.family()[g], k),
                b.tables().MaxSize(*b.family()[g], k));
      EXPECT_EQ(a.tables().MinGap(*a.family()[g], k),
                b.tables().MinGap(*b.family()[g], k));
    }
  }
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, FromSnapshotWithoutSectionsFreezesCold) {
  const std::string path = TempPath("no_sections.bin");
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    SnapshotWriter writer(sink->get());
    ASSERT_TRUE(writer.WriteHeader().ok());
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE((*sink)->Commit().ok());
  }
  EventSequence sequence;
  Result<std::unique_ptr<Engine>> restored = Engine::FromSnapshot(
      GranularitySystem::Gregorian(), path, EngineOptions{}, &sequence);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE((*restored)->frozen());
  EXPECT_EQ(sequence.size(), 0u);
  std::remove(path.c_str());
}

// Snapshots written before the frozen-family image was retired carry it as
// section type 1 ahead of the sequence. Restore skips it without decoding
// (so its payload here is arbitrary), freezes cold, and must serve the same
// Mine reply as a fresh engine over the stored sequence.
TEST(EngineSnapshotTest, OldSnapshotWithImageSectionStillRestores) {
  const std::string path = TempPath("old_image.bin");
  StockWorkloadOptions workload_options;
  workload_options.trading_days = 25;
  workload_options.plant_probability = 0.6;
  workload_options.seed = 7;
  Result<std::unique_ptr<Engine>> fresh = Engine::CreateGregorian();
  ASSERT_TRUE(fresh.ok());
  Workload workload =
      MakeStockWorkload(*(*fresh)->system(), workload_options);
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    SnapshotWriter writer(sink->get());
    ASSERT_TRUE(writer.WriteHeader().ok());
    ASSERT_TRUE(writer
                    .WriteSection(SectionType::kRetiredFrozenImage,
                                  SeededBytes(4099))
                    .ok());
    ASSERT_TRUE(writer
                    .WriteSection(SectionType::kEventSequence,
                                  persist::EncodeEventSequence(
                                      workload.sequence))
                    .ok());
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE((*sink)->Commit().ok());
  }

  EventSequence stored;
  Result<std::unique_ptr<Engine>> restored = Engine::FromSnapshot(
      GranularitySystem::Gregorian(), path, EngineOptions{}, &stored);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE((*restored)->frozen());
  ASSERT_EQ(stored.size(), workload.sequence.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(stored.events()[i].type, workload.sequence.events()[i].type);
    EXPECT_EQ(stored.events()[i].time, workload.sequence.events()[i].time);
  }

  std::string replies[2];
  Engine* engines[2] = {fresh->get(), restored->get()};
  const EventSequence* sequences[2] = {&workload.sequence, &stored};
  for (int i = 0; i < 2; ++i) {
    auto structure = BuildFigure1a(*engines[i]->system());
    ASSERT_TRUE(structure.ok());
    DiscoveryProblem problem;
    problem.structure = &*structure;
    problem.min_confidence = 0.3;
    problem.reference_type = *workload.registry.Find("IBM-rise");
    MineRequest request;
    request.problem = &problem;
    request.sequence = sequences[i];
    auto mined = engines[i]->Mine(request);
    ASSERT_TRUE(mined.ok()) << mined.status();
    replies[i] = FormatReport(mined->report);
  }
  EXPECT_FALSE(replies[0].empty());
  EXPECT_EQ(replies[0], replies[1]);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash safety and governed I/O.

TEST(AtomicSinkTest, AbandonedWriteLeavesNoFile) {
  const std::string path = TempPath("abandoned.bin");
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    const std::vector<std::uint8_t> data = Bytes({1, 2, 3});
    ASSERT_TRUE((*sink)->Append(data).ok());
    // No Commit: destruction abandons the write.
  }
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(AtomicSinkTest, AbandonedWritePreservesPreviousFile) {
  const std::string path = TempPath("previous.bin");
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("previous checkpoint", file);
    std::fclose(file);
  }
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    const std::vector<std::uint8_t> data = Bytes({0xDE, 0xAD});
    ASSERT_TRUE((*sink)->Append(data).ok());
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[64] = {};
  const std::size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, file);
  std::fclose(file);
  EXPECT_EQ(std::string(buffer, n), "previous checkpoint");
  std::remove(path.c_str());
}

TEST(GovernedIoTest, WriterChargesStepsPerPayloadBlock) {
  GovernorLimits limits;
  limits.max_steps = 1'000'000;
  limits.check_stride = 1;  // flush every charge so steps() is exact
  ResourceGovernor governor(limits);
  VectorSink sink;
  SnapshotWriter writer(&sink, SnapshotIoOptions{&governor});
  ASSERT_TRUE(writer.WriteHeader().ok());
  const std::vector<std::uint8_t> payload(64 * 1024, 0xAB);
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, payload).ok());
  ASSERT_TRUE(writer.Finish().ok());
  // 64 KiB at one step per 4096 bytes = at least 16 steps.
  EXPECT_GE(governor.steps(),
            payload.size() / persist::kGovernedBytesPerStep);
}

TEST(GovernedIoTest, ExhaustedBudgetCancelsWriteWithoutPartialFile) {
  GranularitySystem toy;
  const Granularity* unit = toy.AddUniform("unit", 1);
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(0, 4, unit)).ok());
  DiscoveryProblem problem;
  problem.structure = &s;
  problem.reference_type = 0;
  problem.allowed.assign(2, {});
  problem.allowed[1] = {0, 1, 2, 3};
  Result<OnlineMiner> miner =
      OnlineMiner::Create(&toy, problem, OnlineMinerOptions{});
  ASSERT_TRUE(miner.ok());
  // Enough resident state that the checkpoint payload exceeds the
  // bytes-per-step quantum — a sub-quantum write charges no step and
  // legitimately cannot trip the budget.
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(miner->Ingest(Event{static_cast<EventTypeId>(i % 4), i}).ok());
  }

  const std::string path = TempPath("cancelled.bin");
  std::remove(path.c_str());
  GovernorLimits limits;
  limits.max_steps = 1;
  limits.check_stride = 1;  // trips on the first flushed charge
  ResourceGovernor governor(limits);
  Status refused = persist::SaveStreamCheckpoint(*miner, path,
                                                 SnapshotIoOptions{&governor});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted) << refused;
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Stream checkpoint/restore differential. Same toy system, structure and
// deterministic arrival process as stream_test.cc, so the two gates certify
// the same session shape.

class CheckpointTest : public testing::Test {
 protected:
  static constexpr int kTypeCount = 6;

  CheckpointTest() {
    unit_ = toy_.AddUniform("unit", 1);
    VariableId x0 = s_.AddVariable("X0");
    VariableId x1 = s_.AddVariable("X1");
    VariableId x2 = s_.AddVariable("X2");
    EXPECT_TRUE(s_.AddConstraint(x0, x1, Tcg::Of(0, 8, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x1, x2, Tcg::Of(0, 8, unit_)).ok());
    std::uint64_t state = 0x51ed2701afe4c9b3ULL;
    TimePoint t = 1;
    for (int i = 0; i < 48; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      t += static_cast<TimePoint>((state >> 33) % 2);
      events_.push_back(
          Event{static_cast<EventTypeId>((state >> 13) % kTypeCount), t});
    }
    problem_.structure = &s_;
    problem_.reference_type = 0;
    problem_.min_confidence = 0.05;
    problem_.allowed.assign(3, {});
    problem_.allowed[1] = {0, 1, 2, 3, 4, 5};
    problem_.allowed[2] = {0, 1, 2, 3, 4, 5};
  }

  OnlineMinerOptions Options(int threads) {
    OnlineMinerOptions options;
    options.executor = Pool(threads);
    options.retention = 24;  // evictions happen during the run
    return options;
  }

  OnlineMiner MakeStream(int threads) {
    Result<OnlineMiner> miner =
        OnlineMiner::Create(&toy_, problem_, Options(threads));
    EXPECT_TRUE(miner.ok()) << miner.status();
    return std::move(*miner);
  }

  // One pool per thread count, alive as long as every miner the fixture
  // makes.
  Executor* Pool(int threads) {
    std::unique_ptr<Executor>& pool = pools_[threads];
    if (pool == nullptr) pool = std::make_unique<Executor>(threads);
    return pool.get();
  }

  std::map<int, std::unique_ptr<Executor>> pools_;
  GranularitySystem toy_;
  const Granularity* unit_;
  EventStructure s_;
  std::vector<Event> events_;
  DiscoveryProblem problem_;
};

// The acceptance differential: for EVERY checkpoint boundary p, kill the
// session right after its checkpoint (discard the miner — that is what a
// crash does), restore from the file, finish the stream, and compare both
// the final report and the final checkpoint bytes against an uninterrupted
// run. At 1 and 4 threads.
TEST_F(CheckpointTest, KillAtEveryCheckpointThenRestoreIsByteIdentical) {
  for (int threads : {1, 4}) {
    // Uninterrupted reference run.
    OnlineMiner uninterrupted = MakeStream(threads);
    for (const Event& event : events_) {
      ASSERT_TRUE(uninterrupted.Ingest(event).ok());
    }
    Result<MiningReport> want_report = uninterrupted.Snapshot();
    ASSERT_TRUE(want_report.ok());
    const std::string want = FormatReport(*want_report);
    const std::vector<std::uint8_t> want_bytes =
        persist::StreamSessionCodec::Encode(uninterrupted);

    const std::string path = TempPath("kill_restore.bin");
    for (std::size_t p = 0; p <= events_.size(); ++p) {
      std::remove(path.c_str());
      {
        OnlineMiner first = MakeStream(threads);
        for (std::size_t i = 0; i < p; ++i) {
          ASSERT_TRUE(first.Ingest(events_[i]).ok());
        }
        ASSERT_TRUE(persist::SaveStreamCheckpoint(first, path).ok());
        // `first` dies here: everything after the checkpoint is lost, as in
        // a crash.
      }
      Result<OnlineMiner> restored = persist::RestoreStreamCheckpoint(
          &toy_, problem_, Options(threads), path);
      ASSERT_TRUE(restored.ok())
          << "threads=" << threads << " p=" << p << ": " << restored.status();
      for (std::size_t i = p; i < events_.size(); ++i) {
        ASSERT_TRUE(restored->Ingest(events_[i]).ok());
      }
      Result<MiningReport> got_report = restored->Snapshot();
      ASSERT_TRUE(got_report.ok());
      ASSERT_EQ(want, FormatReport(*got_report))
          << "threads=" << threads << " checkpoint at prefix " << p;
      ASSERT_EQ(want_bytes, persist::StreamSessionCodec::Encode(*restored))
          << "threads=" << threads << " checkpoint at prefix " << p;
    }
    std::remove(path.c_str());
  }
}

// Snapshots taken mid-stream after a restore must also match: restore at
// one boundary, then compare reports at every subsequent prefix against a
// fresh uninterrupted session over the same prefix.
TEST_F(CheckpointTest, RestoredSessionMatchesAtEverySubsequentPrefix) {
  const std::size_t kCheckpointAt = 17;
  const std::string path = TempPath("prefix_differential.bin");
  std::remove(path.c_str());
  {
    OnlineMiner first = MakeStream(1);
    for (std::size_t i = 0; i < kCheckpointAt; ++i) {
      ASSERT_TRUE(first.Ingest(events_[i]).ok());
    }
    ASSERT_TRUE(persist::SaveStreamCheckpoint(first, path).ok());
  }
  Result<OnlineMiner> restored =
      persist::RestoreStreamCheckpoint(&toy_, problem_, Options(1), path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  OnlineMiner fresh = MakeStream(1);
  for (std::size_t i = 0; i < kCheckpointAt; ++i) {
    ASSERT_TRUE(fresh.Ingest(events_[i]).ok());
  }
  for (std::size_t i = kCheckpointAt; i < events_.size(); ++i) {
    ASSERT_TRUE(restored->Ingest(events_[i]).ok());
    ASSERT_TRUE(fresh.Ingest(events_[i]).ok());
    Result<MiningReport> got = restored->Snapshot();
    Result<MiningReport> want = fresh.Snapshot();
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(FormatReport(*want), FormatReport(*got)) << "prefix " << i + 1;
  }
  std::remove(path.c_str());
}

// Checkpoint bytes are canonical: the same session state encodes to the
// same bytes regardless of thread count (unordered frontier sets are
// serialized in sorted order).
TEST_F(CheckpointTest, CheckpointBytesAreThreadCountInvariant) {
  std::vector<std::uint8_t> serial_bytes;
  for (int threads : {1, 4}) {
    OnlineMiner miner = MakeStream(threads);
    for (const Event& event : events_) {
      ASSERT_TRUE(miner.Ingest(event).ok());
    }
    std::vector<std::uint8_t> bytes =
        persist::StreamSessionCodec::Encode(miner);
    if (threads == 1) {
      serial_bytes = std::move(bytes);
    } else {
      EXPECT_EQ(serial_bytes, bytes);
    }
  }
}

TEST_F(CheckpointTest, RestoreRefusesMismatchedSessionGeometry) {
  const std::string path = TempPath("geometry.bin");
  std::remove(path.c_str());
  {
    OnlineMiner miner = MakeStream(1);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(miner.Ingest(events_[static_cast<std::size_t>(i)]).ok());
    }
    ASSERT_TRUE(persist::SaveStreamCheckpoint(miner, path).ok());
  }
  // Same problem, different tolerance: the fingerprint must refuse.
  OnlineMinerOptions skewed = Options(1);
  skewed.tolerance = 5;
  Result<OnlineMiner> mismatch =
      persist::RestoreStreamCheckpoint(&toy_, problem_, skewed, path);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument)
      << mismatch.status();

  // A snapshot that is valid but carries no stream session is also refused.
  const std::string plain = TempPath("plain_snapshot.bin");
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(plain);
    ASSERT_TRUE(sink.ok());
    SnapshotWriter writer(sink->get());
    ASSERT_TRUE(writer.WriteHeader().ok());
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE((*sink)->Commit().ok());
  }
  Result<OnlineMiner> missing =
      persist::RestoreStreamCheckpoint(&toy_, problem_, Options(1), plain);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  std::remove(plain.c_str());
}

#if GRANMINE_OBS_ENABLED
// An engine snapshot restore and a stream session resume are different
// events and count on different counters: a dashboard on session resumes
// must not fire on an engine start.
TEST_F(CheckpointTest, SnapshotAndCheckpointRestoresCountSeparately) {
  const std::string checkpoint = TempPath("counted_checkpoint.bin");
  const std::string snapshot = TempPath("counted_snapshot.bin");
  {
    OnlineMiner miner = MakeStream(1);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(miner.Ingest(events_[static_cast<std::size_t>(i)]).ok());
    }
    ASSERT_TRUE(persist::SaveStreamCheckpoint(miner, checkpoint).ok());
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(snapshot);
    ASSERT_TRUE(sink.ok());
    SnapshotWriter writer(sink->get());
    ASSERT_TRUE(writer.WriteHeader().ok());
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE((*sink)->Commit().ok());
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.set_enabled(false);
  registry.Reset();
  registry.set_enabled(true);
  auto count = [&](const char* name) -> std::uint64_t {
    const auto metrics = registry.Snapshot();
    const obs::MetricValue* metric = metrics.Find(name);
    return metric == nullptr ? 0 : metric->value;
  };

  auto system = std::make_unique<GranularitySystem>();
  system->AddUniform("unit", 1);
  ASSERT_TRUE(Engine::FromSnapshot(std::move(system), snapshot).ok());
  EXPECT_EQ(count("granmine_persist_snapshot_restores_total"), 1u);
  EXPECT_EQ(count("granmine_persist_restores_total"), 0u);

  ASSERT_TRUE(
      persist::RestoreStreamCheckpoint(&toy_, problem_, Options(1), checkpoint)
          .ok());
  EXPECT_EQ(count("granmine_persist_snapshot_restores_total"), 1u);
  EXPECT_EQ(count("granmine_persist_restores_total"), 1u);
  registry.set_enabled(false);
  std::remove(checkpoint.c_str());
  std::remove(snapshot.c_str());
}
#endif  // GRANMINE_OBS_ENABLED

}  // namespace
}  // namespace granmine

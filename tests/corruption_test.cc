// Hostile-input suite: CapsuleBox open, codec decode and manifest parsing
// must turn truncated / bit-flipped / crafted archives into clean Status
// errors — never a crash, out-of-bounds access or unbounded allocation.
//
// The "21 production configs" matrix: 7 engine variants (full, the five
// §6.3 ablations, and the no-query-cache variant) x 3 codecs. Every config
// compresses a real block and then survives exhaustive truncation plus a
// deterministic spray of bit flips.
//
// The *Reproducer tests at the bottom pin defects this harness found in the
// pre-hardening decoder (each crashed or over-allocated before the fix).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/capsule/capsule.h"
#include "src/capsule/capsule_box.h"
#include "src/codec/codec.h"
#include "src/common/bloom.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/parser/template_miner.h"
#include "src/pattern/runtime_pattern.h"
#include "src/query/line_match.h"
#include "src/query/query_parser.h"
#include "src/store/fs_util.h"
#include "src/store/log_archive.h"
#include "src/store/verify.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace loggrep {
namespace {

struct Config {
  std::string label;
  EngineOptions options;
};

// 7 engine variants x 3 codecs = 21 production configurations.
std::vector<Config> ProductionConfigs() {
  struct Variant {
    const char* label;
    void (*apply)(EngineOptions*);
  };
  const std::vector<Variant> variants = {
      {"full", [](EngineOptions*) {}},
      {"wo-real", [](EngineOptions* o) { o->use_real = false; }},
      {"wo-nomi", [](EngineOptions* o) { o->use_nominal = false; }},
      {"wo-stamp", [](EngineOptions* o) { o->use_stamps = false; }},
      {"wo-fixed", [](EngineOptions* o) { o->use_fixed = false; }},
      {"static-only", [](EngineOptions* o) { o->static_only = true; }},
      {"wo-cache", [](EngineOptions* o) { o->use_cache = false; }},
  };
  const std::vector<const Codec*> codecs = {&GetXzCodec(), &GetGzipCodec(),
                                            &GetZstdCodec()};
  std::vector<Config> configs;
  for (const Variant& variant : variants) {
    for (const Codec* codec : codecs) {
      Config config;
      config.label = std::string(variant.label) + "/" + codec->name();
      variant.apply(&config.options);
      config.options.codec = codec;
      configs.push_back(std::move(config));
    }
  }
  EXPECT_EQ(configs.size(), 21u);
  return configs;
}

std::string SampleBlock(uint64_t seed) {
  DatasetSpec spec = AllDatasets()[seed % AllDatasets().size()];
  spec.seed = seed | 1;
  return LogGenerator(spec).GenerateLines(80);
}

// Opening must not crash; if it succeeds despite the damage (possible when
// the flipped byte lands in compressed payload the query never touches),
// querying must still fail cleanly or return without crashing.
void ExpectGracefulOpen(const std::string& bytes, const std::string& label) {
  Result<CapsuleBox> box = CapsuleBox::Open(bytes);
  if (!box.ok()) {
    return;  // clean rejection — the expected outcome
  }
  LogGrepEngine engine;
  auto result = engine.Query(bytes, "error or 503");
  (void)result;  // either outcome is fine; the bar is "no crash / no UB"
  SUCCEED() << label;
}

TEST(CorruptionTest, TruncatedBoxesRejectCleanly_All21Configs) {
  const std::string text = SampleBlock(3);
  for (const Config& config : ProductionConfigs()) {
    LogGrepEngine engine(config.options);
    const std::string box = engine.CompressBlock(text);
    ASSERT_FALSE(box.empty()) << config.label;
    // Exhaustive near the header, sampled through the payload.
    for (size_t cut = 0; cut < box.size();
         cut += (cut < 64 ? 1 : 1 + box.size() / 97)) {
      ExpectGracefulOpen(box.substr(0, cut), config.label + " cut=" +
                                                 std::to_string(cut));
    }
  }
}

TEST(CorruptionTest, BitFlippedBoxesNeverCrash_All21Configs) {
  const std::string text = SampleBlock(4);
  for (const Config& config : ProductionConfigs()) {
    LogGrepEngine engine(config.options);
    const std::string box = engine.CompressBlock(text);
    Rng rng(0xC0FFEEull ^ std::hash<std::string>{}(config.label));
    for (int trial = 0; trial < 200; ++trial) {
      std::string damaged = box;
      const size_t pos = rng.NextBelow(damaged.size());
      damaged[pos] =
          static_cast<char>(damaged[pos] ^ (1u << rng.NextBelow(8)));
      ExpectGracefulOpen(damaged, config.label + " pos=" +
                                      std::to_string(pos));
    }
  }
}

TEST(CorruptionTest, MultiByteCorruptionNeverCrashes) {
  const std::string text = SampleBlock(5);
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(text);
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::string damaged = box;
    const int flips = 1 + static_cast<int>(rng.NextBelow(16));
    for (int f = 0; f < flips; ++f) {
      damaged[rng.NextBelow(damaged.size())] =
          static_cast<char>(rng.NextU64());
    }
    ExpectGracefulOpen(damaged, "trial=" + std::to_string(trial));
  }
}

TEST(CorruptionTest, ManifestTruncationAndBitFlipsRejectCleanly) {
  // Build a real manifest through the archive, then damage it directly via
  // the exposed parser (what Open consumes).
  const std::string dir = ::testing::TempDir() + "corruption-manifest";
  std::filesystem::remove_all(dir);
  auto archive = LogArchive::Create(dir);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock(SampleBlock(6)).ok());
  ASSERT_TRUE(archive->AppendBlock(SampleBlock(7)).ok());

  std::string manifest;
  {
    std::ifstream in(dir + "/archive.manifest", std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    manifest = ss.str();
  }
  ASSERT_TRUE(ParseManifestBytes(manifest).ok());

  for (size_t cut = 0; cut < manifest.size(); ++cut) {
    auto parsed = ParseManifestBytes(manifest.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << cut << " accepted";
  }
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::string damaged = manifest;
    damaged[rng.NextBelow(damaged.size())] ^=
        static_cast<char>(1u << rng.NextBelow(8));
    auto parsed = ParseManifestBytes(damaged);
    (void)parsed;  // ok or error, but no crash / no unbounded allocation
  }
  // Trailing garbage is corruption, not silently ignored bytes.
  EXPECT_FALSE(ParseManifestBytes(manifest + "x").ok());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Reproducers for defects found by this harness in the pre-hardening code.
// Each of these crashed (std::out_of_range / OOB / throw) or attempted a
// multi-GB allocation before the corresponding fix.
// ---------------------------------------------------------------------------

// Defect 1: Capsule::PaddedCell used std::string_view::substr(begin, width)
// with an unchecked begin, throwing std::out_of_range when a corrupt group
// declared more rows than the decompressed blob holds.
TEST(CorruptionReproducerTest, PaddedCellRowBeyondBlobIsEmptyNotThrow) {
  const std::string blob = "aaaabbbb";  // 2 rows of width 4
  EXPECT_EQ(PaddedCell(blob, 4, 1), "bbbb");
  EXPECT_EQ(PaddedCell(blob, 4, 2), std::string_view());    // 1 past end
  EXPECT_EQ(PaddedCell(blob, 4, 1000000), std::string_view());
  EXPECT_EQ(PaddedCell(blob, 0, 0), std::string_view());    // zero width
}

// Defect 2: the capsule directory bounds check computed offset + length in
// uint64, which wraps: offset=2^64-1, length=2 passed `offset + length <=
// payload.size()` and indexed far out of bounds.
TEST(CorruptionReproducerTest, DirectoryOffsetOverflowRejected) {
  // Craft a minimal box by hand: empty meta except for one directory entry
  // whose (offset + length) wraps uint64.
  ByteWriter mw;
  mw.PutU8(GetXzCodec().id());  // codec_id
  mw.PutU8(1);                  // padded
  mw.PutVarint(0);              // total_lines
  mw.PutVarint(0);              // templates
  mw.PutVarint(0);              // groups
  mw.PutU32(kNoCapsule);        // outlier capsule
  mw.PutVarint(0);              // outlier line numbers
  mw.PutVarint(1);              // directory entries
  mw.PutVarint(std::numeric_limits<uint64_t>::max());  // offset (wraps)
  mw.PutVarint(2);              // length

  ByteWriter box;
  box.PutU32(0x4243474Cu);  // "LGCB"
  box.PutU8(1);             // version
  box.PutLengthPrefixed(mw.data());
  box.PutBytes("xx");  // 2-byte payload: offset+length == 1 <= 2 if wrapped
  auto opened = CapsuleBox::Open(box.data());
  EXPECT_FALSE(opened.ok());
}

// Defect 3: a hostile varint element count reached vector::reserve before
// any byte of actual data was read, allocating tens of GB from a 20-byte
// input. Reserves are now clamped so memory stays input-bounded.
TEST(CorruptionReproducerTest, HostileVarintCountDoesNotPreallocate) {
  ByteWriter w;
  w.PutVarint(std::numeric_limits<uint64_t>::max() / 2);  // declared count
  w.PutVarint(1);
  ByteReader r(w.data());
  // Must fail cleanly (truncated elements) without a monster allocation.
  EXPECT_FALSE(RuntimePattern::ReadFrom(r).ok());
}

// Defect 4: BloomFilter::ReadFrom accepted an arbitrary hash-function count
// k; a crafted k in the billions turned every membership query into a DoS.
TEST(CorruptionReproducerTest, BloomImplausibleHashCountRejected) {
  ByteWriter hostile;
  hostile.PutVarint(1u << 30);  // absurd k
  hostile.PutLengthPrefixed("\x01\x02\x03\x04\x05\x06\x07\x08");
  ByteReader r(hostile.data());
  EXPECT_FALSE(BloomFilter::ReadFrom(r).ok());
}

// Defect 5: RuntimePattern subvar ordinals were trusted; MatchValue indexed
// out[element.subvar] on a pattern whose ordinal exceeded its subvar count,
// writing out of bounds. WellFormed() now rejects such patterns (enforced
// at CapsuleBox::Open) and MatchValue guards the index.
TEST(CorruptionReproducerTest, MalformedSubvarOrdinalsRejected) {
  const RuntimePattern oob({{true, "", 7}});  // 1 subvar, ordinal 7
  EXPECT_FALSE(oob.WellFormed());
  EXPECT_FALSE(oob.MatchValue("anything").has_value());
  // Duplicate ordinals are equally malformed.
  const RuntimePattern dup({{true, "", 0}, {false, "-", 0}, {true, "", 0}});
  EXPECT_FALSE(dup.WellFormed());
  // Adjacent subvars violate the matcher's invariant.
  const RuntimePattern adj({{true, "", 0}, {true, "", 1}});
  EXPECT_FALSE(adj.WellFormed());
  // A well-formed pattern stays accepted.
  const RuntimePattern good({{false, "block_", 0}, {true, "", 0}});
  EXPECT_TRUE(good.WellFormed());
}

// Defect 7 (found by the fuzz_parser differential target, minimal shrunk
// reproducer "\x00" "0\n\xff"): the padded Capsule layout pads cells with
// '\0', and TrimCell cuts a reconstructed value at the first pad byte — so
// any line whose *content* contained a NUL round-tripped lossily (the line
// came back truncated or empty). Such lines are now routed to the raw
// outlier list, which stores them '\n'-delimited and byte-exact.
TEST(CorruptionReproducerTest, NulBytesInLinesRoundTripExactly) {
  const std::vector<std::string> cases = {
      std::string("\x00" "0\n\xff", 4),        // the shrunk fuzz input
      std::string("a\x00" "b\nplain line\n", 13),
      std::string("\x00\x00\x00\n", 4),
      std::string("key:val\x00" "ue status:7\n", 20),
  };
  for (const std::string& text : cases) {
    LogGrepEngine engine;
    const std::string box = engine.CompressBlock(text);
    auto lines = ReconstructAllLines(box);
    ASSERT_TRUE(lines.ok()) << lines.status().ToString();
    const std::vector<std::string_view> expected = SplitLines(text);
    ASSERT_EQ(lines->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*lines)[i], expected[i]) << "line " << i;
    }
  }
}

// Defect 6: SweepUnreferencedBlocks parsed block filenames with std::stoul,
// which throws on out-of-range digits — a single hostile filename in the
// archive directory (e.g. block-99999999999999999999.lgc) crashed Open.
TEST(CorruptionReproducerTest, HostileBlockFilenameDoesNotCrashOpen) {
  const std::string dir = ::testing::TempDir() + "corruption-filename";
  std::filesystem::remove_all(dir);
  auto archive = LogArchive::Create(dir);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock(SampleBlock(8)).ok());
  {
    std::ofstream evil(dir + "/block-99999999999999999999.lgc",
                       std::ios::binary);
    evil << "junk";
  }
  auto reopened = LogArchive::Open(dir);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->blocks().size(), 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Degraded queries under at-rest corruption: every damage shape from the
// suites above, driven through the *query* path instead of raw decode. The
// contract: the query never returns an error status and never crashes — it
// quarantines the sick block, reports the hole, serves exact hits from every
// healthy block, and `repair` tombstones the damage / reinstates a restored
// file.
// ---------------------------------------------------------------------------

std::string LongestAlnumRun(const std::string& line) {
  std::string best, cur;
  for (char c : line) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    } else {
      if (cur.size() > best.size()) best = cur;
      cur.clear();
    }
  }
  if (cur.size() > best.size()) best = cur;
  return best;
}

TEST(DegradedQueryTest, EveryCorruptionShapeQuarantinesAndReportsTheHole) {
  struct Shape {
    const char* label;
    void (*damage)(const std::string& path, const std::string& original);
  };
  const Shape shapes[] = {
      {"empty-file",
       [](const std::string& path, const std::string&) {
         std::ofstream(path, std::ios::binary | std::ios::trunc);
       }},
      {"truncated-to-8-bytes",
       [](const std::string& path, const std::string& original) {
         std::ofstream out(path, std::ios::binary | std::ios::trunc);
         out << original.substr(0, 8);
       }},
      {"garbage-bytes",
       [](const std::string& path, const std::string& original) {
         std::ofstream out(path, std::ios::binary | std::ios::trunc);
         out << std::string(original.size(), 'X');
       }},
      {"corrupt-header",
       [](const std::string& path, const std::string& original) {
         std::string bytes = original;
         for (size_t i = 0; i < 8 && i < bytes.size(); ++i) {
           bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
         }
         std::ofstream out(path, std::ios::binary | std::ios::trunc);
         out << bytes;
       }},
      {"missing-file",
       [](const std::string& path, const std::string&) {
         std::filesystem::remove(path);
       }},
  };

  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.label);
    const std::string dir =
        ::testing::TempDir() + "degraded-" + shape.label;
    std::filesystem::remove_all(dir);

    // Three blocks; block 1 will be damaged.
    std::vector<std::string> texts;
    std::vector<std::vector<std::string>> lines(3);
    {
      auto setup = LogArchive::Create(dir);
      ASSERT_TRUE(setup.ok());
      for (uint64_t b = 0; b < 3; ++b) {
        texts.push_back(SampleBlock(31 * (b + 1)));
        for (std::string_view line : SplitLines(texts.back())) {
          lines[b].emplace_back(line);
        }
        ASSERT_TRUE(setup->AppendBlock(texts.back()).ok());
      }
    }
    const std::string sick_path = dir + "/block-1.lgc";
    auto original = ReadFileBytes(sick_path);
    ASSERT_TRUE(original.ok());
    shape.damage(sick_path, *original);

    // A keyword anchored in the sick block: pruning cannot excuse it, so the
    // query must confront the damage.
    const std::string anchor = LongestAlnumRun(lines[1].front());
    ASSERT_GE(anchor.size(), 2u);
    auto parsed = ParseQuery(anchor);
    ASSERT_TRUE(parsed.ok());

    ArchiveOptions opts;
    // Cold reads: nothing masks the damage.
    opts.engine.box_cache_budget_bytes = 0;
    // missing-file kills Open's interior check before any query can run, so
    // that shape opens with the file intact and loses it afterwards.
    const bool deferred = std::string(shape.label) == "missing-file";
    if (deferred) {
      ASSERT_TRUE(WriteFileBytes(sick_path, *original).ok());
    }
    auto archive = LogArchive::Open(dir, opts);
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    if (deferred) {
      std::filesystem::remove(sick_path);
    }

    auto result = archive->Query(anchor);
    ASSERT_TRUE(result.ok())
        << "degraded queries must not fail: " << result.status().ToString();
    ASSERT_TRUE(result->partial.partial()) << "damage went unnoticed";
    ASSERT_EQ(result->partial.failures.size(), 1u);
    EXPECT_EQ(result->partial.failures[0].seq, 1u);
    EXPECT_TRUE(result->partial.failures[0].newly_quarantined);
    EXPECT_EQ(result->partial.lines_missing(), lines[1].size());
    EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine.json"));

    // Hits from healthy blocks are exact (reference: LineMatchesQuery over
    // the raw lines of blocks 0 and 2).
    std::vector<std::pair<uint64_t, std::string>> expected;
    uint64_t global = 0;
    for (size_t b = 0; b < 3; ++b) {
      for (const std::string& line : lines[b]) {
        if (b != 1 && LineMatchesQuery(line, **parsed)) {
          expected.emplace_back(global, line);
        }
        ++global;
      }
    }
    auto actual = result->hits;
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "hit " << i;
    }

    // Repair: the damaged bytes cannot verify -> tombstoned; the restored
    // original does -> reinstated, and the archive serves full results.
    RepairReport tomb = RepairArchive(dir);
    ASSERT_TRUE(tomb.ok()) << tomb.Summary();
    EXPECT_EQ(tomb.tombstoned, 1u) << tomb.Summary();
    ASSERT_TRUE(WriteFileAtomic(sick_path, *original).ok());
    RepairReport heal = RepairArchive(dir);
    ASSERT_TRUE(heal.ok()) << heal.Summary();
    EXPECT_EQ(heal.reinstated, 1u) << heal.Summary();

    ASSERT_TRUE(archive->ReloadQuarantine().ok());
    auto healed = archive->Query(anchor);
    ASSERT_TRUE(healed.ok());
    EXPECT_FALSE(healed->partial.partial()) << healed->partial.Render();
    size_t full_hits = 0;
    for (size_t b = 0; b < 3; ++b) {
      for (const std::string& line : lines[b]) {
        full_hits += LineMatchesQuery(line, **parsed) ? 1 : 0;
      }
    }
    EXPECT_EQ(healed->hits.size(), full_hits);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace loggrep

// Seed-corpus generator: writes real archives, boxes, codec blobs and
// manifests into fuzz/corpus/<target>/ so every fuzz target starts from
// structurally valid inputs (coverage deep inside the decoders) instead of
// spending its budget rediscovering magic bytes.
//
//   make_corpus <corpus-root>
//
// Deterministic: re-running produces identical files (content-hash names),
// so the committed corpus stays stable.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/core/engine.h"
#include "src/store/archive_set.h"
#include "src/store/fs_util.h"
#include "src/store/log_archive.h"
#include "src/store/quarantine.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace {

namespace fs = std::filesystem;
using namespace loggrep;

void WriteSeed(const std::string& dir, const std::string& bytes) {
  fs::create_directories(dir);
  char name[64];
  std::snprintf(name, sizeof(name), "seed-%016llx",
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string SampleText(uint64_t seed, size_t lines) {
  DatasetSpec spec = AllDatasets()[seed % AllDatasets().size()];
  spec.seed = seed | 1;
  return LogGenerator(spec).GenerateLines(lines);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <corpus-root>\n");
    return 2;
  }
  const std::string root = argv[1];

  // --- codec: container blobs from all three codecs, varied content -------
  {
    const std::string dir = root + "/codec";
    const std::vector<std::string> payloads = {
        "", "x", std::string(512, '\0'), SampleText(1, 20),
        std::string("abababababababab")};
    for (const Codec* codec :
         {&GetXzCodec(), &GetGzipCodec(), &GetZstdCodec()}) {
      for (const std::string& payload : payloads) {
        WriteSeed(dir, codec->Compress(payload));
      }
    }
  }

  // --- bitstream: compressed payloads minus the container header ----------
  {
    const std::string dir = root + "/bitstream";
    for (uint64_t s = 1; s <= 3; ++s) {
      const std::string blob = GetXzCodec().Compress(SampleText(s, 30));
      WriteSeed(dir, blob.substr(std::min<size_t>(blob.size(), 3)));
    }
    WriteSeed(dir, std::string("\x05\x01\x02\x03\x04\x05hello", 11));
  }

  // --- parser: raw log text in several dataset shapes ---------------------
  {
    const std::string dir = root + "/parser";
    for (uint64_t s = 1; s <= 4; ++s) {
      WriteSeed(dir, SampleText(s * 7, 25));
    }
    WriteSeed(dir, "no structure here\nat all\n\n");
    WriteSeed(dir, std::string("\x00\x01\x02 binary-ish line\n", 21));
  }

  // --- capsule_box: serialized boxes from several engine configs ----------
  {
    const std::string dir = root + "/capsule_box";
    const std::string text = SampleText(11, 40);
    {
      LogGrepEngine full;
      WriteSeed(dir, full.CompressBlock(text));
    }
    {
      EngineOptions o;
      o.static_only = true;
      LogGrepEngine sp(o);
      WriteSeed(dir, sp.CompressBlock(text));
    }
    {
      EngineOptions o;
      o.use_fixed = false;
      o.codec = &GetGzipCodec();
      LogGrepEngine unpadded(o);
      WriteSeed(dir, unpadded.CompressBlock(text));
    }
    {
      LogGrepEngine full;
      WriteSeed(dir, full.CompressBlock(""));  // empty block
    }
  }

  // --- manifest: real multi-block archive manifests -----------------------
  {
    const std::string dir = root + "/manifest";
    const std::string scratch =
        (fs::temp_directory_path() / "loggrep-make-corpus").string();
    fs::remove_all(scratch);
    auto archive = LogArchive::Create(scratch);
    if (!archive.ok()) {
      std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
      return 1;
    }
    for (uint64_t b = 0; b < 3; ++b) {
      if (Status s = archive->AppendBlock(SampleText(b + 21, 30)); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      auto manifest = ReadFileBytes(scratch + "/archive.manifest");
      if (manifest.ok()) {
        WriteSeed(dir, *manifest);  // 1-, 2- and 3-block manifests
      }
    }
    fs::remove_all(scratch);

    // set_manifest.json as the current writer emits it (version 2), the
    // pre-compaction version-1 shape, and a quarantine sidecar whose error
    // text carries a control byte the writer escapes as \u00XX.
    std::vector<ShardInfo> shards(2);
    shards[0].id = 0;
    shards[0].tenant = "acme";
    shards[0].dir_name = "shard-000000-acme";
    shards[0].lines = 30;
    shards[0].sealed = true;
    shards[0].min_ts_ns = 1'750'000'000'000'000'001ull;
    shards[0].max_ts_ns = 1'750'000'000'000'000'003ull;
    shards[1].id = 1;
    shards[1].tenant = "beta";
    shards[1].dir_name = "shard-000001-beta";
    shards[1].line_base = ArchiveSet::kShardLineSpan;
    ArchiveSet::SetManifestHeader header;
    header.window_span_ns = 3'600'000'000'000ull;
    header.next_shard_id = 2;
    header.next_line_base = 2 * ArchiveSet::kShardLineSpan;
    header.generation = 3;
    WriteSeed(dir, ArchiveSet::SerializeSetManifest(header, shards));
    WriteSeed(dir,
              "{\"version\":1,\"window_span_ns\":\"0\",\"next_shard_id\":\"1\","
              "\"next_line_base\":\"1099511627776\",\"shards\":[{\"id\":\"0\","
              "\"tenant\":\"acme\",\"dir\":\"shard-000000-acme\","
              "\"line_base\":\"0\",\"lines\":\"12\",\"sealed\":false,"
              "\"expired\":false}]}\n");
    QuarantineSet quarantine;
    quarantine.Add(
        {2, "IO_ERROR", "read failed:\x01 \"EIO\"\n", false, 1754000000});
    quarantine.Add({5, "CORRUPT_DATA", "bad checksum", true, 0});
    WriteSeed(dir, SerializeQuarantineJson(quarantine));
  }

  // --- http: request/response/json bytes behind the 1-byte chunk selector
  // fuzz_http consumes (first byte picks the drip-feed size). ---------------
  {
    const std::string dir = root + "/http";
    auto with_chunk = [](char chunk, std::string msg) {
      return std::string(1, chunk) + std::move(msg);
    };
    WriteSeed(dir, with_chunk(3, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
    WriteSeed(dir,
              with_chunk(1,
                         "POST /query?archive=arch&degrade=0 HTTP/1.1\r\n"
                         "Host: x\r\nContent-Length: 5\r\n\r\nERROR"));
    WriteSeed(dir,
              with_chunk(7,
                         "GET /metrics HTTP/1.1\r\n\r\n"
                         "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
    WriteSeed(dir,
              with_chunk(2,
                         "HTTP/1.1 206 Partial Content\r\n"
                         "content-type: application/json\r\n"
                         "retry-after: 1\r\ncontent-length: 2\r\n\r\n{}"));
    WriteSeed(dir,
              with_chunk(5,
                         "{\"complete\":false,\"hits\":[[1,\"a\"],[9,\"b\"]],"
                         "\"stats\":{\"cache_hits\":2,\"blocks_from_cache\":1},"
                         "\"partial\":{\"lines_missing\":120}}"));
    WriteSeed(dir, with_chunk(4, "BOGUS \x01 HTTP/9.9\r\nX:\r\n\r\n"));
  }

  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}

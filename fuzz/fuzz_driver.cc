#include "fuzz/fuzz_driver.h"

#ifndef LOGGREP_FUZZ_LIBFUZZER

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"

namespace {

namespace fs = std::filesystem;

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void RunOne(const std::string& input) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                         input.size());
}

// Dumps `input` before running it, removes the dump afterwards: if the
// target crashes the process, the reproducer survives on disk.
void RunOneWithCrashDump(const std::string& input) {
  const uint64_t h = loggrep::Fnv1a64(input);
  char name[64];
  std::snprintf(name, sizeof(name), "crash-%016llx",
                static_cast<unsigned long long>(h));
  {
    std::ofstream out(name, std::ios::binary);
    out.write(input.data(), static_cast<std::streamsize>(input.size()));
  }
  RunOne(input);
  fs::remove(name);
}

// One mutation step. Mirrors the classic libFuzzer mutators that matter for
// length-prefixed binary formats: bit flips, byte sets, truncation, block
// deletion, duplication, splicing with another corpus entry, and small
// varint-ish integer edits.
std::string Mutate(loggrep::Rng& rng, const std::vector<std::string>& corpus,
                   size_t max_len) {
  std::string input = corpus[rng.NextBelow(corpus.size())];
  const int rounds = 1 + static_cast<int>(rng.NextBelow(8));
  for (int i = 0; i < rounds; ++i) {
    switch (rng.NextBelow(8)) {
      case 0:  // flip one bit
        if (!input.empty()) {
          input[rng.NextBelow(input.size())] ^=
              static_cast<char>(1u << rng.NextBelow(8));
        }
        break;
      case 1:  // overwrite one byte
        if (!input.empty()) {
          input[rng.NextBelow(input.size())] =
              static_cast<char>(rng.NextU64());
        }
        break;
      case 2:  // truncate
        if (!input.empty()) {
          input.resize(rng.NextBelow(input.size()));
        }
        break;
      case 3: {  // delete a block
        if (input.size() >= 2) {
          const size_t begin = rng.NextBelow(input.size());
          const size_t len = 1 + rng.NextBelow(input.size() - begin);
          input.erase(begin, len);
        }
        break;
      }
      case 4: {  // duplicate a block
        if (!input.empty()) {
          const size_t begin = rng.NextBelow(input.size());
          const size_t len =
              1 + rng.NextBelow(std::min<size_t>(input.size() - begin, 64));
          input.insert(rng.NextBelow(input.size() + 1),
                       input.substr(begin, len));
        }
        break;
      }
      case 5: {  // splice with another corpus entry
        const std::string& other = corpus[rng.NextBelow(corpus.size())];
        if (!other.empty()) {
          const size_t cut = rng.NextBelow(input.size() + 1);
          input = input.substr(0, cut) +
                  other.substr(rng.NextBelow(other.size()));
        }
        break;
      }
      case 6: {  // insert random bytes
        std::string noise;
        const size_t len = 1 + rng.NextBelow(16);
        for (size_t b = 0; b < len; ++b) {
          noise += static_cast<char>(rng.NextU64());
        }
        input.insert(rng.NextBelow(input.size() + 1), noise);
        break;
      }
      default: {  // write an interesting integer (varint boundary values)
        static const uint64_t kInteresting[] = {
            0, 1, 127, 128, 255, 256, 0x3FFF, 0x4000, 0xFFFF, 0xFFFFFFFFull,
            0x7FFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull};
        const uint64_t v = kInteresting[rng.NextBelow(12)];
        if (input.size() >= 8) {
          std::memcpy(&input[rng.NextBelow(input.size() - 7)], &v, 8);
        }
        break;
      }
    }
  }
  if (input.size() > max_len) {
    input.resize(max_len);
  }
  return input;
}

}  // namespace

int LoggrepFuzzMain(int argc, char** argv) {
  std::vector<std::string> corpus;
  double seconds = 0;
  uint64_t runs = 0;
  uint64_t seed = 1;
  size_t max_len = 1 << 20;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "-seconds") {
      seconds = std::atof(next());
    } else if (arg == "-runs") {
      runs = std::strtoull(next(), nullptr, 10);
    } else if (arg == "-seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "-max_len") {
      max_len = std::strtoull(next(), nullptr, 10);
    } else if (fs::is_directory(arg)) {
      for (const auto& entry : fs::directory_iterator(arg)) {
        if (entry.is_regular_file()) {
          corpus.push_back(ReadWhole(entry.path().string()));
        }
      }
    } else if (fs::is_regular_file(arg)) {
      corpus.push_back(ReadWhole(arg));
    } else {
      // A misspelled or renamed corpus must fail loudly, not replay nothing.
      std::fprintf(stderr, "fuzz: no such input %s\n", arg.c_str());
      return 2;
    }
  }
  if (corpus.empty()) {
    corpus.push_back(std::string());  // always have a seed to mutate
  }

  // Phase 1: corpus replay (every committed reproducer re-runs).
  for (const std::string& input : corpus) {
    RunOneWithCrashDump(input);
  }
  std::fprintf(stderr, "fuzz: replayed %zu corpus inputs\n", corpus.size());

  // Phase 2: bounded mutation loop.
  if (seconds <= 0 && runs == 0) {
    return 0;
  }
  loggrep::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  uint64_t executed = 0;
  while ((runs == 0 || executed < runs) &&
         (seconds <= 0 || std::chrono::steady_clock::now() < deadline)) {
    RunOneWithCrashDump(Mutate(rng, corpus, max_len));
    ++executed;
  }
  std::fprintf(stderr, "fuzz: %llu mutated runs, 0 crashes\n",
               static_cast<unsigned long long>(executed));
  return 0;
}

int main(int argc, char** argv) { return LoggrepFuzzMain(argc, argv); }

#endif  // LOGGREP_FUZZ_LIBFUZZER

#include "perfbench/src/corpus.h"

#include <algorithm>
#include <unordered_map>

#include "src/parser/tokenizer.h"
#include "src/query/line_match.h"
#include "src/query/query_parser.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace perfbench {
namespace {

// One generator call fixes some structure for all the text it makes (the
// shared prefix of hex ids, the clock and sequence starts), so a single call
// per dataset would make the work of a whole run hinge on a few random draws
// and move it by 20% from seed to seed. Text is therefore generated in
// segments of this size, each from its own generator seed.
constexpr size_t kSegmentBytes = 128u << 10;

}  // namespace

const std::vector<std::string>& CorpusDatasets() {
  static const auto* kNames = new std::vector<std::string>{
      "Log A", "Log B", "Log D", "Log G", "Log R", "Log U"};
  return *kNames;
}

uint64_t Fnv64(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string GenerateText(std::string_view dataset, uint64_t seed, size_t bytes) {
  const loggrep::DatasetSpec* found = loggrep::FindDataset(dataset);
  if (found == nullptr) {
    return std::string();
  }
  loggrep::DatasetSpec spec = *found;
  std::string text;
  for (uint64_t segment = 0; text.size() < bytes; ++segment) {
    spec.seed = Fnv64(dataset, (seed + segment * 0xD1B54A32D192ED03ull) * 0x9E3779B97F4A7C15ull + 1);
    text += loggrep::LogGenerator(spec).Generate(std::min(kSegmentBytes, bytes - text.size()));
  }
  return text;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      nl = text.size();
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

namespace {

bool LooksLikeId(std::string_view token) {
  if (token.size() < 8 || token.size() > 40) {
    return false;
  }
  bool digit = false;
  bool alpha = false;
  for (const char c : token) {
    if (c >= '0' && c <= '9') {
      digit = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
      alpha = true;
    } else {
      return false;
    }
  }
  return digit && alpha;
}

constexpr uint32_t kMaxIdLines = 4;

}  // namespace

IdIndex::IdIndex(const std::vector<std::string_view>& lines, size_t pool_size) {
  // Pass 1: candidate tokens in order of first appearance, with counts.
  struct Seen {
    uint32_t count = 0;
    uint32_t order = 0;
  };
  std::unordered_map<std::string_view, Seen> seen;
  std::vector<std::string_view> order;
  loggrep::TokenizedLine scratch;
  for (const std::string_view line : lines) {
    loggrep::TokenizeLineInto(line, &scratch);
    for (const std::string_view token : scratch.tokens) {
      if (!LooksLikeId(token)) {
        continue;
      }
      auto [it, inserted] = seen.try_emplace(token);
      if (inserted) {
        it->second.order = static_cast<uint32_t>(order.size());
        order.push_back(token);
      }
      ++it->second.count;
    }
  }
  std::vector<std::string_view> candidates;
  for (const std::string_view token : order) {
    if (seen[token].count <= kMaxIdLines) {
      candidates.push_back(token);
    }
  }
  const size_t n = std::min(pool_size, candidates.size());
  for (size_t i = 0; i < n; ++i) {
    pool_.emplace_back(candidates[i * candidates.size() / n]);
  }
  lines_.resize(pool_.size());

  // Pass 2: every line with a token containing a pool id (substring match
  // inside the token, at every offset and pool-id length).
  std::unordered_map<std::string_view, uint32_t> by_text;
  std::vector<size_t> lengths;
  for (uint32_t i = 0; i < pool_.size(); ++i) {
    by_text.emplace(pool_[i], i);
    lengths.push_back(pool_[i].size());
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  for (uint32_t li = 0; li < lines.size(); ++li) {
    loggrep::TokenizeLineInto(lines[li], &scratch);
    for (const std::string_view token : scratch.tokens) {
      for (const size_t len : lengths) {
        for (size_t off = 0; off + len <= token.size(); ++off) {
          const auto it = by_text.find(token.substr(off, len));
          if (it == by_text.end()) {
            continue;
          }
          std::vector<uint32_t>& hits = lines_[it->second];
          if (hits.empty() || hits.back() != li) {
            hits.push_back(li);
          }
        }
      }
    }
  }
}

std::vector<uint32_t> ReferenceLines(const std::vector<std::string_view>& lines,
                                     std::string_view command) {
  std::vector<uint32_t> hits;
  auto expr = loggrep::ParseQuery(command);
  if (!expr.ok()) {
    return hits;
  }
  loggrep::LineMatcher matcher;
  for (uint32_t i = 0; i < lines.size(); ++i) {
    if (matcher.MatchesQuery(lines[i], **expr)) {
      hits.push_back(i);
    }
  }
  return hits;
}

std::vector<uint32_t> UnionSorted(const std::vector<uint32_t>& a,
                                  const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace perfbench

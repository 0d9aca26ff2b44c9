#include "src/workload/diff_oracle.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <optional>
#include <utility>

#include "src/core/engine.h"
#include "src/core/session.h"
#include "src/store/archive_set.h"
#include "src/store/fs_util.h"
#include "src/parser/template_miner.h"  // SplitLines
#include "src/parser/tokenizer.h"
#include "src/query/explain.h"
#include "src/query/line_match.h"
#include "src/query/query_parser.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool IsOperatorWord(std::string_view token) {
  const std::string low = Lower(token);
  return low == "and" || low == "or" || low == "not";
}

// Samples one keyword token from a random reference line; never returns an
// empty, quoted or wildcard-carrying token.
std::string SampleToken(Rng& rng, const std::vector<std::string>& lines) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::string& line = lines[rng.NextBelow(lines.size())];
    std::vector<std::string_view> tokens = TokenizeKeywords(line);
    if (tokens.empty()) {
      continue;
    }
    std::string token(tokens[rng.NextBelow(tokens.size())]);
    token.erase(std::remove_if(token.begin(), token.end(),
                               [](char c) {
                                 return c == '"' || c == '*' || c == '?';
                               }),
                token.end());
    if (token.empty()) {
      continue;
    }
    return token;
  }
  return "ERROR";
}

// Quotes tokens that would otherwise parse as operators.
std::string AsSearchWord(std::string token) {
  if (IsOperatorWord(token)) {
    return "\"" + token + "\"";
  }
  return token;
}

std::string WithWildcard(Rng& rng, std::string token) {
  switch (rng.NextBelow(3)) {
    case 0:  // prefix match
      return token.substr(0, 1 + rng.NextBelow(token.size())) + "*";
    case 1:  // suffix match
      return "*" + token.substr(rng.NextBelow(token.size()));
    default: {  // single-char hole
      token[rng.NextBelow(token.size())] = '?';
      return token;
    }
  }
}

// Random content absent from the corpus (a guaranteed miss).
std::string MissWord(Rng& rng) {
  std::string miss = "zqxv";
  for (int i = 0; i < 8; ++i) {
    miss += static_cast<char>('a' + rng.NextBelow(26));
  }
  return miss;
}

// One seeded random query command over the reference lines. Covers single
// keywords, keyword fragments, wildcards, multi-word search strings, AND /
// OR / NOT combinations (disjunctions with one or both branches absent, so
// block pruning sees both outcomes), a leading NOT, quoted operator words,
// and guaranteed misses.
std::string RandomCommand(Rng& rng, const std::vector<std::string>& lines) {
  const std::string a = SampleToken(rng, lines);
  const std::string b = SampleToken(rng, lines);
  switch (rng.NextBelow(11)) {
    case 0:
      return AsSearchWord(a);
    case 1: {  // substring fragment of a token
      const size_t begin = rng.NextBelow(a.size());
      const size_t len = 1 + rng.NextBelow(a.size() - begin);
      return AsSearchWord(a.substr(begin, len));
    }
    case 2:
      return WithWildcard(rng, a);
    case 3:
      return AsSearchWord(a) + " and " + AsSearchWord(b);
    case 4:
      return AsSearchWord(a) + " or " + AsSearchWord(b);
    case 5:  // grammar: NOT is the binary "left AND NOT right"
      return AsSearchWord(a) + " not " + AsSearchWord(b);
    case 6:  // multi-word search string (one term, several keywords)
      return AsSearchWord(a) + " " + AsSearchWord(b);
    case 7:  // disjunction with one branch absent from the corpus
      return AsSearchWord(a) + " or " + MissWord(rng);
    case 8:  // disjunction with both branches absent
      return MissWord(rng) + " or " + MissWord(rng);
    case 9:  // leading NOT negates against all entries
      return "not " + AsSearchWord(a);
    default:  // guaranteed miss
      return MissWord(rng);
  }
}

// Reference evaluation: plain grep over the in-memory lines.
QueryHits ReferenceHits(const std::vector<std::string>& lines,
                        const QueryExpr& expr) {
  QueryHits hits;
  LineMatcher matcher;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (matcher.MatchesQuery(lines[i], expr)) {
      hits.emplace_back(static_cast<uint64_t>(i), lines[i]);
    }
  }
  return hits;
}

// Hit-for-hit comparison; nullopt when equal, else a first-divergence
// description. `got` is sorted by line number first (a parallel Query merges
// per-block slices whose concatenation is already ordered, but the oracle
// must not depend on that).
std::optional<std::string> DiffHits(const QueryHits& expected,
                                    QueryHits got) {
  std::sort(got.begin(), got.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  if (expected.size() != got.size()) {
    std::string detail = "hit count: expected " +
                         std::to_string(expected.size()) + ", got " +
                         std::to_string(got.size());
    for (size_t i = 0; i < std::max(expected.size(), got.size()); ++i) {
      const bool have_e = i < expected.size();
      const bool have_g = i < got.size();
      if (!have_e || !have_g || expected[i] != got[i]) {
        detail += "; first divergence at rank " + std::to_string(i);
        if (have_e) {
          detail += "; expected line " + std::to_string(expected[i].first) +
                    " \"" + expected[i].second + "\"";
        }
        if (have_g) {
          detail += "; got line " + std::to_string(got[i].first) + " \"" +
                    got[i].second + "\"";
        }
        break;
      }
    }
    return detail;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != got[i]) {
      return "rank " + std::to_string(i) + ": expected line " +
             std::to_string(expected[i].first) + " \"" + expected[i].second +
             "\", got line " + std::to_string(got[i].first) + " \"" +
             got[i].second + "\"";
    }
  }
  return std::nullopt;
}

// The largest prefix command that the full command strictly refines by an
// appended "and <term>" clause, or empty when there is none (QuerySession's
// refinement fast path only triggers for that shape).
std::string RefinementPrefix(const std::string& command) {
  if (command.find('"') != std::string::npos) {
    return {};  // quoted operators make textual splitting unsafe
  }
  const std::string low = Lower(command);
  const size_t pos = low.rfind(" and ");
  if (pos == std::string::npos || pos == 0) {
    return {};
  }
  return command.substr(0, pos);
}

struct DatasetFixture {
  std::string name;
  std::string dir;                        // archive directory on disk
  std::vector<std::string> lines;         // reference: all committed lines
  std::vector<std::string> block_texts;   // committed blocks, in order
  std::vector<std::string> commands;
};

}  // namespace

const char* OracleModeName(OracleMode mode) {
  switch (mode) {
    case OracleMode::kColdEngine:
      return "cold";
    case OracleMode::kWarmCache:
      return "warm";
    case OracleMode::kSession:
      return "session";
    case OracleMode::kParallel:
      return "parallel";
    case OracleMode::kPostRecovery:
      return "post-recovery";
  }
  return "unknown";
}

std::vector<OracleMode> AllOracleModes() {
  return {OracleMode::kColdEngine, OracleMode::kWarmCache,
          OracleMode::kSession, OracleMode::kParallel,
          OracleMode::kPostRecovery};
}

std::string OracleReport::Summary() const {
  std::string out = "seed " + std::to_string(seed) + ": " +
                    std::to_string(datasets_run) + " datasets, " +
                    std::to_string(commands_run) + " commands, " +
                    std::to_string(checks_run) + " checks, " +
                    std::to_string(mismatches.size()) + " mismatches";
  if (!fatal.ok()) {
    out += ", FATAL: " + fatal.ToString();
  }
  for (const OracleMismatch& m : mismatches) {
    out += "\n  [" + m.mode + "] " + m.dataset + " :: \"" + m.command +
           "\" :: " + m.detail;
  }
  return out;
}

OracleReport RunDifferentialOracle(const OracleOptions& options) {
  OracleReport report;
  report.seed = options.seed;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);

  const std::string scratch_root =
      options.scratch_dir.empty()
          ? std::filesystem::temp_directory_path().string()
          : options.scratch_dir;

  const std::vector<DatasetSpec>& catalog = AllDatasets();
  const auto wants_mode = [&](OracleMode m) {
    return std::find(options.modes.begin(), options.modes.end(), m) !=
           options.modes.end();
  };
  const bool want_recovery = wants_mode(OracleMode::kPostRecovery);
  QueryOptions parallel;
  parallel.threads = options.parallel_threads;

  for (size_t d = 0; d < options.num_datasets; ++d) {
    // --- Build the workload for one sampled dataset. ---
    DatasetSpec spec = catalog[rng.NextBelow(catalog.size())];
    DatasetFixture fx;
    fx.name = spec.name;
    fx.dir = scratch_root + "/loggrep-oracle-" + std::to_string(options.seed) +
             "-" + std::to_string(d);
    std::error_code ec;
    std::filesystem::remove_all(fx.dir, ec);

    for (size_t b = 0; b < options.blocks_per_archive; ++b) {
      spec.seed = rng.NextU64() | 1;
      const LogGenerator gen(spec);
      fx.block_texts.push_back(gen.GenerateLines(options.lines_per_block));
      for (std::string_view line : SplitLines(fx.block_texts.back())) {
        fx.lines.emplace_back(line);
      }
    }

    Result<LogArchive> archive = LogArchive::Create(fx.dir, options.archive);
    if (!archive.ok()) {
      report.fatal = archive.status();
      return report;
    }
    for (const std::string& text : fx.block_texts) {
      if (Status s = archive->AppendBlock(text); !s.ok()) {
        report.fatal = s;
        return report;
      }
    }

    // Post-recovery fixture: one extra block whose commit dies mid-protocol
    // at a seed-chosen kill point; reopening must recover exactly the
    // committed prefix (and the reference is the committed prefix).
    std::optional<LogArchive> recovered;
    if (want_recovery) {
      spec.seed = rng.NextU64() | 1;
      const std::string doomed =
          LogGenerator(spec).GenerateLines(options.lines_per_block);
      const CommitKillPoint kill_at = static_cast<CommitKillPoint>(
          rng.NextBelow(3));  // rotates across the three protocol steps
      BlockInfo info =
          BuildBlockSummary(doomed, options.archive.bloom_bits_per_shingle);
      const std::string box =
          LogGrepEngine(options.archive.engine).CompressBlock(doomed);
      const Status aborted = archive->CommitCompressedBlock(
          box, std::move(info),
          [kill_at](CommitKillPoint p) { return p == kill_at; });
      if (aborted.ok()) {
        report.fatal = Internal("oracle: injected commit abort did not fire");
        return report;
      }
      Result<LogArchive> reopened = LogArchive::Open(fx.dir, options.archive);
      if (!reopened.ok()) {
        report.fatal = reopened.status();
        return report;
      }
      if (reopened->blocks().size() != options.blocks_per_archive) {
        report.fatal = Internal(
            "oracle: recovery kept " +
            std::to_string(reopened->blocks().size()) + " blocks, expected " +
            std::to_string(options.blocks_per_archive));
        return report;
      }
      recovered.emplace(std::move(*reopened));
    }

    // --- Command list: the dataset's own suite plus seeded random ones. ---
    for (std::string& q : QuerySuiteForDataset(fx.name)) {
      fx.commands.push_back(std::move(q));
    }
    for (size_t i = 0; i < options.random_queries; ++i) {
      fx.commands.push_back(RandomCommand(rng, fx.lines));
    }

    // Session fixture: per-block CapsuleBoxes recompressed deterministically
    // with the same engine options (QuerySession operates on one box).
    LogGrepEngine session_engine(options.archive.engine);
    std::vector<std::string> session_boxes;
    std::vector<uint64_t> block_first_line;
    if (wants_mode(OracleMode::kSession)) {
      uint64_t first = 0;
      for (const std::string& text : fx.block_texts) {
        session_boxes.push_back(session_engine.CompressBlock(text));
        block_first_line.push_back(first);
        first += SplitLines(text).size();
      }
    }

    ++report.datasets_run;

    const auto note = [&](OracleMode mode, const std::string& command,
                          const std::string& detail) {
      report.mismatches.push_back(
          {fx.name, command, OracleModeName(mode), detail});
    };

    for (const std::string& command : fx.commands) {
      Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
      if (!expr.ok()) {
        report.fatal = Status(expr.status().code(),
                              "oracle: generated command \"" + command +
                                  "\" failed to parse: " +
                                  expr.status().ToString());
        return report;
      }
      const QueryHits expected = ReferenceHits(fx.lines, **expr);
      ++report.commands_run;

      for (OracleMode mode : options.modes) {
        Result<ArchiveQueryResult> got = [&]() -> Result<ArchiveQueryResult> {
          switch (mode) {
            case OracleMode::kColdEngine: {
              Result<LogArchive> cold =
                  LogArchive::Open(fx.dir, options.archive);
              if (!cold.ok()) {
                return cold.status();
              }
              return cold->Query(command);
            }
            case OracleMode::kWarmCache: {
              // First pass warms the shared BoxCache + command cache; the
              // compared result is the warm one.
              Result<ArchiveQueryResult> warmup = archive->Query(command);
              if (!warmup.ok()) {
                return warmup.status();
              }
              return archive->Query(command);
            }
            case OracleMode::kParallel:
              return archive->Query(command, parallel);
            case OracleMode::kPostRecovery:
              return recovered->Query(command);
            case OracleMode::kSession: {
              ArchiveQueryResult merged;
              for (size_t b = 0; b < session_boxes.size(); ++b) {
                QuerySession session(&session_engine, session_boxes[b]);
                const std::string prefix = RefinementPrefix(command);
                if (!prefix.empty()) {
                  // Prime the refinement fast path with the base command.
                  Result<SessionQueryResult> base = session.Query(prefix);
                  if (!base.ok()) {
                    return base.status();
                  }
                }
                Result<SessionQueryResult> r = session.Query(command);
                if (!r.ok()) {
                  return r.status();
                }
                for (auto& [line, text] : r->hits) {
                  merged.hits.emplace_back(block_first_line[b] + line,
                                           std::move(text));
                }
              }
              return merged;
            }
          }
          return Internal("oracle: unknown mode");
        }();
        ++report.checks_run;
        if (!got.ok()) {
          note(mode, command, "query failed: " + got.status().ToString());
          continue;
        }
        if (auto diff = DiffHits(expected, std::move(got->hits))) {
          note(mode, command, *diff);
        }
      }

      if (options.check_explain) {
        ++report.checks_run;
        QueryExplain explain;
        Result<ArchiveQueryResult> got = archive->Query(command, {}, &explain);
        if (!got.ok()) {
          report.mismatches.push_back(
              {fx.name, command, "explain",
               "explain failed: " + got.status().ToString()});
        } else {
          if (auto diff = DiffHits(expected, std::move(got->hits))) {
            report.mismatches.push_back(
                {fx.name, command, "explain", *diff});
          }
          std::string detail;
          if (!explain.CheckInvariant(&detail)) {
            report.mismatches.push_back(
                {fx.name, command, "explain",
                 "accounting invariant violated: " + detail});
          }
        }
      }
    }

    std::filesystem::remove_all(fx.dir, ec);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Federation oracle
// ---------------------------------------------------------------------------

namespace {

// One reference line of the federated corpus, tagged with enough context to
// re-derive the shard-granular predicate semantics from first principles.
struct FedRefLine {
  uint64_t global_line = 0;
  uint64_t shard_id = 0;
  size_t tenant = 0;
  std::string text;
};

// Fixture-side shard model, built from append receipts + event timestamps —
// independent of the manifest the system persists.
struct FedShardModel {
  size_t tenant = 0;
  uint64_t min_ts_ns = UINT64_MAX;
  uint64_t max_ts_ns = 0;
  bool sealed = false;  // derived: not the tenant's last-created shard
};

struct FedCommand {
  std::string command;
  SetQueryPredicate pred;
};

// Re-derivation of ArchiveSet's pruning contract: tenant pruning is exact
// (a shard holds one tenant); time pruning may skip a *sealed* shard whose
// event range misses the predicate; the active (unsealed) shard is always
// visited. A visited shard contributes all of its matching lines — the
// predicate is shard-granular, not line-granular.
bool FedShardVisited(const FedShardModel& shard,
                     const std::vector<std::string>& tenants,
                     const SetQueryPredicate& pred) {
  if (pred.tenant.has_value() && *pred.tenant != tenants[shard.tenant]) {
    return false;
  }
  if (pred.constrains_time() && shard.sealed) {
    if (shard.max_ts_ns < pred.from_ns || shard.min_ts_ns > pred.to_ns) {
      return false;
    }
  }
  return true;
}

QueryHits FedExpectedHits(const std::vector<FedRefLine>& lines,
                          const std::map<uint64_t, FedShardModel>& shards,
                          const std::vector<std::string>& tenants,
                          const QueryExpr& expr, const SetQueryPredicate& pred) {
  QueryHits hits;
  LineMatcher matcher;
  for (const FedRefLine& line : lines) {
    if (!FedShardVisited(shards.at(line.shard_id), tenants, pred)) {
      continue;
    }
    if (matcher.MatchesQuery(line.text, expr)) {
      hits.emplace_back(line.global_line, line.text);
    }
  }
  return hits;
}

// Hits with global lines inside [first, first + count) removed — the exact
// hole a lost block leaves.
QueryHits FedWithoutRange(const QueryHits& hits, uint64_t first,
                          uint64_t count) {
  QueryHits out;
  for (const auto& hit : hits) {
    if (hit.first >= first && hit.first < first + count) {
      continue;
    }
    out.push_back(hit);
  }
  return out;
}

// Text-sequence comparison for the monolith cross-check (line numbers are
// intentionally different between the sparse federated space and the
// contiguous monolith).
std::optional<std::string> DiffHitTexts(const QueryHits& expected,
                                        QueryHits got) {
  std::sort(got.begin(), got.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  if (expected.size() != got.size()) {
    return "hit count: federation " + std::to_string(expected.size()) +
           ", monolith " + std::to_string(got.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].second != got[i].second) {
      return "rank " + std::to_string(i) + ": federation \"" +
             expected[i].second + "\", monolith \"" + got[i].second + "\"";
    }
  }
  return std::nullopt;
}

}  // namespace

const char* FederationModeName(FederationMode mode) {
  switch (mode) {
    case FederationMode::kCold:
      return "fed-cold";
    case FederationMode::kWarm:
      return "fed-warm";
    case FederationMode::kParallel:
      return "fed-parallel";
    case FederationMode::kPostRepair:
      return "fed-post-repair";
  }
  return "fed-unknown";
}

std::vector<FederationMode> AllFederationModes() {
  return {FederationMode::kCold, FederationMode::kWarm,
          FederationMode::kParallel, FederationMode::kPostRepair};
}

OracleReport RunFederationOracle(const FederationOracleOptions& options) {
  OracleReport report;
  report.seed = options.seed;
  Rng rng(options.seed * 0xA24BAED4963EE407ULL + 0x9FB21C651E98DF25ULL);
  QueryOptions parallel;
  parallel.threads = options.parallel_threads;

  const std::string scratch_root =
      options.scratch_dir.empty()
          ? std::filesystem::temp_directory_path().string()
          : options.scratch_dir;
  const std::string root = scratch_root + "/loggrep-fedoracle-" +
                           std::to_string(options.seed);
  const std::string monolith_dir = root + "-mono";
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  std::filesystem::remove_all(monolith_dir, ec);
  const auto cleanup = [&] {
    std::error_code rm_ec;
    std::filesystem::remove_all(root, rm_ec);
    std::filesystem::remove_all(monolith_dir, rm_ec);
  };

  // One hour windows; a 2025-era epoch base, deliberately past 2^53 so the
  // manifest's string-encoded u64 timestamps are load-bearing. The base must
  // sit on an aligned window boundary (WindowStartFor floors to multiples of
  // the span) or each oracle window would straddle two real shards.
  constexpr uint64_t kSpanNs = 3'600'000'000'000ull;
  constexpr uint64_t kBaseNs = 486'112ull * kSpanNs;  // ~1.75e18 ns

  // Tenant names include directory-unsafe bytes: sanitization is under test.
  static const char* kTenantPool[] = {"edge",     "acme web",  "payments-01",
                                      "iot/devices", "Search&Rescue",
                                      "tenant_06"};
  std::vector<std::string> tenants;
  for (size_t t = 0; t < options.num_tenants && t < 6; ++t) {
    tenants.emplace_back(kTenantPool[t]);
  }

  ArchiveSetOptions set_options;
  set_options.archive = options.archive;
  set_options.window_span_ns = kSpanNs;
  set_options.max_shard_bytes = 0;  // shards == (tenant, window), exactly

  Result<std::unique_ptr<ArchiveSet>> created =
      ArchiveSet::Create(root, set_options);
  if (!created.ok()) {
    report.fatal = created.status();
    return report;
  }
  std::unique_ptr<ArchiveSet> set = std::move(*created);
  Result<LogArchive> monolith =
      LogArchive::Create(monolith_dir, options.archive);
  if (!monolith.ok()) {
    report.fatal = monolith.status();
    return report;
  }

  const std::vector<DatasetSpec>& catalog = AllDatasets();
  std::vector<DatasetSpec> tenant_spec;
  for (size_t t = 0; t < tenants.size(); ++t) {
    tenant_spec.push_back(catalog[rng.NextBelow(catalog.size())]);
  }

  // --- Ingest: windows outer, tenants inner, so shard creation interleaves
  // tenants and global line bases interleave with them. ---
  std::vector<FedRefLine> ref_lines;
  std::map<uint64_t, FedShardModel> shard_model;
  std::map<size_t, uint64_t> last_shard_of_tenant;
  struct AppendRec {
    uint64_t shard_id = 0;
    uint64_t seq_in_shard = 0;
    uint64_t first_global_line = 0;
    uint64_t line_count = 0;
  };
  std::vector<AppendRec> appends;
  std::map<uint64_t, uint64_t> blocks_in_shard;
  std::vector<std::string> all_lines;

  for (size_t w = 0; w < options.num_windows; ++w) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      for (size_t b = 0; b < options.blocks_per_window; ++b) {
        tenant_spec[t].seed = rng.NextU64() | 1;
        const std::string text =
            LogGenerator(tenant_spec[t]).GenerateLines(options.lines_per_block);
        const uint64_t ts = kBaseNs + w * kSpanNs + rng.NextBelow(kSpanNs);
        Result<AppendReceipt> receipt = set->Append(tenants[t], text, ts);
        if (!receipt.ok()) {
          report.fatal = receipt.status();
          cleanup();
          return report;
        }
        if (Status s = monolith->AppendBlock(text); !s.ok()) {
          report.fatal = s;
          cleanup();
          return report;
        }
        const std::vector<std::string_view> lines = SplitLines(text);
        if (receipt->lines != lines.size()) {
          report.fatal = Internal(
              "federation oracle: receipt reported " +
              std::to_string(receipt->lines) + " lines, text has " +
              std::to_string(lines.size()));
          cleanup();
          return report;
        }
        for (size_t i = 0; i < lines.size(); ++i) {
          FedRefLine line;
          line.global_line = receipt->first_global_line + i;
          line.shard_id = receipt->shard_id;
          line.tenant = t;
          line.text = std::string(lines[i]);
          all_lines.push_back(line.text);
          ref_lines.push_back(std::move(line));
        }
        FedShardModel& model = shard_model[receipt->shard_id];
        model.tenant = t;
        model.min_ts_ns = std::min(model.min_ts_ns, ts);
        model.max_ts_ns = std::max(model.max_ts_ns, ts);
        appends.push_back({receipt->shard_id,
                           blocks_in_shard[receipt->shard_id]++,
                           receipt->first_global_line, lines.size()});
        last_shard_of_tenant[t] = receipt->shard_id;
      }
    }
  }
  for (auto& [id, model] : shard_model) {
    model.sealed = (id != last_shard_of_tenant[model.tenant]);
  }
  if (shard_model.size() != tenants.size() * options.num_windows) {
    report.fatal = Internal("federation oracle: expected " +
                            std::to_string(tenants.size() *
                                           options.num_windows) +
                            " shards, routing produced " +
                            std::to_string(shard_model.size()));
    cleanup();
    return report;
  }
  report.datasets_run = 1;

  // --- Seeded (command, predicate) pairs. The first pair is forced
  // predicate-free so monolith coverage never degenerates. ---
  std::vector<FedCommand> commands;
  for (size_t i = 0; i < options.random_queries; ++i) {
    FedCommand cmd;
    cmd.command = RandomCommand(rng, all_lines);
    if (i > 0 && rng.NextDouble() < options.tenant_predicate_p) {
      cmd.pred.tenant = tenants[rng.NextBelow(tenants.size())];
    }
    if (i > 0 && rng.NextDouble() < options.time_predicate_p) {
      const uint64_t w1 = rng.NextBelow(options.num_windows);
      const uint64_t w2 = w1 + rng.NextBelow(options.num_windows - w1);
      cmd.pred.from_ns = kBaseNs + w1 * kSpanNs;
      cmd.pred.to_ns = kBaseNs + (w2 + 1) * kSpanNs - 1;
    }
    commands.push_back(std::move(cmd));
  }

  const auto wants_mode = [&](FederationMode m) {
    return std::find(options.modes.begin(), options.modes.end(), m) !=
           options.modes.end();
  };
  const auto note = [&](const char* mode, const FedCommand& cmd,
                        std::string detail) {
    std::string label = cmd.command;
    if (cmd.pred.tenant.has_value()) {
      label += " [tenant=" + *cmd.pred.tenant + "]";
    }
    if (cmd.pred.constrains_time()) {
      label += " [from=" + std::to_string(cmd.pred.from_ns) +
               " to=" + std::to_string(cmd.pred.to_ns) + "]";
    }
    report.mismatches.push_back(
        {"federation", std::move(label), mode, std::move(detail)});
  };
  // Shared result sanity beyond hits: shard accounting must balance and an
  // uncorrupted set must answer completely.
  const auto check_result = [&](const char* mode, const FedCommand& cmd,
                                const SetQueryResult& r, bool expect_complete) {
    if (r.shards_pruned + r.shards_visited != r.shards_total) {
      note(mode, cmd,
           "shard accounting: " + std::to_string(r.shards_pruned) +
               " pruned + " + std::to_string(r.shards_visited) +
               " visited != " + std::to_string(r.shards_total) + " total");
    }
    if (expect_complete && !r.complete()) {
      note(mode, cmd, "unexpected degraded result: " + r.RenderPartial());
    }
  };

  for (const FedCommand& cmd : commands) {
    Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(cmd.command);
    if (!expr.ok()) {
      report.fatal = Status(expr.status().code(),
                            "federation oracle: generated command \"" +
                                cmd.command + "\" failed to parse: " +
                                expr.status().ToString());
      cleanup();
      return report;
    }
    const QueryHits expected =
        FedExpectedHits(ref_lines, shard_model, tenants, **expr, cmd.pred);
    ++report.commands_run;

    if (wants_mode(FederationMode::kCold)) {
      ++report.checks_run;
      Result<std::unique_ptr<ArchiveSet>> cold =
          ArchiveSet::Open(root, set_options);
      Result<SetQueryResult> got =
          cold.ok() ? (*cold)->Query(cmd.command, cmd.pred) : cold.status();
      if (!got.ok()) {
        note("fed-cold", cmd, "query failed: " + got.status().ToString());
      } else {
        check_result("fed-cold", cmd, *got, /*expect_complete=*/true);
        if (auto diff = DiffHits(expected, std::move(got->hits))) {
          note("fed-cold", cmd, *diff);
        }
      }
    }
    if (wants_mode(FederationMode::kWarm)) {
      ++report.checks_run;
      Result<SetQueryResult> warmup = set->Query(cmd.command, cmd.pred);
      Result<SetQueryResult> got =
          warmup.ok() ? set->Query(cmd.command, cmd.pred) : warmup.status();
      if (!got.ok()) {
        note("fed-warm", cmd, "query failed: " + got.status().ToString());
      } else {
        check_result("fed-warm", cmd, *got, /*expect_complete=*/true);
        if (auto diff = DiffHits(expected, std::move(got->hits))) {
          note("fed-warm", cmd, *diff);
        }
      }
    }
    if (wants_mode(FederationMode::kParallel)) {
      ++report.checks_run;
      Result<SetQueryResult> got =
          set->Query(cmd.command, cmd.pred, parallel);
      if (!got.ok()) {
        note("fed-parallel", cmd, "query failed: " + got.status().ToString());
      } else {
        check_result("fed-parallel", cmd, *got, /*expect_complete=*/true);
        if (auto diff = DiffHits(expected, std::move(got->hits))) {
          note("fed-parallel", cmd, *diff);
        }
      }
    }
    if (options.check_explain) {
      ++report.checks_run;
      SetExplain explain;
      Result<SetQueryResult> got =
          set->Query(cmd.command, cmd.pred, {}, &explain);
      if (!got.ok()) {
        note("fed-explain", cmd, "explain failed: " + got.status().ToString());
      } else {
        check_result("fed-explain", cmd, *got, /*expect_complete=*/true);
        if (auto diff = DiffHits(expected, std::move(got->hits))) {
          note("fed-explain", cmd, *diff);
        }
        std::string detail;
        if (!explain.CheckInvariant(&detail)) {
          note("fed-explain", cmd,
               "accounting invariant violated: " + detail);
        }
      }
    }
    if (options.check_monolith && !cmd.pred.tenant.has_value() &&
        !cmd.pred.constrains_time()) {
      ++report.checks_run;
      Result<ArchiveQueryResult> mono = monolith->Query(cmd.command);
      if (!mono.ok()) {
        note("fed-monolith", cmd,
             "monolith query failed: " + mono.status().ToString());
      } else if (auto diff = DiffHitTexts(expected, std::move(mono->hits))) {
        note("fed-monolith", cmd, *diff);
      }
      // Stat-for-stat, cold vs cold: identical blocks, identical pruning
      // filters, identical engines => the deterministic count stats agree.
      ++report.checks_run;
      Result<std::unique_ptr<ArchiveSet>> cold_set =
          ArchiveSet::Open(root, set_options);
      Result<LogArchive> cold_mono =
          LogArchive::Open(monolith_dir, options.archive);
      if (!cold_set.ok() || !cold_mono.ok()) {
        note("fed-monolith-stats", cmd, "cold reopen failed");
      } else {
        Result<SetQueryResult> fed = (*cold_set)->Query(cmd.command, {});
        Result<ArchiveQueryResult> ref = cold_mono->Query(cmd.command);
        if (!fed.ok() || !ref.ok()) {
          note("fed-monolith-stats", cmd, "cold query failed");
        } else {
          const auto stat_diff = [&](const char* name, uint64_t f,
                                     uint64_t m) {
            if (f != m) {
              note("fed-monolith-stats", cmd,
                   std::string(name) + ": federation " + std::to_string(f) +
                       ", monolith " + std::to_string(m));
            }
          };
          stat_diff("blocks_pruned", fed->blocks_pruned, ref->blocks_pruned);
          stat_diff("blocks_queried", fed->blocks_queried,
                    ref->blocks_queried);
          stat_diff("capsules_decompressed",
                    fed->locator.capsules_decompressed,
                    ref->locator.capsules_decompressed);
          stat_diff("capsules_stamp_filtered",
                    fed->locator.capsules_stamp_filtered,
                    ref->locator.capsules_stamp_filtered);
        }
      }
    }
  }

  // --- Post-repair cycle: corrupt one block of one shard on disk, expect
  // exactly the healthy lines (degraded), restore + repair, expect exact
  // convergence. Runs on a freshly opened set so caches cannot mask the
  // corruption. ---
  if (wants_mode(FederationMode::kPostRepair) && !appends.empty()) {
    const AppendRec victim = appends[rng.NextBelow(appends.size())];
    std::string victim_dir;
    for (const ShardInfo& s : set->shards()) {
      if (s.id == victim.shard_id) {
        victim_dir = s.dir_name;
        break;
      }
    }
    const std::string block_path =
        root + "/" + victim_dir + "/block-" +
        std::to_string(victim.seq_in_shard) + ".lgc";
    Result<std::string> original = ReadFileBytes(block_path);
    if (!original.ok()) {
      report.fatal = Status(original.status().code(),
                            "federation oracle: read victim block: " +
                                original.status().message());
      cleanup();
      return report;
    }
    std::string garbage = "FEDERATION-ORACLE-GARBAGE";
    while (garbage.size() < 512) {
      garbage += garbage;
    }
    if (Status s = WriteFileBytes(block_path, garbage); !s.ok()) {
      report.fatal = s;
      cleanup();
      return report;
    }

    Result<std::unique_ptr<ArchiveSet>> degraded_open =
        ArchiveSet::Open(root, set_options);
    if (!degraded_open.ok()) {
      report.fatal = degraded_open.status();
      cleanup();
      return report;
    }
    std::unique_ptr<ArchiveSet> degraded = std::move(*degraded_open);
    bool any_quarantined = false;
    for (const FedCommand& cmd : commands) {
      Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(cmd.command);
      const QueryHits full =
          FedExpectedHits(ref_lines, shard_model, tenants, **expr, cmd.pred);
      const QueryHits healthy = FedWithoutRange(full, victim.first_global_line,
                                                victim.line_count);
      ++report.checks_run;
      Result<SetQueryResult> got = degraded->Query(cmd.command, cmd.pred);
      if (!got.ok()) {
        note("fed-post-repair", cmd,
             "degraded query failed: " + got.status().ToString());
        continue;
      }
      // A complete result means the corrupted block was never read — which
      // is only legitimate when block-level pruning rejected it, i.e. the
      // block holds NO matching lines; the hits must then equal the full
      // expectation (this is exactly pruning soundness under corruption). A
      // degraded result must return the full expectation minus the corrupted
      // block's line range, nothing more and nothing less.
      if (got->complete()) {
        if (auto diff = DiffHits(full, std::move(got->hits))) {
          note("fed-post-repair", cmd,
               "complete-despite-corruption hits: " + *diff);
        }
      } else {
        any_quarantined = true;
        if (auto diff = DiffHits(healthy, std::move(got->hits))) {
          note("fed-post-repair", cmd, "degraded hits: " + *diff);
        }
      }
    }

    if (Status s = WriteFileBytes(block_path, *original); !s.ok()) {
      report.fatal = s;
      cleanup();
      return report;
    }
    SetRepairReport repaired = degraded->RepairAll();
    if (!repaired.ok() ||
        (any_quarantined && repaired.reinstated == 0)) {
      // Reinstatement is only owed when some degraded query actually read
      // the corrupted block and quarantined it.
      note("fed-post-repair", commands.front(),
           "repair did not reinstate the restored block: " +
               repaired.Summary());
    }
    for (const FedCommand& cmd : commands) {
      Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(cmd.command);
      const QueryHits full =
          FedExpectedHits(ref_lines, shard_model, tenants, **expr, cmd.pred);
      ++report.checks_run;
      Result<SetQueryResult> got = degraded->Query(cmd.command, cmd.pred);
      if (!got.ok()) {
        note("fed-post-repair", cmd,
             "post-repair query failed: " + got.status().ToString());
        continue;
      }
      if (!got->complete()) {
        note("fed-post-repair", cmd,
             "post-repair result still degraded: " + got->RenderPartial());
      }
      if (auto diff = DiffHits(full, std::move(got->hits))) {
        note("fed-post-repair", cmd, "post-repair hits: " + *diff);
      }
    }
  }

  cleanup();
  return report;
}

}  // namespace loggrep

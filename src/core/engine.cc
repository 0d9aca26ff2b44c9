#include "src/core/engine.h"

#include <algorithm>
#include <optional>

#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/query/query_parser.h"
#include "src/query/reconstructor.h"

namespace loggrep {
namespace {

inline uint64_t ElapsedNanos(const WallTimer& timer) {
  return timer.ElapsedNanos();
}

// Boolean evaluation state: one RowSet per group plus one for raw outliers.
struct Evaluation {
  std::vector<RowSet> groups;
  RowSet outliers = RowSet::None(0);
};

Evaluation EvaluateTerm(BoxQuerier& querier, const SearchTerm& term) {
  const CapsuleBoxMeta& meta = querier.box().meta();
  Evaluation ev;
  ev.groups.reserve(meta.groups.size());
  for (uint32_t g = 0; g < meta.groups.size(); ++g) {
    RowSet rows = RowSet::All(meta.groups[g].row_count);
    for (const std::string& kw : term.keywords) {
      if (rows.IsEmpty()) {
        break;
      }
      rows = rows.IntersectWith(querier.MatchKeywordInGroup(g, kw));
    }
    ev.groups.push_back(std::move(rows));
  }
  const uint32_t outlier_universe =
      static_cast<uint32_t>(meta.outlier_line_numbers.size());
  ev.outliers = RowSet::All(outlier_universe);
  for (const std::string& kw : term.keywords) {
    if (ev.outliers.IsEmpty()) {
      break;
    }
    ev.outliers = ev.outliers.IntersectWith(querier.MatchKeywordInOutliers(kw));
  }
  return ev;
}

Evaluation EvaluateAll(BoxQuerier& querier) {
  const CapsuleBoxMeta& meta = querier.box().meta();
  Evaluation ev;
  for (const GroupMeta& g : meta.groups) {
    ev.groups.push_back(RowSet::All(g.row_count));
  }
  ev.outliers =
      RowSet::All(static_cast<uint32_t>(meta.outlier_line_numbers.size()));
  return ev;
}

Evaluation EvaluateExpr(BoxQuerier& querier, const QueryExpr& expr) {
  switch (expr.kind) {
    case QueryExpr::Kind::kTerm:
      return EvaluateTerm(querier, expr.term);
    case QueryExpr::Kind::kAnd: {
      Evaluation l = EvaluateExpr(querier, *expr.left);
      const Evaluation r = EvaluateExpr(querier, *expr.right);
      for (size_t g = 0; g < l.groups.size(); ++g) {
        l.groups[g] = l.groups[g].IntersectWith(r.groups[g]);
      }
      l.outliers = l.outliers.IntersectWith(r.outliers);
      return l;
    }
    case QueryExpr::Kind::kOr: {
      Evaluation l = EvaluateExpr(querier, *expr.left);
      const Evaluation r = EvaluateExpr(querier, *expr.right);
      for (size_t g = 0; g < l.groups.size(); ++g) {
        l.groups[g] = l.groups[g].UnionWith(r.groups[g]);
      }
      l.outliers = l.outliers.UnionWith(r.outliers);
      return l;
    }
    case QueryExpr::Kind::kNot: {
      Evaluation l = expr.left != nullptr ? EvaluateExpr(querier, *expr.left)
                                          : EvaluateAll(querier);
      const Evaluation r = EvaluateExpr(querier, *expr.right);
      for (size_t g = 0; g < l.groups.size(); ++g) {
        l.groups[g] = l.groups[g].IntersectWith(r.groups[g].Complement());
      }
      l.outliers = l.outliers.IntersectWith(r.outliers.Complement());
      return l;
    }
  }
  return Evaluation{};
}

}  // namespace

LogGrepEngine::LogGrepEngine(EngineOptions options)
    : options_(options), cache_(options.query_cache_budget_bytes) {
  if (options_.codec == nullptr) {
    options_.codec = &GetXzCodec();
  }
  if (options_.use_box_cache && options_.box_cache == nullptr) {
    BoxCacheOptions copts;
    copts.byte_budget = options_.box_cache_budget_bytes;
    copts.metrics = options_.metrics;
    owned_box_cache_ = std::make_unique<BoxCache>(copts);
  }
}

BoxCache* LogGrepEngine::box_cache() const {
  if (!options_.use_box_cache) {
    return nullptr;
  }
  return options_.box_cache != nullptr ? options_.box_cache
                                       : owned_box_cache_.get();
}

std::string LogGrepEngine::CompressBlock(std::string_view text) const {
  const BlockParser parser(options_.miner);
  const ParsedBlock parsed = parser.Parse(text);

  CapsuleBoxBuilder builder(*options_.codec);
  AssemblerOptions aopts;
  aopts.use_real = options_.use_real;
  aopts.use_nominal = options_.use_nominal;
  aopts.static_only = options_.static_only;
  aopts.padded = options_.use_fixed;
  aopts.tree = options_.tree;
  const Assembler assembler(aopts, &builder);

  CapsuleBoxMeta meta;
  meta.codec_id = options_.codec->id();
  meta.padded = options_.use_fixed;
  meta.total_lines = parsed.total_lines;
  meta.templates = parsed.templates;
  for (const ParsedGroup& pg : parsed.groups) {
    GroupMeta gm;
    gm.template_id = pg.template_id;
    gm.row_count = static_cast<uint32_t>(pg.line_numbers.size());
    gm.line_numbers = pg.line_numbers;
    for (const std::vector<std::string>& vv : pg.var_vectors) {
      gm.vars.push_back(assembler.AssembleVariable(vv));
    }
    meta.groups.push_back(std::move(gm));
  }
  if (!parsed.outlier_lines.empty()) {
    std::vector<std::string_view> views(parsed.outlier_lines.begin(),
                                        parsed.outlier_lines.end());
    meta.outlier_capsule = builder.AddCapsule(BuildDelimitedBlob(views));
    meta.outlier_line_numbers = parsed.outlier_line_numbers;
  }
  return std::move(builder).Finish(meta);
}

Result<QueryResult> LogGrepEngine::Query(std::string_view box_bytes,
                                         std::string_view command,
                                         BlockExplain* explain) {
  return QueryInternal(BoxKey::FromBytes(box_bytes), box_bytes, nullptr,
                       command, explain);
}

Result<QueryResult> LogGrepEngine::QueryBox(const BoxKey& key,
                                            const BoxLoader& load,
                                            std::string_view command,
                                            BlockExplain* explain) {
  return QueryInternal(key, std::string_view(), &load, command, explain);
}

Result<QueryResult> LogGrepEngine::QueryInternal(const BoxKey& key,
                                                 std::string_view inline_bytes,
                                                 const BoxLoader* load,
                                                 std::string_view command,
                                                 BlockExplain* explain) {
  const TraceSpan query_span("engine.query", "query");
  // Cache entries are per (box identity, command): the same command against
  // another block must not serve stale hits, and the identity is a dual hash
  // plus size so a single 64-bit collision cannot alias two blocks.
  std::string command_key = key.ToString();
  command_key += '|';
  command_key += command;
  // Explained executions bypass the command cache: the decision tree must
  // describe what this run actually did.
  if (options_.use_cache && explain == nullptr) {
    if (auto cached = cache_.Lookup(command_key); cached.has_value()) {
      // A replay decodes nothing: its stage times and capsule counts stay
      // zero, and from_cache is the caller's signal that no work ran.
      QueryResult result;
      result.hits = std::move(cached->hits);
      result.from_cache = true;
      if (options_.metrics != nullptr) {
        options_.metrics->GetOrCreate("query.command_cache_hits")->Increment();
      }
      return result;
    }
  }

  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  if (!expr.ok()) {
    return expr.status();
  }

  // Open stage: through the shared cache when enabled (a warm entry skips
  // the loader — typically a file read — and the metadata parse), otherwise
  // a local zero-copy open.
  LocatorStats open_stats;
  BoxCache* shared = box_cache();
  std::shared_ptr<const OpenedBox> opened;  // pins cache entry if used
  std::string local_bytes;                  // owns bytes on the uncached path
  std::optional<CapsuleBox> local_box;
  const CapsuleBox* box = nullptr;
  {
    const TraceSpan open_span("engine.open", "query");
    const WallTimer open_timer;
    if (shared != nullptr) {
      bool was_hit = false;
      auto loader = [&]() -> Result<std::string> {
        if (load != nullptr) {
          return (*load)();
        }
        return std::string(inline_bytes);
      };
      Result<std::shared_ptr<const OpenedBox>> entry =
          shared->GetOrOpenBox(key, loader, &was_hit);
      if (!entry.ok()) {
        return entry.status();
      }
      opened = std::move(*entry);
      box = &opened->box();
      if (was_hit) {
        ++open_stats.cache_hits;
        open_stats.bytes_saved += opened->bytes().size();
      } else {
        ++open_stats.cache_misses;
      }
    } else {
      std::string_view bytes = inline_bytes;
      if (load != nullptr) {
        Result<std::string> loaded = (*load)();
        if (!loaded.ok()) {
          return loaded.status();
        }
        local_bytes = std::move(*loaded);
        bytes = local_bytes;
      }
      Result<CapsuleBox> parsed = CapsuleBox::Open(bytes);
      if (!parsed.ok()) {
        return parsed.status();
      }
      local_box.emplace(std::move(*parsed));
      box = &*local_box;
    }
    open_stats.open_nanos = ElapsedNanos(open_timer);
  }

  LocatorOptions lopts;
  lopts.use_stamps = options_.use_stamps;
  lopts.use_bm = options_.use_fixed;
  BoxQuerier querier(*box, lopts, shared, key);
  std::optional<ExplainRecorder> recorder;
  if (explain != nullptr) {
    recorder.emplace(explain);
    querier.AttachExplain(&*recorder);
  }

  const WallTimer scan_timer;
  uint64_t scan_nanos = 0;
  Evaluation ev;
  {
    const TraceSpan scan_span("engine.scan", "query");
    ev = EvaluateExpr(querier, **expr);
    scan_nanos = ElapsedNanos(scan_timer);
  }
  if (!querier.status().ok()) {
    return querier.status();
  }

  const TraceSpan reconstruct_span("engine.reconstruct", "query");
  if (recorder.has_value()) {
    // Capsules opened from here on are for rendering matched rows, not
    // matching; attribute them to a dedicated stage.
    recorder->BeginStage("reconstruct");
  }
  const WallTimer reconstruct_timer;
  Reconstructor reconstructor(&querier);
  QueryResult result;
  const CapsuleBoxMeta& meta = box->meta();
  for (uint32_t g = 0; g < ev.groups.size(); ++g) {
    for (uint32_t row : ev.groups[g].ToRows()) {
      result.hits.emplace_back(meta.groups[g].line_numbers[row], std::string());
      reconstructor.RenderRowTo(g, row, &result.hits.back().second);
    }
  }
  for (uint32_t i : ev.outliers.ToRows()) {
    result.hits.emplace_back(meta.outlier_line_numbers[i], std::string());
    reconstructor.RenderOutlierTo(i, &result.hits.back().second);
  }
  if (!querier.status().ok()) {
    return querier.status();
  }
  // Restore global block order (entries within one group are already
  // ordered; this is the cross-group merge of §3).
  std::sort(result.hits.begin(), result.hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  result.locator = querier.stats();
  result.locator.Accumulate(open_stats);
  // The scan stage is the boolean evaluation minus the decompression and
  // stamp checks it triggered (those are accounted to their own stages).
  const uint64_t charged = result.locator.decompress_nanos +
                           result.locator.stamp_filter_nanos;
  result.locator.scan_nanos = scan_nanos > charged ? scan_nanos - charged : 0;
  result.locator.reconstruct_nanos = ElapsedNanos(reconstruct_timer);

  if (explain != nullptr) {
    explain->hits = result.hits.size();
  }

  if (options_.metrics != nullptr) {
    options_.metrics->GetOrCreate("query.count")->Increment();
    options_.metrics->GetOrCreate("query.bytes_decompressed")
        ->Add(result.locator.bytes_decompressed);
    // Per-query stage latencies feed histograms (p50/p95/p99 snapshots);
    // histogram sums replace the old per-stage cumulative counters.
    options_.metrics->GetOrCreateHistogram("query.open_ns")
        ->Record(result.locator.open_nanos);
    options_.metrics->GetOrCreateHistogram("query.scan_ns")
        ->Record(result.locator.scan_nanos);
    options_.metrics->GetOrCreateHistogram("query.decompress_ns")
        ->Record(result.locator.decompress_nanos);
    options_.metrics->GetOrCreateHistogram("query.stamp_filter_ns")
        ->Record(result.locator.stamp_filter_nanos);
    options_.metrics->GetOrCreateHistogram("query.reconstruct_ns")
        ->Record(result.locator.reconstruct_nanos);
  }

  if (options_.use_cache && explain == nullptr) {
    cache_.Insert(command_key, result.hits);
  }
  return result;
}

}  // namespace loggrep

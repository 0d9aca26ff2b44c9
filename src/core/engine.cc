#include "src/core/engine.h"

#include <algorithm>
#include <optional>

#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/query/query_parser.h"
#include "src/query/reconstructor.h"

namespace loggrep {
namespace {

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
    : options_(options),
      box_cache_(std::make_unique<BoxCache>(BoxCacheOptions{
          options.box_cache_budget_bytes, /*shards=*/8, options.metrics})) {
  if (options_.codec == nullptr) {
    options_.codec = &GetXzCodec();
  }
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
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  if (!expr.ok()) {
    return expr.status();
  }
  return QueryBox(
      BoxKey::FromBytes(box_bytes),
      [box_bytes]() -> Result<std::string> { return std::string(box_bytes); },
      **expr, command, explain);
}

Result<QueryResult> LogGrepEngine::QueryBox(const BoxKey& key,
                                            const BoxLoader& load,
                                            const QueryExpr& expr,
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

  // Open stage: a warm box-cache entry skips the loader (typically a file
  // read) and the metadata parse.
  LocatorStats open_stats;
  std::shared_ptr<const OpenedBox> opened;  // pins the cache entry
  {
    const TraceSpan open_span("engine.open", "query");
    const WallTimer open_timer;
    bool was_hit = false;
    Result<std::shared_ptr<const OpenedBox>> entry =
        box_cache_->GetOrOpenBox(key, load, &was_hit);
    if (!entry.ok()) {
      return entry.status();
    }
    opened = std::move(*entry);
    if (was_hit) {
      ++open_stats.cache_hits;
      open_stats.bytes_saved += opened->bytes().size();
    } else {
      ++open_stats.cache_misses;
    }
    open_stats.open_nanos = open_timer.ElapsedNanos();
  }
  const CapsuleBox& box = opened->box();

  LocatorOptions lopts;
  lopts.use_stamps = options_.use_stamps;
  lopts.use_bm = options_.use_fixed;
  BoxQuerier querier(box, lopts, *box_cache_, key);
  std::optional<ExplainRecorder> recorder;
  if (explain != nullptr) {
    recorder.emplace(explain);
    querier.AttachExplain(&*recorder);
  }

  // Decodes and stamp checks are timed where they happen and charged to
  // their own stages; each wall window below is charged only with the
  // remainder, so the stages partition the query's time.
  auto charged = [&querier] {
    return querier.stats().decompress_nanos +
           querier.stats().stamp_filter_nanos;
  };
  auto net = [](uint64_t window, uint64_t inside) {
    return window > inside ? window - inside : 0;
  };
  const WallTimer scan_timer;
  uint64_t scan_nanos = 0;
  Evaluation ev;
  {
    const TraceSpan scan_span("engine.scan", "query");
    ev = EvaluateExpr(querier, expr);
    scan_nanos = net(scan_timer.ElapsedNanos(), charged());
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
  const uint64_t charged_before_reconstruct = charged();
  const WallTimer reconstruct_timer;
  Reconstructor reconstructor(&querier);
  QueryResult result;
  const CapsuleBoxMeta& meta = box.meta();
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

  const uint64_t reconstruct_nanos = net(
      reconstruct_timer.ElapsedNanos(), charged() - charged_before_reconstruct);
  result.locator = querier.stats();
  result.locator.Accumulate(open_stats);
  result.locator.scan_nanos = scan_nanos;
  result.locator.reconstruct_nanos = reconstruct_nanos;

  if (explain != nullptr) {
    explain->hits = result.hits.size();
  }

  if (options_.metrics != nullptr) {
    options_.metrics->GetOrCreate("query.count")->Increment();
    // The ledger rows the engine measures: stage latencies feed histograms
    // (p50/p95/p99 snapshots), counters accumulate.
    for (const LedgerRow& row : kQueryLedger) {
      if (!row.engine_metric) {
        continue;
      }
      std::string series = "query.";
      AppendLedgerKey(&series, row);
      const uint64_t value = result.locator.*row.field;
      if (row.stage) {
        options_.metrics->GetOrCreateHistogram(series)->Record(value);
      } else {
        options_.metrics->GetOrCreate(series)->Add(value);
      }
    }
  }

  if (options_.use_cache && explain == nullptr) {
    cache_.Insert(command_key, result.hits);
  }
  return result;
}

}  // namespace loggrep

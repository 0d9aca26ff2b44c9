#include "src/store/shard_router.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace loggrep {

namespace {

constexpr size_t kMaxTenantComponent = 48;

bool IsTenantSafe(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

}  // namespace

std::string SanitizeTenant(std::string_view tenant) {
  if (tenant.empty()) {
    return "default";
  }
  std::string out;
  out.reserve(tenant.size() < kMaxTenantComponent ? tenant.size()
                                                  : kMaxTenantComponent);
  for (char c : tenant) {
    if (out.size() >= kMaxTenantComponent) {
      break;
    }
    out.push_back(IsTenantSafe(c) ? c : '_');
  }
  return out;
}

std::string ShardDirName(uint64_t id, std::string_view tenant) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "shard-%06llu-",
                static_cast<unsigned long long>(id));
  return std::string(prefix) + SanitizeTenant(tenant);
}

bool LooksLikeShardDir(std::string_view name) {
  constexpr std::string_view kPrefix = "shard-";
  if (name.size() <= kPrefix.size() ||
      name.substr(0, kPrefix.size()) != kPrefix) {
    return false;
  }
  // At least one digit must follow the prefix.
  char c = name[kPrefix.size()];
  return c >= '0' && c <= '9';
}

uint64_t WindowStartFor(uint64_t ts_ns, uint64_t span_ns) {
  if (span_ns == 0) {
    return 0;
  }
  return ts_ns - ts_ns % span_ns;
}

const char* RollReasonName(RollReason reason) {
  switch (reason) {
    case RollReason::kNone:
      return "none";
    case RollReason::kNoActive:
      return "no-active-shard";
    case RollReason::kWindowMoved:
      return "window-moved";
    case RollReason::kSizeCut:
      return "size-cut";
    case RollReason::kLineSpanFull:
      return "line-span-full";
  }
  return "unknown";
}

RollReason DecideRoll(const ShardInfo* active, uint64_t ts_ns,
                      uint64_t append_lines, uint64_t span_ns,
                      uint64_t max_shard_bytes, uint64_t line_span) {
  if (active == nullptr || active->sealed || active->expired) {
    return RollReason::kNoActive;
  }
  if (span_ns != 0) {
    uint64_t window = WindowStartFor(ts_ns, span_ns);
    if (window != active->window_start_ns) {
      return RollReason::kWindowMoved;
    }
  }
  if (max_shard_bytes != 0 && active->raw_bytes >= max_shard_bytes) {
    return RollReason::kSizeCut;
  }
  if (active->lines + append_lines > line_span) {
    return RollReason::kLineSpanFull;
  }
  return RollReason::kNone;
}

std::vector<CompactionRun> PlanCompaction(
    const std::vector<ShardInfo>& shards,
    const std::set<uint64_t>& excluded_ids) {
  std::vector<CompactionRun> runs;
  // Per-tenant open run being grown. A shard extends the current run for
  // its tenant only when it is that tenant's *next* live shard in manifest
  // order; any same-tenant non-candidate in between closes the run.
  std::vector<CompactionRun> open;  // one per tenant

  auto close_run = [&](CompactionRun* o) {
    if (o->shard_ids.size() >= kMinCompactionRunShards) {
      runs.push_back(*o);
    }
    o->shard_ids.clear();
  };

  for (const ShardInfo& shard : shards) {
    if (!shard.live()) {
      continue;  // tombstones break no run: they sit between live shards
    }
    CompactionRun* o = nullptr;
    for (CompactionRun& run : open) {
      if (run.tenant == shard.tenant) {
        o = &run;
        break;
      }
    }
    if (o == nullptr) {
      open.push_back(CompactionRun{shard.tenant, {}});
      o = &open.back();
    }
    const bool candidate = shard.sealed && !shard.empty() &&
                           excluded_ids.count(shard.id) == 0;
    if (!candidate || o->shard_ids.size() >= kMaxCompactionRunShards) {
      close_run(o);
    }
    if (candidate) {
      o->shard_ids.push_back(shard.id);
    }
  }
  for (CompactionRun& o : open) {
    close_run(&o);
  }
  // close_run appends in per-tenant completion order; re-establish manifest
  // order (runs are disjoint, so ordering by first shard id's position is
  // equivalent to ordering by the run's smallest line_base).
  std::sort(runs.begin(), runs.end(),
            [&](const CompactionRun& a, const CompactionRun& b) {
              auto pos = [&](uint64_t id) {
                for (size_t i = 0; i < shards.size(); ++i) {
                  if (shards[i].id == id) {
                    return i;
                  }
                }
                return shards.size();
              };
              return pos(a.shard_ids.front()) < pos(b.shard_ids.front());
            });
  return runs;
}

std::string ShardPruneReason(const ShardInfo& shard,
                             const SetQueryPredicate& pred) {
  if (pred.tenant.has_value() && *pred.tenant != shard.tenant) {
    return "tenant '" + shard.tenant + "' != predicate tenant '" +
           *pred.tenant + "'";
  }
  if (shard.sealed && shard.empty()) {
    return "sealed empty shard";
  }
  if (pred.constrains_time() && shard.sealed && !shard.empty()) {
    // Inclusive-range overlap test against the conservative event range.
    if (shard.max_ts_ns < pred.from_ns) {
      return "ts range [" + std::to_string(shard.min_ts_ns) + "," +
             std::to_string(shard.max_ts_ns) + "] ends before from=" +
             std::to_string(pred.from_ns);
    }
    if (shard.min_ts_ns > pred.to_ns) {
      return "ts range [" + std::to_string(shard.min_ts_ns) + "," +
             std::to_string(shard.max_ts_ns) + "] starts after to=" +
             std::to_string(pred.to_ns);
    }
  }
  return "";
}

}  // namespace loggrep

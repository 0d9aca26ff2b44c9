#include "src/store/archive_set.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "src/common/json.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/query/query_parser.h"
#include "src/store/fs_util.h"

namespace loggrep {

namespace {

// Version 2 added compaction: a top-level `generation` counter plus
// per-shard `superseded_by` / `line_span`. Version-1 manifests parse with
// the pre-compaction defaults (generation 0, nothing superseded, every
// shard kShardLineSpan wide).
constexpr int kSetManifestVersion = 2;
constexpr int kOldestParsableSetManifestVersion = 1;

// u64 values (line bases, nanosecond timestamps) exceed the 2^53 exact-integer
// range of the JSON parser's double representation, so the manifest stores
// them as decimal strings.
void AppendU64Field(std::string* out, const char* key, uint64_t value,
                    bool* first) {
  if (!*first) {
    out->append(",");
  }
  *first = false;
  AppendJsonString(out, key);
  out->append(":\"");
  out->append(std::to_string(value));
  out->append("\"");
}

void AppendStrField(std::string* out, const char* key, std::string_view value,
                    bool* first) {
  if (!*first) {
    out->append(",");
  }
  *first = false;
  AppendJsonString(out, key);
  out->append(":");
  AppendJsonString(out, value);
}

void AppendBoolField(std::string* out, const char* key, bool value,
                     bool* first) {
  if (!*first) {
    out->append(",");
  }
  *first = false;
  AppendJsonString(out, key);
  out->append(value ? ":true" : ":false");
}

// Reads a u64 that may be a decimal string (current writer) or a plain
// number (tolerated for hand-edited manifests).
bool ReadU64(const JsonValue& obj, const std::string& key, uint64_t* out) {
  const JsonValue& v = obj.Get(key);
  if (v.kind() == JsonValue::Kind::kString) {
    return ParseUint64(v.AsString(), out);
  }
  if (v.kind() == JsonValue::Kind::kNumber) {
    *out = v.AsUint();
    return true;
  }
  return false;
}

uint64_t ReadU64Or(const JsonValue& obj, const std::string& key,
                   uint64_t fallback) {
  uint64_t out = fallback;
  if (!ReadU64(obj, key, &out)) {
    return fallback;
  }
  return out;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') {
    return dir + name;
  }
  return dir + "/" + name;
}

// Deleter of a shard handle. A query may still hold the handle of a shard
// that retention or compaction just retired (the scatter runs without the
// set lock); RetireShardLocked then leaves the directory to this deleter, so
// whoever drops the last reference removes it.
struct ShardHandleDeleter {
  std::string retired_dir;  // written under the set lock, with a reference held

  void operator()(LogArchive* archive) const {
    delete archive;
    if (!retired_dir.empty()) {
      RemoveTreeBestEffort(retired_dir);
    }
  }
};

std::shared_ptr<LogArchive> MakeShardHandle(LogArchive archive) {
  return std::shared_ptr<LogArchive>(new LogArchive(std::move(archive)),
                                     ShardHandleDeleter{});
}

}  // namespace

const char* SetKillPointName(SetKillPoint point) {
  switch (point) {
    case SetKillPoint::kShardCreated:
      return "shard-created";
    case SetKillPoint::kRollManifestWritten:
      return "roll-manifest-written";
    case SetKillPoint::kAppendManifestWritten:
      return "append-manifest-written";
    case SetKillPoint::kRetentionManifestWritten:
      return "retention-manifest-written";
    case SetKillPoint::kCompactStaged:
      return "compact-staged";
    case SetKillPoint::kCompactShardRenamed:
      return "compact-shard-renamed";
    case SetKillPoint::kCompactManifestWritten:
      return "compact-manifest-written";
    case SetKillPoint::kCompactSourcesRemoved:
      return "compact-sources-removed";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Manifest serialization
// ---------------------------------------------------------------------------

std::string ArchiveSet::SetManifestPath(const std::string& root) {
  return JoinPath(root, "set_manifest.json");
}

std::string ArchiveSet::SerializeSetManifest(
    const SetManifestHeader& header, const std::vector<ShardInfo>& shards) {
  std::string out = "{\"version\":" + std::to_string(kSetManifestVersion);
  bool first = false;
  AppendU64Field(&out, "window_span_ns", header.window_span_ns, &first);
  AppendU64Field(&out, "next_shard_id", header.next_shard_id, &first);
  AppendU64Field(&out, "next_line_base", header.next_line_base, &first);
  AppendU64Field(&out, "generation", header.generation, &first);
  out.append(",\"shards\":[");
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardInfo& s = shards[i];
    if (i > 0) {
      out.append(",");
    }
    out.append("{");
    bool sf = true;
    AppendU64Field(&out, "id", s.id, &sf);
    AppendStrField(&out, "tenant", s.tenant, &sf);
    AppendStrField(&out, "dir", s.dir_name, &sf);
    AppendU64Field(&out, "window_start_ns", s.window_start_ns, &sf);
    AppendU64Field(&out, "window_end_ns", s.window_end_ns, &sf);
    AppendU64Field(&out, "line_base", s.line_base, &sf);
    AppendU64Field(&out, "lines", s.lines, &sf);
    AppendU64Field(&out, "raw_bytes", s.raw_bytes, &sf);
    AppendU64Field(&out, "stored_bytes", s.stored_bytes, &sf);
    AppendU64Field(&out, "min_ts_ns", s.min_ts_ns, &sf);
    AppendU64Field(&out, "max_ts_ns", s.max_ts_ns, &sf);
    AppendBoolField(&out, "sealed", s.sealed, &sf);
    AppendBoolField(&out, "expired", s.expired, &sf);
    if (s.superseded()) {
      AppendU64Field(&out, "superseded_by", s.superseded_by, &sf);
    }
    if (s.line_span != 0 && s.line_span != ArchiveSet::kShardLineSpan) {
      AppendU64Field(&out, "line_span", s.line_span, &sf);
    }
    out.append("}");
  }
  out.append("]}\n");
  return out;
}

Result<std::vector<ShardInfo>> ArchiveSet::ParseSetManifest(
    std::string_view bytes, SetManifestHeader* header) {
  Result<JsonValue> doc = ParseJson(bytes);
  if (!doc.ok()) {
    return CorruptData("set manifest: " + doc.status().message());
  }
  const JsonValue& root = *doc;
  if (!root.is_object()) {
    return CorruptData("set manifest: not a JSON object");
  }
  const int version = static_cast<int>(root.Get("version").AsInt());
  if (version < kOldestParsableSetManifestVersion ||
      version > kSetManifestVersion) {
    return CorruptData("set manifest: unsupported version");
  }
  header->window_span_ns = ReadU64Or(root, "window_span_ns", 0);
  header->next_shard_id = ReadU64Or(root, "next_shard_id", 0);
  header->next_line_base = ReadU64Or(root, "next_line_base", 0);
  header->generation = ReadU64Or(root, "generation", 0);

  std::vector<ShardInfo> shards;
  const JsonValue& arr = root.Get("shards");
  if (!arr.is_array()) {
    return CorruptData("set manifest: 'shards' missing or not an array");
  }
  for (const JsonValue& item : arr.AsArray()) {
    if (!item.is_object()) {
      return CorruptData("set manifest: shard entry not an object");
    }
    ShardInfo s;
    if (!ReadU64(item, "id", &s.id)) {
      return CorruptData("set manifest: shard entry without id");
    }
    s.tenant = item.Get("tenant").AsString();
    s.dir_name = item.Get("dir").AsString();
    if (s.dir_name.empty() || s.dir_name.find('/') != std::string::npos ||
        s.dir_name.find("..") != std::string::npos) {
      return CorruptData("set manifest: shard " + std::to_string(s.id) +
                         " has a missing or unsafe dir name");
    }
    s.window_start_ns = ReadU64Or(item, "window_start_ns", 0);
    s.window_end_ns = ReadU64Or(item, "window_end_ns", UINT64_MAX);
    s.line_base = ReadU64Or(item, "line_base", 0);
    s.lines = ReadU64Or(item, "lines", 0);
    s.raw_bytes = ReadU64Or(item, "raw_bytes", 0);
    s.stored_bytes = ReadU64Or(item, "stored_bytes", 0);
    s.min_ts_ns = ReadU64Or(item, "min_ts_ns", UINT64_MAX);
    s.max_ts_ns = ReadU64Or(item, "max_ts_ns", 0);
    s.sealed = item.Get("sealed").AsBool();
    s.expired = item.Get("expired").AsBool();
    s.superseded_by = ReadU64Or(item, "superseded_by", kNotSuperseded);
    s.line_span = ReadU64Or(item, "line_span", ArchiveSet::kShardLineSpan);
    if (s.line_span == 0) {
      return CorruptData("set manifest: shard " + std::to_string(s.id) +
                         " has a zero line span");
    }
    if (s.expired && !s.sealed) {
      return CorruptData("set manifest: shard " + std::to_string(s.id) +
                         " expired but not sealed");
    }
    if (s.superseded() && !s.sealed) {
      return CorruptData("set manifest: shard " + std::to_string(s.id) +
                         " superseded but not sealed");
    }
    if (!shards.empty()) {
      // Ids are unique but no longer monotone in manifest order: a merged
      // shard (allocated later, so a higher id) sits immediately before its
      // first source so line bases stay non-decreasing.
      const ShardInfo& prev = shards.back();
      if (s.line_base < prev.line_base) {
        return CorruptData(
            "set manifest: shard line bases not non-decreasing");
      }
    }
    shards.push_back(std::move(s));
  }
  uint64_t max_id = 0;
  uint64_t max_line_base = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    max_id = std::max(max_id, shards[i].id);
    max_line_base = std::max(max_line_base, shards[i].line_base);
    for (size_t j = i + 1; j < shards.size(); ++j) {
      if (shards[i].id == shards[j].id) {
        return CorruptData("set manifest: duplicate shard id " +
                           std::to_string(shards[i].id));
      }
    }
    if (shards[i].superseded()) {
      bool found = false;
      for (const ShardInfo& other : shards) {
        if (other.id == shards[i].superseded_by && !other.expired &&
            !other.superseded()) {
          found = true;
          break;
        }
      }
      if (!found) {
        return CorruptData("set manifest: shard " +
                           std::to_string(shards[i].id) +
                           " superseded by an unknown or dead shard");
      }
    }
  }
  if (!shards.empty()) {
    if (header->next_shard_id <= max_id) {
      return CorruptData("set manifest: next_shard_id not past the last shard");
    }
    if (header->next_line_base <= max_line_base) {
      return CorruptData(
          "set manifest: next_line_base not past the last shard");
    }
  }
  return shards;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

ArchiveSet::ArchiveSet(std::string root, ArchiveSetOptions options)
    : root_(std::move(root)), options_(std::move(options)) {}

ArchiveSet::~ArchiveSet() { StopJanitor(); }

Result<std::unique_ptr<ArchiveSet>> ArchiveSet::Create(
    std::string root, ArchiveSetOptions options) {
  StorageEnv* env = EnvOrDefault(options.archive.env);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    return IOError("create set root " + root + ": " + ec.message());
  }
  if (env->FileExists(SetManifestPath(root))) {
    return InvalidArgument("set root " + root +
                           " already holds a set manifest");
  }
  std::unique_ptr<ArchiveSet> set(
      new ArchiveSet(std::move(root), std::move(options)));
  {
    std::lock_guard<std::mutex> lock(set->mu_);
    LOGGREP_RETURN_IF_ERROR(set->WriteSetManifestLocked());
  }
  return set;
}

Result<std::unique_ptr<ArchiveSet>> ArchiveSet::Open(
    std::string root, ArchiveSetOptions options) {
  StorageEnv* env = EnvOrDefault(options.archive.env);
  Result<std::string> bytes = ReadFileBytes(SetManifestPath(root), env);
  if (!bytes.ok()) {
    return Status(bytes.status().code(),
                  "open archive set " + root + ": " + bytes.status().message());
  }
  SetManifestHeader header;
  Result<std::vector<ShardInfo>> shards = ParseSetManifest(*bytes, &header);
  if (!shards.ok()) {
    return shards.status();
  }

  std::unique_ptr<ArchiveSet> set(
      new ArchiveSet(std::move(root), std::move(options)));
  // The persisted span wins over the option (a set's partitioning is fixed
  // at Create time; reopening with a different span must not re-route).
  set->options_.window_span_ns = header.window_span_ns;
  set->next_shard_id_ = header.next_shard_id;
  set->next_line_base_ = header.next_line_base;
  set->generation_ = header.generation;
  set->shards_ = std::move(*shards);

  // Recovery, in order:
  //   1. stray atomic-write temps of the set manifest itself;
  //   2. finish interrupted retention and compaction GC (entry expired or
  //      superseded, dir still present — the merged shard holding a
  //      superseded shard's lines was committed first by protocol order);
  //   3. sweep orphan shard dirs (a roll — or a compaction rename — that
  //      died before its manifest rewrite: the dir holds no committed data
  //      by protocol order) and half-built compaction staging dirs;
  //   4. mark unsealed shards' stats stale (recomputed from their archives
  //      on first open — the manifest's unsealed stats are advisory).
  SweepTempFiles(set->root_, env);
  for (size_t i = 0; i < set->shards_.size(); ++i) {
    ShardInfo& s = set->shards_[i];
    std::string dir = JoinPath(set->root_, s.dir_name);
    if (!s.live()) {
      RemoveTreeBestEffort(dir);
      continue;
    }
    if (!s.sealed) {
      set->stats_stale_[s.id] = true;
      set->active_[s.tenant] = i;
    }
  }
  {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(set->root_, ec)) {
      if (!entry.is_directory()) {
        continue;
      }
      std::string name = entry.path().filename().string();
      if (LooksLikeCompactionStagingDir(name)) {
        RemoveTreeBestEffort(entry.path().string());
        continue;
      }
      if (!LooksLikeShardDir(name)) {
        continue;
      }
      bool referenced = false;
      for (const ShardInfo& s : set->shards_) {
        if (s.dir_name == name) {
          referenced = true;
          break;
        }
      }
      if (!referenced) {
        RemoveTreeBestEffort(entry.path().string());
      }
    }
  }
  return set;
}

Status ArchiveSet::WriteSetManifestLocked() {
  SetManifestHeader header;
  header.window_span_ns = options_.window_span_ns;
  header.next_shard_id = next_shard_id_;
  header.next_line_base = next_line_base_;
  header.generation = generation_ + 1;
  Status wrote = WriteFileAtomic(SetManifestPath(root_),
                                 SerializeSetManifest(header, shards_),
                                 options_.archive.env);
  if (wrote.ok()) {
    // The in-memory generation tracks the persisted one exactly: a failed
    // write leaves both untouched, so a compaction plan snapshotting the
    // generation can detect any committed manifest movement.
    ++generation_;
  }
  return wrote;
}

Status ArchiveSet::MaybeKill(SetKillPoint point) const {
  if (hook_ && hook_(point)) {
    return Internal(std::string("killed at ") + SetKillPointName(point));
  }
  return OkStatus();
}

Result<std::shared_ptr<LogArchive>> ArchiveSet::OpenShardLocked(
    size_t index) {
  ShardInfo& info = shards_[index];
  auto it = open_.find(info.id);
  if (it != open_.end()) {
    return it->second;
  }
  Result<LogArchive> arch =
      LogArchive::Open(JoinPath(root_, info.dir_name), options_.archive);
  if (!arch.ok()) {
    return Status(arch.status().code(),
                  "shard " + std::to_string(info.id) + " (" + info.tenant +
                      "): " + arch.status().message());
  }
  std::shared_ptr<LogArchive> handle = MakeShardHandle(std::move(*arch));
  if (!info.sealed && stats_stale_.count(info.id) != 0) {
    info.lines = handle->total_lines();
    info.raw_bytes = handle->total_raw_bytes();
    info.stored_bytes = handle->total_stored_bytes();
    stats_stale_.erase(info.id);
  }
  open_[info.id] = handle;
  return handle;
}

bool ArchiveSet::RetireShardLocked(const ShardInfo& shard) {
  const std::string dir = JoinPath(root_, shard.dir_name);
  stats_stale_.erase(shard.id);
  auto it = open_.find(shard.id);
  if (it != open_.end()) {
    std::shared_ptr<LogArchive> handle = std::move(it->second);
    open_.erase(it);
    // Queries take references only under mu_, so a count of 1 cannot grow.
    if (handle.use_count() > 1) {
      std::get_deleter<ShardHandleDeleter>(handle)->retired_dir = dir;
      return false;
    }
  }
  return RemoveTreeBestEffort(dir);
}

// ---------------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------------

Result<size_t> ArchiveSet::RollShardLocked(const std::string& tenant,
                                           uint64_t ts_ns) {
  // 1. Shard dir + empty archive land on disk first. A crash from here to
  //    the manifest rewrite leaves an orphan dir with no committed data;
  //    Open sweeps it.
  uint64_t id = next_shard_id_;
  std::string dir_name = ShardDirName(id, tenant);
  std::string dir = JoinPath(root_, dir_name);
  Result<LogArchive> created = LogArchive::Create(dir, options_.archive);
  if (!created.ok()) {
    return Status(created.status().code(),
                  "roll shard for tenant '" + tenant +
                      "': " + created.status().message());
  }
  LOGGREP_RETURN_IF_ERROR(MaybeKill(SetKillPoint::kShardCreated));

  // 2. Seal the tenant's previous active shard (its stats are exact in
  //    memory: refreshed on open, updated on every append) and add the new
  //    one, in ONE manifest rewrite — the commit point of the roll.
  auto prev_active = active_.find(tenant);
  size_t sealed_index = shards_.size();
  ShardInfo sealed_backup;
  if (prev_active != active_.end()) {
    sealed_index = prev_active->second;
    // A stale-stat shard must consult its archive before the seal freezes
    // the numbers (min/max ts stay as recorded: conservative, thus sound).
    if (stats_stale_.count(shards_[sealed_index].id) != 0) {
      Result<std::shared_ptr<LogArchive>> opened =
          OpenShardLocked(sealed_index);
      if (!opened.ok()) {
        return opened.status();
      }
    }
    sealed_backup = shards_[sealed_index];
    shards_[sealed_index].sealed = true;
  }

  ShardInfo next;
  next.id = id;
  next.tenant = tenant;
  next.dir_name = dir_name;
  if (options_.window_span_ns != 0) {
    next.window_start_ns = WindowStartFor(ts_ns, options_.window_span_ns);
    next.window_end_ns = next.window_start_ns + options_.window_span_ns;
  }
  next.line_base = next_line_base_;
  next.line_span = kShardLineSpan;
  shards_.push_back(next);
  next_shard_id_ = id + 1;
  next_line_base_ += kShardLineSpan;

  Status wrote = WriteSetManifestLocked();
  if (!wrote.ok()) {
    // Roll back the in-memory mutation and drop the never-committed dir so a
    // retry can recreate it (a crash instead of a clean failure leaves the
    // dir behind; Open sweeps it).
    shards_.pop_back();
    next_shard_id_ = id;
    next_line_base_ -= kShardLineSpan;
    if (sealed_index < shards_.size()) {
      shards_[sealed_index] = sealed_backup;
    }
    RemoveTreeBestEffort(dir);
    return wrote;
  }

  size_t new_index = shards_.size() - 1;
  active_[tenant] = new_index;
  open_[id] = MakeShardHandle(std::move(*created));
  LOGGREP_RETURN_IF_ERROR(MaybeKill(SetKillPoint::kRollManifestWritten));
  return new_index;
}

Result<AppendReceipt> ArchiveSet::Append(std::string_view tenant,
                                         std::string_view text,
                                         uint64_t ts_ns) {
  if (text.empty()) {
    return InvalidArgument("append of empty text");
  }
  // Summary and compression depend on the text alone, so they run before the
  // set lock: queries and appends to other tenants never wait behind the
  // codec. A local engine, as in LogIngestor: CompressBlock shares nothing
  // across blocks.
  BlockInfo block =
      BuildBlockSummary(text, options_.archive.bloom_bits_per_shingle);
  const uint64_t lines = block.line_count;
  const std::string box =
      LogGrepEngine(options_.archive.engine).CompressBlock(text);

  std::lock_guard<std::mutex> lock(mu_);
  if (ts_ns == 0) {
    ts_ns = storage_env()->NowNanos();
  }

  std::string tenant_key(tenant);
  const ShardInfo* active = nullptr;
  auto it = active_.find(tenant_key);
  if (it != active_.end()) {
    // A stale active shard's line/byte counters must be real before the
    // roll decision reads them.
    if (stats_stale_.count(shards_[it->second].id) != 0) {
      Result<std::shared_ptr<LogArchive>> opened =
          OpenShardLocked(it->second);
      if (!opened.ok()) {
        return opened.status();
      }
    }
    active = &shards_[it->second];
  }

  AppendReceipt receipt;
  RollReason roll =
      DecideRoll(active, ts_ns, lines, options_.window_span_ns,
                 options_.max_shard_bytes, kShardLineSpan);
  size_t index;
  if (roll != RollReason::kNone) {
    Result<size_t> rolled = RollShardLocked(tenant_key, ts_ns);
    if (!rolled.ok()) {
      return rolled.status();
    }
    index = *rolled;
    receipt.rolled = true;
    receipt.roll_reason = roll;
  } else {
    index = active_[tenant_key];
  }

  Result<std::shared_ptr<LogArchive>> arch = OpenShardLocked(index);
  if (!arch.ok()) {
    return arch.status();
  }

  // Widen the recorded event range BEFORE committing the block: a crash
  // between the two leaves the range too wide (pruning stays sound), never
  // too narrow (which would let a time predicate skip real hits).
  ShardInfo& info = shards_[index];
  uint64_t prev_min = info.min_ts_ns, prev_max = info.max_ts_ns;
  info.min_ts_ns = std::min(info.min_ts_ns, ts_ns);
  info.max_ts_ns = std::max(info.max_ts_ns, ts_ns);
  if (info.min_ts_ns != prev_min || info.max_ts_ns != prev_max) {
    Status wrote = WriteSetManifestLocked();
    if (!wrote.ok()) {
      info.min_ts_ns = prev_min;
      info.max_ts_ns = prev_max;
      return wrote;
    }
  }
  LOGGREP_RETURN_IF_ERROR(MaybeKill(SetKillPoint::kAppendManifestWritten));

  receipt.shard_id = info.id;
  receipt.first_global_line = info.line_base + (*arch)->total_lines();
  receipt.lines = lines;
  LOGGREP_RETURN_IF_ERROR(
      (*arch)->CommitCompressedBlock(box, std::move(block)));
  info.lines = (*arch)->total_lines();
  info.raw_bytes = (*arch)->total_raw_bytes();
  info.stored_bytes = (*arch)->total_stored_bytes();
  return receipt;
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

std::string SetQueryResult::RenderPartial() const {
  std::string out;
  for (const SetShardFailure& f : shard_failures) {
    out += "shard " + std::to_string(f.shard_id) + " (tenant '" + f.tenant +
           "') unavailable: " + f.error + "\n";
  }
  if (partial.partial()) {
    out += partial.Render();
  }
  return out;
}

Result<SetQueryResult> ArchiveSet::Query(std::string_view command,
                                         const SetQueryPredicate& pred,
                                         const QueryOptions& options,
                                         SetExplain* explain) {
  // A malformed command must fail even when every shard is pruned (the
  // answer "no hits" would be a lie about a query that has no meaning).
  {
    Result<std::unique_ptr<QueryExpr>> parsed = ParseQuery(command);
    if (!parsed.ok()) {
      return parsed.status();
    }
  }
  if (explain != nullptr) {
    explain->command = std::string(command);
    explain->shards.clear();
  }

  // Snapshot under mu_: prune shards, open the survivors, and copy what the
  // gather needs. The scatter below runs without mu_; the shared handles
  // keep every visited shard alive (and its directory on disk) even if
  // retention or a compaction commit retires it meanwhile.
  SetQueryResult result;
  struct Visit {
    ShardInfo shard;                      // copied: shards_ may change
    std::shared_ptr<LogArchive> archive;  // pinned handle
    size_t explain_index;                 // into explain->shards (or SIZE_MAX)
  };
  std::vector<Visit> visits;
  // Records a whole-shard hole (and marks the shard's explain entry).
  auto fail_shard = [&](const ShardInfo& s, size_t explain_index,
                        const Status& cause) {
    ++result.shards_failed;
    SetShardFailure failure{s.id, s.tenant, s.line_base, s.lines,
                            cause.ToString()};
    if (explain_index != SIZE_MAX) {
      explain->shards[explain_index].failed = true;
      explain->shards[explain_index].failure = failure.error;
    }
    result.shard_failures.push_back(std::move(failure));
  };
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardInfo& s = shards_[i];
    if (!s.live()) {
      // Tombstone: expired data is gone by design; a superseded shard's
      // lines are served by its merged successor. Neither is a hole.
      continue;
    }
    ++result.shards_total;
    std::string reason = ShardPruneReason(s, pred);
    if (!reason.empty()) {
      ++result.shards_pruned;
      if (explain != nullptr) {
        ShardExplain se;
        se.id = s.id;
        se.tenant = s.tenant;
        se.pruned = true;
        se.prune_reason = std::move(reason);
        explain->shards.push_back(std::move(se));
      }
      continue;
    }
    ++result.shards_visited;
    size_t explain_index = SIZE_MAX;
    if (explain != nullptr) {
      ShardExplain se;
      se.id = s.id;
      se.tenant = s.tenant;
      explain->shards.push_back(std::move(se));
      explain_index = explain->shards.size() - 1;
    }
    Result<std::shared_ptr<LogArchive>> arch = OpenShardLocked(i);
    if (!arch.ok()) {
      if (!options.degrade) {
        return arch.status();
      }
      fail_shard(s, explain_index, arch.status());
      continue;
    }
    visits.push_back(Visit{s, std::move(*arch), explain_index});
  }
  lock.unlock();

  // Scatter. Each visit queries a distinct LogArchive; each archive is
  // itself safe for concurrent queries from other callers.
  struct Slot {
    bool done = false;
    Status status = OkStatus();
    ArchiveQueryResult result;
  };
  std::vector<Slot> slots(visits.size());
  // Parallelism lives at one level: the shards fan out, each shard's blocks
  // run serially.
  QueryOptions shard_options = options;
  shard_options.threads = 1;
  auto run_one = [&](size_t v) {
    Slot& slot = slots[v];
    Result<ArchiveQueryResult> r = visits[v].archive->Query(
        command, shard_options,
        explain != nullptr ? &explain->shards[visits[v].explain_index].archive
                           : nullptr);
    if (r.ok()) {
      slot.result = std::move(*r);
      slot.done = true;
    } else {
      slot.status = r.status();
    }
  };
  ParallelFor(visits.size(), explain != nullptr ? 1 : options.threads,
              run_one);

  // Gather in id order (visits preserve it), rebasing shard-local line
  // numbers onto each shard's global base.
  for (size_t v = 0; v < visits.size(); ++v) {
    const ShardInfo& s = visits[v].shard;
    Slot& slot = slots[v];
    if (!slot.done) {
      // A whole-shard query failure. Query-syntax errors never degrade
      // (same rule as LogArchive) — but the upfront parse already caught
      // those, so any InvalidArgument here is real and must surface.
      if (!options.degrade ||
          slot.status.code() == StatusCode::kInvalidArgument) {
        return slot.status;
      }
      fail_shard(s, visits[v].explain_index, slot.status);
      continue;
    }
    ArchiveQueryResult& r = slot.result;
    for (auto& hit : r.hits) {
      result.hits.emplace_back(s.line_base + hit.first,
                               std::move(hit.second));
    }
    result.blocks_pruned += r.blocks_pruned;
    result.blocks_queried += r.blocks_queried;
    result.blocks_from_cache += r.blocks_from_cache;
    result.locator.Accumulate(r.locator);
    for (BlockQueryFailure& f : r.partial.failures) {
      f.first_line += s.line_base;
      result.partial.failures.push_back(std::move(f));
    }
  }
  // Visit order is line_base order, so hits usually gather already sorted —
  // except when a merged shard's span interleaves with other tenants' bases.
  // Global line numbers are unique, so sorting by them is a total order.
  if (!std::is_sorted(result.hits.begin(), result.hits.end(),
                      [](const auto& a, const auto& b) {
                        return a.first < b.first;
                      })) {
    std::sort(result.hits.begin(), result.hits.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  return result;
}

// ---------------------------------------------------------------------------
// Set explain
// ---------------------------------------------------------------------------

ExplainTotals SetExplain::Totals() const {
  ExplainTotals totals;
  for (const ShardExplain& s : shards) {
    if (!s.pruned && !s.failed) {
      totals.Accumulate(s.archive.Totals());
    }
  }
  return totals;
}

bool SetExplain::CheckInvariant(std::string* detail) const {
  for (const ShardExplain& s : shards) {
    if (s.pruned || s.failed) {
      continue;
    }
    if (!s.archive.CheckInvariant(detail)) {
      if (detail != nullptr) {
        *detail = "shard " + std::to_string(s.id) + ": " + *detail;
      }
      return false;
    }
  }
  if (!Totals().Balanced()) {
    if (detail != nullptr) {
      *detail = "set-level totals imbalanced";
    }
    return false;
  }
  return true;
}

std::string SetExplain::Render() const {
  std::string out = "federated query: " + command + "\n";
  for (const ShardExplain& s : shards) {
    out += "shard " + std::to_string(s.id) + " tenant '" + s.tenant + "': ";
    if (s.pruned) {
      out += "pruned (" + s.prune_reason + ")\n";
      continue;
    }
    if (s.failed) {
      out += "failed (" + s.failure + ")\n";
      continue;
    }
    ExplainTotals t = s.archive.Totals();
    out += "visited (capsules " + std::to_string(t.visited) + " = pruned " +
           std::to_string(t.pruned) + " + cached " + std::to_string(t.cached) +
           " + decompressed " + std::to_string(t.decompressed) + ")\n";
  }
  ExplainTotals t = Totals();
  out += "total: capsules " + std::to_string(t.visited) + " = pruned " +
         std::to_string(t.pruned) + " + cached " + std::to_string(t.cached) +
         " + decompressed " + std::to_string(t.decompressed) + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Retention + repair
// ---------------------------------------------------------------------------

std::string SetRetentionReport::Summary() const {
  if (!fatal.ok()) {
    return "retention failed: " + fatal.ToString();
  }
  return "expired " + std::to_string(expired_ids.size()) + " shard(s), removed " +
         std::to_string(dirs_removed) + " dir(s)";
}

Result<SetRetentionReport> ArchiveSet::RunRetention(uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  SetRetentionReport report;
  if (options_.retention_ns == 0) {
    return report;
  }
  uint64_t cut =
      now_ns > options_.retention_ns ? now_ns - options_.retention_ns : 0;
  std::vector<size_t> expiring;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardInfo& s = shards_[i];
    if (!s.live() || !s.sealed) {
      continue;  // the active shard never expires; superseded data already
                 // expired-or-lives through its merged successor
    }
    if (s.empty() || s.max_ts_ns < cut) {
      expiring.push_back(i);
    }
  }
  if (expiring.empty()) {
    return report;
  }

  // Commit point: one manifest rewrite marks every expiring shard. The
  // entries stay in the manifest forever — dropping one would shift nothing
  // (line bases are explicit), but keeping it preserves lineage and lets
  // Open distinguish "expired by design" from "lost".
  for (size_t i : expiring) {
    shards_[i].expired = true;
  }
  Status wrote = WriteSetManifestLocked();
  if (!wrote.ok()) {
    for (size_t i : expiring) {
      shards_[i].expired = false;
    }
    report.fatal = wrote;
    return report;
  }
  for (size_t i : expiring) {
    report.expired_ids.push_back(shards_[i].id);
  }
  Status killed = MaybeKill(SetKillPoint::kRetentionManifestWritten);
  if (!killed.ok()) {
    return killed;  // dirs linger; Open finishes the removal
  }

  for (size_t i : expiring) {
    if (RetireShardLocked(shards_[i])) {
      ++report.dirs_removed;
    }
  }
  return report;
}

std::string SetRepairReport::Summary() const {
  if (!fatal.ok()) {
    return "set repair failed: " + fatal.ToString();
  }
  return "repaired " + std::to_string(shards.size()) + " shard(s): " +
         std::to_string(reinstated) + " reinstated, " +
         std::to_string(tombstoned) + " tombstoned";
}

Status ArchiveSet::RefreshStats() {
  std::lock_guard<std::mutex> lock(mu_);
  Status first_error = OkStatus();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i].live() || stats_stale_.count(shards_[i].id) == 0) {
      continue;
    }
    Result<std::shared_ptr<LogArchive>> opened = OpenShardLocked(i);
    if (!opened.ok() && first_error.ok()) {
      first_error = opened.status();
    }
  }
  return first_error;
}

SetRepairReport ArchiveSet::RepairAll() {
  std::lock_guard<std::mutex> lock(mu_);
  SetRepairReport report;
  for (const ShardInfo& s : shards_) {
    if (!s.live()) {
      continue;
    }
    RepairReport shard_report =
        RepairArchive(JoinPath(root_, s.dir_name), options_.archive.env);
    if (!shard_report.ok()) {
      report.fatal = shard_report.fatal;
    }
    report.reinstated += shard_report.reinstated;
    report.tombstoned += shard_report.tombstoned;
    if (!shard_report.actions.empty() || !shard_report.ok()) {
      report.shards.emplace_back(s.id, std::move(shard_report));
    }
    auto it = open_.find(s.id);
    if (it != open_.end()) {
      // Best effort: a reinstated block should serve without reopening.
      (void)it->second->ReloadQuarantine();
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

SetCompactionReport ArchiveSet::Compact() {
  return Compact(options_.compaction);
}

SetCompactionReport ArchiveSet::Compact(const CompactionPolicy& policy) {
  // One compactor at a time: the build phase runs outside mu_, so mu_ alone
  // would let two callers plan — and race to commit — the same sources.
  std::lock_guard<std::mutex> serial(compact_mu_);
  SetCompactionReport report;

  struct Planned {
    CompactionRun run;
    std::vector<ShardInfo> sources;  // snapshot, line_base order
  };
  std::vector<Planned> planned;
  uint64_t planned_generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Shards with unrepaired quarantined blocks are excluded: their holes
    // are not final (repair may yet reinstate the bytes), so they must not
    // be frozen into a merged shard. Tombstoned-only quarantines are fine —
    // those holes are accepted and carried through verbatim.
    std::set<uint64_t> excluded;
    for (const ShardInfo& s : shards_) {
      if (!s.live() || !s.sealed || s.empty()) {
        continue;
      }
      bool pending = false;
      auto it = open_.find(s.id);
      if (it != open_.end()) {
        const QuarantineSet quarantine = it->second->quarantine();
        for (const QuarantineEntry& e : quarantine.entries) {
          if (!e.tombstoned) {
            pending = true;
            break;
          }
        }
      } else {
        Result<QuarantineSet> q =
            LoadQuarantine(JoinPath(root_, s.dir_name), options_.archive.env);
        if (!q.ok()) {
          pending = true;  // unreadable sidecar: treat as not-compactable
        } else {
          for (const QuarantineEntry& e : q->entries) {
            if (!e.tombstoned) {
              pending = true;
              break;
            }
          }
        }
      }
      if (pending) {
        excluded.insert(s.id);
        ++report.skipped_quarantined;
      }
    }
    std::vector<CompactionRun> runs = PlanCompaction(
        shards_, policy, storage_env()->NowNanos(), excluded);
    report.runs_planned = runs.size();
    planned_generation = generation_;
    for (CompactionRun& run : runs) {
      Planned p;
      p.run = std::move(run);
      for (uint64_t id : p.run.shard_ids) {
        for (const ShardInfo& s : shards_) {
          if (s.id == id) {
            p.sources.push_back(s);
            break;
          }
        }
      }
      planned.push_back(std::move(p));
    }
  }

  for (const Planned& p : planned) {
    const size_t committed_before = report.merges_committed;
    Status status =
        CompactOneRun(p.run, p.sources, planned_generation, &report);
    if (!status.ok()) {
      ++report.runs_aborted;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++compaction_totals_.failures;
      }
      if (options_.archive.metrics != nullptr) {
        options_.archive.metrics->GetOrCreate("set.compaction.failures")
            ->Increment();
      }
      report.fatal = status;
      EmitEvent("compaction.run", status);
      break;  // a failed (or kill-aborted) run ends the pass; retried later
    }
    if (report.merges_committed > committed_before) {
      EmitEvent("compaction.merge", OkStatus());
    }
  }
  return report;
}

Status ArchiveSet::CompactOneRun(const CompactionRun& run,
                                 const std::vector<ShardInfo>& sources,
                                 uint64_t planned_generation,
                                 SetCompactionReport* report) {
  // Build phase — no set lock held: queries and appends proceed against the
  // sources while the merged shard grows in its staging dir.
  const std::string staging = CompactionStagingDirName();
  const std::string staging_path = JoinPath(root_, staging);
  auto remove_staging = [&] { RemoveTreeBestEffort(staging_path); };
  Result<MergedShardBuild> build =
      BuildMergedShard(root_, staging, sources, options_.archive);
  if (!build.ok()) {
    remove_staging();
    return build.status();
  }
  if (Status killed = MaybeKill(SetKillPoint::kCompactStaged); !killed.ok()) {
    return killed;  // staging dir lingers exactly like a crash; Open sweeps it
  }

  // Commit phase — under the set lock, so it is atomic w.r.t. queries: a
  // query sees all sources (before) or only the merged shard (after), never
  // both, never neither.
  std::lock_guard<std::mutex> lock(mu_);
  if (generation_ != planned_generation) {
    // The manifest moved under the build (an append widened a ts range, a
    // roll sealed a shard, retention expired something, …). The plan is
    // still good iff every source is exactly as planned: present, sealed,
    // live, same base. Any miss → a newer manifest won; abort, do not
    // clobber.
    for (const ShardInfo& want : sources) {
      const ShardInfo* now = nullptr;
      for (const ShardInfo& s : shards_) {
        if (s.id == want.id) {
          now = &s;
          break;
        }
      }
      if (now == nullptr || !now->live() || !now->sealed ||
          now->line_base != want.line_base) {
        remove_staging();
        ++report->runs_aborted;
        return OkStatus();  // benign: retention or a racing writer won
      }
    }
  }

  // Rename staging to its final shard name. Still uncommitted: a crash
  // before the manifest rewrite leaves an unreferenced shard dir, which
  // Open's orphan sweep removes.
  const uint64_t id = next_shard_id_;
  const std::string dir_name = ShardDirName(id, run.tenant);
  StorageEnv* env = storage_env();
  if (Status s = env->Rename(staging_path, JoinPath(root_, dir_name));
      !s.ok()) {
    remove_staging();
    return Status(s.code(), "compaction: rename staging dir: " + s.message());
  }
  (void)env->SyncDir(root_);
  if (Status killed = MaybeKill(SetKillPoint::kCompactShardRenamed);
      !killed.ok()) {
    return killed;  // orphan shard dir; Open sweeps it
  }

  ShardInfo merged;
  merged.id = id;
  merged.tenant = run.tenant;
  merged.dir_name = dir_name;
  merged.window_start_ns = UINT64_MAX;
  merged.window_end_ns = 0;
  merged.line_base = sources.front().line_base;
  merged.line_span = sources.back().line_base + sources.back().line_span -
                     sources.front().line_base;
  merged.lines = build->lines;
  merged.raw_bytes = build->raw_bytes;
  merged.stored_bytes = build->stored_bytes;
  merged.min_ts_ns = build->min_ts_ns;
  merged.max_ts_ns = build->max_ts_ns;
  merged.sealed = true;
  for (const ShardInfo& src : sources) {
    merged.window_start_ns = std::min(merged.window_start_ns, src.window_start_ns);
    merged.window_end_ns = std::max(merged.window_end_ns, src.window_end_ns);
  }

  // THE commit point: one manifest rewrite inserts the merged entry
  // (immediately before its first source, keeping line bases non-decreasing
  // in manifest order) and marks every source superseded_by=<id>.
  const std::vector<ShardInfo> shards_backup = shards_;
  const std::map<std::string, size_t> active_backup = active_;
  size_t insert_at = shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].id == sources.front().id) {
      insert_at = i;
      break;
    }
  }
  shards_.insert(shards_.begin() + insert_at, merged);
  for (const ShardInfo& src : sources) {
    for (ShardInfo& s : shards_) {
      if (s.id == src.id) {
        s.superseded_by = id;
        break;
      }
    }
  }
  next_shard_id_ = id + 1;
  for (auto& [tenant, index] : active_) {
    if (index >= insert_at) {
      ++index;  // the insertion shifted everything at and after it
    }
  }
  Status wrote = WriteSetManifestLocked();
  if (!wrote.ok()) {
    shards_ = shards_backup;
    active_ = active_backup;
    next_shard_id_ = id;
    RemoveTreeBestEffort(JoinPath(root_, dir_name));
    return wrote;
  }

  ++report->merges_committed;
  report->shards_merged += sources.size();
  report->merged_ids.push_back(id);
  ++compaction_totals_.merges;
  compaction_totals_.shards_merged += sources.size();
  if (options_.archive.metrics != nullptr) {
    options_.archive.metrics->GetOrCreate("set.compaction.merges")
        ->Increment();
    options_.archive.metrics->GetOrCreate("set.compaction.shards_merged")
        ->Add(sources.size());
  }
  if (Status killed = MaybeKill(SetKillPoint::kCompactManifestWritten);
      !killed.ok()) {
    return killed;  // source dirs linger; Open finishes the removal
  }

  // GC: drop handles and directories of the superseded sources. New
  // queries see only the merged shard (the manifest said so under this same
  // lock); a query that snapshotted the sources before the commit keeps
  // their directories until it finishes.
  for (const ShardInfo& src : sources) {
    if (RetireShardLocked(src)) {
      ++report->dirs_removed;
    }
  }
  if (Status killed = MaybeKill(SetKillPoint::kCompactSourcesRemoved);
      !killed.ok()) {
    return killed;
  }
  return OkStatus();
}

ArchiveSet::CompactionTotals ArchiveSet::compaction_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compaction_totals_;
}

// ---------------------------------------------------------------------------
// Janitor
// ---------------------------------------------------------------------------

void ArchiveSet::EmitEvent(const char* what, const Status& status) {
  if (!options_.event_log) {
    return;
  }
  std::string line = "{\"event\":";
  AppendJsonString(&line, what);
  line += ",\"ok\":";
  line += status.ok() ? "true" : "false";
  if (!status.ok()) {
    line += ",\"error\":";
    AppendJsonString(&line, status.ToString());
  }
  line += "}";
  options_.event_log(line);
}

void ArchiveSet::JanitorPass(bool compaction) {
  // Every step runs even when an earlier one fails (repair is most useful
  // exactly when retention or compaction hit trouble), and every failure is
  // counted, kept, and logged — never swallowed.
  struct Step {
    const char* name;
    Status status;
  };
  std::vector<Step> steps;
  {
    Result<SetRetentionReport> retention =
        RunRetention(storage_env()->NowNanos());
    steps.push_back({"janitor.retention",
                     retention.ok() ? retention->fatal : retention.status()});
  }
  steps.push_back({"janitor.repair", RepairAll().fatal});
  if (compaction) {
    // Mutual exclusion with retention is structural: both mutate shard
    // state under mu_, and a compaction commit whose sources retention
    // expired mid-build aborts on generation revalidation.
    steps.push_back({"janitor.compaction", Compact().fatal});
  }

  size_t errors = 0;
  std::string last_error;
  for (const Step& step : steps) {
    if (step.status.ok()) {
      continue;
    }
    ++errors;
    last_error = std::string(step.name) + ": " + step.status.ToString();
    EmitEvent(step.name, step.status);
    if (options_.archive.metrics != nullptr) {
      options_.archive.metrics->GetOrCreate("set.janitor.errors")->Increment();
    }
  }
  if (options_.archive.metrics != nullptr) {
    options_.archive.metrics->GetOrCreate("set.janitor.passes")->Increment();
  }
  std::lock_guard<std::mutex> lock(janitor_mu_);
  ++janitor_passes_;
  janitor_errors_ += errors;
  if (errors != 0) {
    janitor_last_error_ = std::move(last_error);
  }
}

void ArchiveSet::StartJanitor(uint64_t interval_ns) {
  JanitorOptions options;
  options.interval_ns = interval_ns;
  StartJanitor(options);
}

void ArchiveSet::StartJanitor(const JanitorOptions& options) {
  std::lock_guard<std::mutex> lock(janitor_mu_);
  if (janitor_running_) {
    return;  // idempotent: the first caller's cadence wins
  }
  JanitorOptions opts = options;
  if (opts.interval_ns < kMinJanitorIntervalNs) {
    opts.interval_ns = kMinJanitorIntervalNs;  // an interval of 0 must not
                                               // become a busy spin
  }
  // The stop flag is shared with (and only with) the thread it stops: a
  // StopJanitor racing a fresh StartJanitor can never leave a stale thread
  // running against a re-armed flag.
  auto stop = std::make_shared<bool>(false);
  janitor_stop_ = stop;
  janitor_running_ = true;
  janitor_ = std::thread([this, opts, stop] {
    std::unique_lock<std::mutex> lock(janitor_mu_);
    bool first = true;
    while (!*stop) {
      if (!(first && opts.run_immediately)) {
        janitor_cv_.wait_for(lock, std::chrono::nanoseconds(opts.interval_ns),
                             [&] { return *stop; });
        if (*stop) {
          break;
        }
      }
      first = false;
      lock.unlock();
      JanitorPass(opts.compaction);
      lock.lock();
    }
  });
}

void ArchiveSet::StopJanitor() {
  std::thread doomed;
  {
    std::lock_guard<std::mutex> lock(janitor_mu_);
    if (!janitor_running_) {
      return;  // concurrent StopJanitor calls: the first one owns the join
    }
    janitor_running_ = false;
    if (janitor_stop_ != nullptr) {
      *janitor_stop_ = true;
    }
    doomed = std::move(janitor_);
  }
  janitor_cv_.notify_all();
  if (doomed.joinable()) {
    doomed.join();
  }
}

ArchiveSet::JanitorStatus ArchiveSet::janitor_status() const {
  std::lock_guard<std::mutex> lock(janitor_mu_);
  JanitorStatus status;
  status.running = janitor_running_;
  status.passes = janitor_passes_;
  status.errors = janitor_errors_;
  status.last_error = janitor_last_error_;
  return status;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<ShardInfo> ArchiveSet::shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_;
}

size_t ArchiveSet::live_shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const ShardInfo& s : shards_) {
    if (s.live()) {
      ++n;
    }
  }
  return n;
}

size_t ArchiveSet::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> tenants;
  for (const ShardInfo& s : shards_) {
    if (!s.live()) {
      continue;
    }
    if (std::find(tenants.begin(), tenants.end(), s.tenant) == tenants.end()) {
      tenants.push_back(s.tenant);
    }
  }
  return tenants.size();
}

uint64_t ArchiveSet::total_lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const ShardInfo& s : shards_) {
    if (s.live()) {
      n += s.lines;
    }
  }
  return n;
}

uint64_t ArchiveSet::total_raw_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const ShardInfo& s : shards_) {
    if (s.live()) {
      n += s.raw_bytes;
    }
  }
  return n;
}

uint64_t ArchiveSet::total_stored_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const ShardInfo& s : shards_) {
    if (s.live()) {
      n += s.stored_bytes;
    }
  }
  return n;
}

}  // namespace loggrep

#include "src/store/quarantine.h"

#include <algorithm>
#include <map>

#include "src/common/json.h"
#include "src/store/fs_util.h"

namespace loggrep {

// ---------------------------------------------------------------------------
// QuarantineSet
// ---------------------------------------------------------------------------

const QuarantineEntry* QuarantineSet::Find(uint32_t seq) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), seq,
      [](const QuarantineEntry& e, uint32_t s) { return e.seq < s; });
  if (it == entries.end() || it->seq != seq) {
    return nullptr;
  }
  return &*it;
}

QuarantineEntry* QuarantineSet::Find(uint32_t seq) {
  return const_cast<QuarantineEntry*>(
      static_cast<const QuarantineSet*>(this)->Find(seq));
}

bool QuarantineSet::Add(QuarantineEntry entry) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), entry.seq,
      [](const QuarantineEntry& e, uint32_t s) { return e.seq < s; });
  if (it != entries.end() && it->seq == entry.seq) {
    // Refresh: keep the first recorded error (it names the original cause)
    // and never un-tombstone via a mere re-failure.
    if (it->code.empty()) {
      it->code = std::move(entry.code);
    }
    if (it->error.empty()) {
      it->error = std::move(entry.error);
    }
    if (it->quarantined_unix == 0) {
      it->quarantined_unix = entry.quarantined_unix;
    }
    return false;
  }
  entries.insert(it, std::move(entry));
  return true;
}

bool QuarantineSet::Remove(uint32_t seq) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), seq,
      [](const QuarantineEntry& e, uint32_t s) { return e.seq < s; });
  if (it == entries.end() || it->seq != seq) {
    return false;
  }
  entries.erase(it);
  return true;
}

std::string QuarantinePath(const std::string& dir) {
  return dir + "/quarantine.json";
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

std::string SerializeQuarantineJson(const QuarantineSet& set) {
  std::string out = "{\"version\":1,\"blocks\":[";
  bool first = true;
  for (const QuarantineEntry& e : set.entries) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out += "{\"seq\":" + std::to_string(e.seq) + ",\"code\":";
    AppendJsonString(&out, e.code);
    out += ",\"error\":";
    AppendJsonString(&out, e.error);
    out += ",\"tombstoned\":";
    out += e.tombstoned ? "true" : "false";
    out += ",\"quarantined_unix\":" + std::to_string(e.quarantined_unix);
    out.push_back('}');
  }
  out += "]}\n";
  return out;
}

Result<QuarantineSet> ParseQuarantineJson(std::string_view json) {
  const auto corrupt = [](std::string_view what) {
    return Status(StatusCode::kCorruptData,
                  "quarantine.json: " + std::string(what));
  };
  Result<JsonValue> doc = ParseJson(json);
  if (!doc.ok()) {
    return corrupt(doc.status().message());
  }
  if (!doc->is_object()) {
    return corrupt("expected top-level object");
  }
  // Unknown keys are ignored (forward compatibility for later writers).
  const std::map<std::string, JsonValue>& top = doc->AsObject();
  if (const auto it = top.find("version"); it != top.end()) {
    uint64_t version = 0;
    if (!it->second.AsExactUint(&version) || version != 1) {
      return corrupt("unsupported version");
    }
  }
  const auto blocks = top.find("blocks");
  if (blocks == top.end()) {
    return corrupt("missing blocks array");
  }
  if (!blocks->second.is_array()) {
    return corrupt("blocks must be an array");
  }
  QuarantineSet set;
  for (const JsonValue& item : blocks->second.AsArray()) {
    if (!item.is_object()) {
      return corrupt("block entry must be an object");
    }
    QuarantineEntry entry;
    bool saw_seq = false;
    for (const auto& [field, value] : item.AsObject()) {
      const bool is_string = value.kind() == JsonValue::Kind::kString;
      if (field == "seq") {
        uint64_t seq = 0;
        if (!value.AsExactUint(&seq) || seq > UINT32_MAX) {
          return corrupt("bad seq");
        }
        entry.seq = static_cast<uint32_t>(seq);
        saw_seq = true;
      } else if (field == "code") {
        if (!is_string) {
          return corrupt("bad code");
        }
        entry.code = value.AsString();
      } else if (field == "error") {
        if (!is_string) {
          return corrupt("bad error");
        }
        entry.error = value.AsString();
      } else if (field == "tombstoned") {
        if (value.kind() != JsonValue::Kind::kBool) {
          return corrupt("bad tombstoned");
        }
        entry.tombstoned = value.AsBool();
      } else if (field == "quarantined_unix" &&
                 !value.AsExactUint(&entry.quarantined_unix)) {
        return corrupt("bad quarantined_unix");
      }
    }
    if (!saw_seq) {
      return corrupt("block entry missing seq");
    }
    set.Add(std::move(entry));
  }
  return set;
}

// ---------------------------------------------------------------------------
// Sidecar I/O
// ---------------------------------------------------------------------------

Result<QuarantineSet> LoadQuarantine(const std::string& dir, StorageEnv* env) {
  StorageEnv* e = EnvOrDefault(env);
  Result<std::string> bytes = ReadFileBytes(QuarantinePath(dir), e);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return QuarantineSet{};  // healthy common case: no sidecar at all
    }
    return bytes.status();
  }
  return ParseQuarantineJson(*bytes);
}

Status SaveQuarantine(const std::string& dir, const QuarantineSet& set,
                      StorageEnv* env) {
  StorageEnv* e = EnvOrDefault(env);
  const std::string path = QuarantinePath(dir);
  if (set.empty()) {
    Status s = e->RemoveFile(path);
    if (!s.ok() && s.code() == StatusCode::kNotFound) {
      return OkStatus();
    }
    return s;
  }
  return WriteFileAtomic(path, SerializeQuarantineJson(set), e);
}

// ---------------------------------------------------------------------------
// Partial results
// ---------------------------------------------------------------------------

uint64_t PartialReport::lines_missing() const {
  uint64_t n = 0;
  for (const BlockQueryFailure& f : failures) {
    n += f.line_count;
  }
  return n;
}

std::string PartialReport::Render() const {
  if (failures.empty()) {
    return "complete";
  }
  std::string out = "partial: " + std::to_string(failures.size()) +
                    " block(s) unavailable, " +
                    std::to_string(lines_missing()) + " line(s) missing\n";
  for (const BlockQueryFailure& f : failures) {
    out += "  block " + std::to_string(f.seq) + " lines [" +
           std::to_string(f.first_line) + "," +
           std::to_string(f.first_line + f.line_count) + "): " + f.error;
    if (f.tombstoned) {
      out += " [tombstoned]";
    } else if (f.newly_quarantined) {
      out += " [newly quarantined]";
    } else {
      out += " [quarantined]";
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace loggrep

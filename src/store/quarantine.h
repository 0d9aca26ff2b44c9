// Block quarantine: the bookkeeping that lets queries degrade instead of
// die.
//
// When a block's read or decode still fails after the retry policy gives up,
// the archive *quarantines* it: the failure is recorded in a sidecar
// `quarantine.json` next to the manifest (written with WriteFileAtomic, so
// the sidecar itself is crash-safe), the query continues over the remaining
// blocks, and the result carries a structured PartialReport naming each
// failed block and the global line-range hole it leaves. Subsequent queries
// skip quarantined blocks outright instead of re-paying the retry storm.
//
// `loggrep_cli repair` (RepairArchive in src/store/verify.h) later
// re-verifies quarantined blocks against the manifest v2 hashes and either
// *reinstates* them (entry removed, block serves queries again) or
// *tombstones* them (the hole is accepted as permanent data loss but keeps
// being reported).
//
// Lifecycle:   healthy --query fails--> quarantined --repair ok--> healthy
//                                          |   ^
//                            repair fails  |   | file restored + repair ok
//                                          v   |
//                                        tombstoned
#ifndef SRC_STORE_QUARANTINE_H_
#define SRC_STORE_QUARANTINE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/store/storage_env.h"

namespace loggrep {

struct QuarantineEntry {
  uint32_t seq = 0;
  std::string code;   // StatusCodeName of the failure that quarantined it
  std::string error;  // human-readable cause (first failure)
  bool tombstoned = false;  // repair gave up; the hole is accepted
  uint64_t quarantined_unix = 0;  // seconds since epoch (0 = unknown)
};

struct QuarantineSet {
  std::vector<QuarantineEntry> entries;  // kept sorted by seq

  const QuarantineEntry* Find(uint32_t seq) const;
  QuarantineEntry* Find(uint32_t seq);
  // Inserts or refreshes (keeps the first recorded error and tombstone
  // state); returns true when `seq` was not quarantined before.
  bool Add(QuarantineEntry entry);
  bool Remove(uint32_t seq);
  bool empty() const { return entries.empty(); }
};

// `<dir>/quarantine.json`.
std::string QuarantinePath(const std::string& dir);

// Loads the sidecar. A missing file is an empty set (the healthy common
// case); unparseable bytes are kCorruptData (callers degrade to an empty
// set but surface the status).
Result<QuarantineSet> LoadQuarantine(const std::string& dir,
                                     StorageEnv* env = nullptr);

// Atomically persists the sidecar; an empty set removes the file.
Status SaveQuarantine(const std::string& dir, const QuarantineSet& set,
                      StorageEnv* env = nullptr);

// Serialization (exposed for tests).
std::string SerializeQuarantineJson(const QuarantineSet& set);
Result<QuarantineSet> ParseQuarantineJson(std::string_view json);

// ---------------------------------------------------------------------------
// Partial results
// ---------------------------------------------------------------------------

// One block a query could not serve: the per-block error plus the global
// line-range hole [first_line, first_line + line_count) it leaves in the
// result.
struct BlockQueryFailure {
  uint32_t seq = 0;
  uint64_t first_line = 0;
  uint64_t line_count = 0;
  std::string error;
  bool newly_quarantined = false;  // this very query discovered the failure
  bool tombstoned = false;         // hole previously accepted by repair
};

// Attached to every ArchiveQueryResult. Empty means the result is complete.
struct PartialReport {
  std::vector<BlockQueryFailure> failures;

  bool partial() const { return !failures.empty(); }
  uint64_t lines_missing() const;
  // Human-readable report ("block 3 lines [900,1200): IO_ERROR ...").
  std::string Render() const;
};

}  // namespace loggrep

#endif  // SRC_STORE_QUARANTINE_H_

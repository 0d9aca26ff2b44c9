// Fuzz target: every on-disk manifest reader on arbitrary bytes — the
// archive manifest, the ArchiveSet's set_manifest.json and the quarantine
// sidecar. Property: any input yields a value or a clean Status — no crash,
// no unbounded reserve from hostile counts — and what is accepted holds:
// archive manifests satisfy the parser's own invariants (strictly
// increasing seq, non-overlapping line ranges), and an accepted quarantine
// set round-trips through SerializeQuarantineJson unchanged.
#include <cstdint>
#include <string_view>

#include "fuzz/fuzz_driver.h"
#include "src/store/archive_set.h"
#include "src/store/log_archive.h"
#include "src/store/quarantine.h"

namespace {

void CheckArchiveManifest(std::string_view input) {
  auto blocks = loggrep::ParseManifestBytes(input);
  if (!blocks.ok()) {
    return;
  }
  uint64_t prev_seq = 0;
  uint64_t prev_end = 0;
  bool first = true;
  for (const loggrep::BlockInfo& block : *blocks) {
    if (!first && (block.seq <= prev_seq || block.first_line < prev_end)) {
      __builtin_trap();  // parser accepted an invariant violation
    }
    prev_seq = block.seq;
    prev_end = block.first_line + block.line_count;
    first = false;
  }
}

void CheckQuarantine(std::string_view input) {
  auto set = loggrep::ParseQuarantineJson(input);
  if (!set.ok()) {
    return;
  }
  auto again = loggrep::ParseQuarantineJson(
      loggrep::SerializeQuarantineJson(*set));
  if (!again.ok() || again->entries.size() != set->entries.size()) {
    __builtin_trap();  // an accepted sidecar did not survive a rewrite
  }
  for (size_t i = 0; i < set->entries.size(); ++i) {
    const loggrep::QuarantineEntry& a = set->entries[i];
    const loggrep::QuarantineEntry& b = again->entries[i];
    if (a.seq != b.seq || a.code != b.code || a.error != b.error ||
        a.tombstoned != b.tombstoned ||
        a.quarantined_unix != b.quarantined_unix) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  CheckArchiveManifest(input);
  loggrep::ArchiveSet::SetManifestHeader header;
  (void)loggrep::ArchiveSet::ParseSetManifest(input, &header);
  CheckQuarantine(input);
  return 0;
}

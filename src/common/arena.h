// ValueArena: bump storage for short-lived string values whose views must
// stay stable while a row is being assembled.
//
// The reconstructor builds one output line from many per-slot values. Most
// values are zero-copy views into pinned Capsule blobs, but pattern-rendered
// values (runtime patterns splicing sub-variables) have to live somewhere.
// Storing them here instead of per-value std::strings means one amortized
// allocation per 64 KiB of rendered text instead of one per value.
//
// Lifetime rule: a view returned by Store() is valid until the next Reset()
// (or destruction). Chunks are heap-allocated std::strings that are never
// appended past their reserved capacity, so chunk data never reallocates and
// views survive growth of the chunk list.
#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace loggrep {

class ValueArena {
 public:
  // Copies `s` into the arena; the returned view is stable until Reset().
  std::string_view Store(std::string_view s) {
    if (chunks_.empty() ||
        chunks_.back().size() + s.size() > chunks_.back().capacity()) {
      chunks_.emplace_back();
      chunks_.back().reserve(s.size() > kMinChunk ? s.size() : kMinChunk);
    }
    std::string& chunk = chunks_.back();
    const size_t off = chunk.size();
    chunk.append(s.data(), s.size());
    return std::string_view(chunk.data() + off, s.size());
  }

  // Invalidates every stored view; chunk capacity is kept for reuse.
  void Reset() {
    // Keep only the first chunk: steady-state rows fit in one chunk, and
    // dropping the rest bounds memory after a rare oversized row.
    if (chunks_.size() > 1) {
      chunks_.resize(1);
    }
    if (!chunks_.empty()) {
      chunks_.front().clear();
    }
  }

 private:
  static constexpr size_t kMinChunk = 64 * 1024;
  std::vector<std::string> chunks_;
};

}  // namespace loggrep

#endif  // SRC_COMMON_ARENA_H_

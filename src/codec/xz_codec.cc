// LZMA stand-in ("xz-like"), implemented from scratch as LZ with an adaptive
// binary range coder (src/codec/range_coder.h) — the same design recipe as
// LZMA: order-1 context-modeled literals, a four-slot repeat-distance
// history (rep0-rep3), length-conditioned distance slots, and an aligned
// tree for the low distance bits. Slowest codec in the repository, best
// ratio; used as LogGrep's second-stage compressor like LZMA in the paper.
//
// Payload: [u8 mode: 0 = stored, 1 = range-coded][data].
#include <algorithm>
#include <cstring>
#include <vector>

#include "src/codec/codec.h"
#include "src/codec/lz_huff.h"  // BucketizeValue / BucketRange
#include "src/codec/lz_matcher.h"
#include "src/codec/range_coder.h"

namespace loggrep {
namespace {

constexpr uint8_t kModeStored = 0;
constexpr uint8_t kModeRangeCoded = 1;

constexpr int kLenTreeBits = 6;    // length bucket codes < 64
constexpr int kDistTreeBits = 7;   // distance bucket codes < 128
constexpr int kLiteralContexts = 256;

constexpr int kNumReps = 4;  // repeat-distance history depth (LZMA rep0-rep3)

struct Models {
  BitProb is_match[2];
  BitProb is_rep[2];
  BitProb rep_index[1 << 2];  // bit-tree over the 4 history slots
  BitProb len_tree[2][1 << kLenTreeBits];   // ctx: after rep / after new dist
  BitProb dist_tree[2][1 << kDistTreeBits];  // ctx: short vs long match
  BitProb align[1 << 4];  // low 4 distance bits (padded columns align often)

  Models() {
    std::fill_n(is_match, 2, kProbInit);
    std::fill_n(is_rep, 2, kProbInit);
    std::fill_n(rep_index, 1 << 2, kProbInit);
    std::fill_n(&len_tree[0][0], 2 << kLenTreeBits, kProbInit);
    std::fill_n(&dist_tree[0][0], 2 << kDistTreeBits, kProbInit);
    std::fill_n(align, 1 << 4, kProbInit);
  }

  // The literal model of context `ctx` (the previous byte), initialized on
  // first use: a small capsule touches a few dozen of the 256 contexts, and
  // filling all 128 KiB up front dominated its decode time. A context's
  // first use sees exactly the probabilities an eager fill would give it.
  BitProb* Literal(int ctx) {
    BitProb* probs = literal_[ctx];
    if (!literal_ready_[ctx]) {
      std::fill_n(probs, 1 << 8, kProbInit);
      literal_ready_[ctx] = true;
    }
    return probs;
  }

 private:
  BitProb literal_[kLiteralContexts][1 << 8];  // filled lazily by Literal()
  bool literal_ready_[kLiteralContexts] = {};
};

// Recent-distance history with move-to-front semantics.
struct RepHistory {
  uint32_t reps[kNumReps] = {0, 0, 0, 0};

  // Index of `dist` in the history, or -1.
  int Find(uint32_t dist) const {
    for (int i = 0; i < kNumReps; ++i) {
      if (reps[i] == dist) {
        return i;
      }
    }
    return -1;
  }

  void Promote(int index) {
    const uint32_t d = reps[index];
    for (int i = index; i > 0; --i) {
      reps[i] = reps[i - 1];
    }
    reps[0] = d;
  }

  void PushFront(uint32_t dist) {
    for (int i = kNumReps - 1; i > 0; --i) {
      reps[i] = reps[i - 1];
    }
    reps[0] = dist;
  }
};

int LiteralContextEnc(std::string_view raw, size_t pos) {
  return pos == 0 ? 0 : static_cast<uint8_t>(raw[pos - 1]);
}

class XzLikeCodec : public Codec {
 public:
  const char* name() const override { return "xz-like"; }
  uint8_t id() const override { return 3; }

 protected:
  std::string CompressPayload(std::string_view raw) const override {
    if (raw.empty()) {
      return std::string(1, static_cast<char>(kModeRangeCoded));
    }
    const LzParams params{
        .window_size = 1u << 19,
        .max_chain = 192,
        .nice_len = 384,
        .max_match = 1u << 16,
        .lazy = true,
        .block_tokens = 0,  // unused: models adapt continuously
    };
    HashChainMatcher matcher(raw, params);
    Models models;
    RangeEncoder rc;
    int prev_match = 0;
    RepHistory history;
    size_t pos = 0;
    while (pos < raw.size()) {
      HashChainMatcher::Match best =
          matcher.FindBest(pos, history.reps, kNumReps);
      bool inserted_pos = false;
      if (best.len >= kMinMatch && params.lazy && best.len < params.nice_len &&
          pos + 1 < raw.size()) {
        matcher.Insert(pos);
        inserted_pos = true;
        const HashChainMatcher::Match next =
            matcher.FindBest(pos + 1, history.reps, kNumReps);
        if (next.score > best.score) {
          best.len = 0;  // emit a literal and retry at pos + 1
        }
      }
      if (best.len >= kMinMatch) {
        rc.EncodeBit(models.is_match[prev_match], 1);
        const int rep_index = history.Find(best.dist);
        rc.EncodeBit(models.is_rep[prev_match], rep_index >= 0 ? 1 : 0);
        const Bucket lb = BucketizeValue(best.len - kMinMatch);
        EncodeBitTree(rc, models.len_tree[rep_index >= 0 ? 0 : 1], kLenTreeBits,
                      lb.code);
        if (lb.extra_bits > 0) {
          rc.EncodeDirectBits(lb.extra_value, static_cast<int>(lb.extra_bits));
        }
        if (rep_index >= 0) {
          EncodeBitTree(rc, models.rep_index, 2,
                        static_cast<uint32_t>(rep_index));
          history.Promote(rep_index);
        } else {
          const Bucket db = BucketizeValue(best.dist - 1);
          const int dctx = best.len >= 8 ? 1 : 0;
          EncodeBitTree(rc, models.dist_tree[dctx], kDistTreeBits, db.code);
          if (db.extra_bits > 4) {
            rc.EncodeDirectBits(db.extra_value >> 4,
                                static_cast<int>(db.extra_bits) - 4);
            EncodeBitTree(rc, models.align, 4, db.extra_value & 15u);
          } else if (db.extra_bits > 0) {
            rc.EncodeDirectBits(db.extra_value, static_cast<int>(db.extra_bits));
          }
          history.PushFront(best.dist);
        }
        const size_t insert_end =
            pos + std::min<size_t>(best.len, best.len > 4096 ? 32 : best.len);
        for (size_t p = pos + (inserted_pos ? 1 : 0); p < insert_end; ++p) {
          matcher.Insert(p);
        }
        pos += best.len;
        prev_match = 1;
      } else {
        if (!inserted_pos) {
          matcher.Insert(pos);
        }
        rc.EncodeBit(models.is_match[prev_match], 0);
        EncodeBitTree(rc, models.Literal(LiteralContextEnc(raw, pos)), 8,
                      static_cast<uint8_t>(raw[pos]));
        ++pos;
        prev_match = 0;
      }
    }
    std::string coded = rc.Finish();
    if (coded.size() + 1 >= raw.size()) {
      std::string stored(1, static_cast<char>(kModeStored));
      stored.append(raw.data(), raw.size());
      return stored;
    }
    std::string out(1, static_cast<char>(kModeRangeCoded));
    out += coded;
    return out;
  }

  Result<std::string> DecompressPayload(std::string_view payload,
                                        size_t raw_size) const override {
    if (payload.empty()) {
      return CorruptData("xz-like: empty payload");
    }
    const uint8_t mode = static_cast<uint8_t>(payload[0]);
    payload.remove_prefix(1);
    if (mode == kModeStored) {
      if (payload.size() != raw_size) {
        return CorruptData("xz-like: stored size mismatch");
      }
      return std::string(payload);
    }
    if (mode != kModeRangeCoded) {
      return CorruptData("xz-like: unknown payload mode");
    }
    if (raw_size == 0) {
      return std::string();
    }
    // Decoded bytes live in out[0, n), written through a raw pointer. The
    // buffer grows geometrically but never runs more than
    // kDecompressReserveBytes ahead of the bytes actually decoded, so a
    // lying raw_size cannot allocate ahead of real progress.
    std::string out(std::min(raw_size, kDecompressReserveBytes), '\0');
    char* buf = out.data();
    size_t n = 0;
    auto make_room = [&](size_t len) {
      if (n + len > out.size()) {
        const size_t grown = std::min(out.size() * 2, n + kDecompressReserveBytes);
        out.resize(std::min(raw_size, std::max(n + len, grown)));
        buf = out.data();
      }
    };
    Models models;
    RangeDecoder rc(payload);
    int prev_match = 0;
    RepHistory history;
    while (n < raw_size) {
      if (rc.Overran()) {
        return CorruptData("xz-like: truncated range-coded stream");
      }
      if (rc.DecodeBit(models.is_match[prev_match]) == 0) {
        const int ctx = n == 0 ? 0 : static_cast<uint8_t>(buf[n - 1]);
        const uint32_t byte = DecodeBitTree<8>(rc, models.Literal(ctx));
        make_room(1);
        buf[n++] = static_cast<char>(byte);
        prev_match = 0;
        continue;
      }
      const int is_rep = rc.DecodeBit(models.is_rep[prev_match]);
      const uint32_t lcode =
          DecodeBitTree<kLenTreeBits>(rc, models.len_tree[is_rep ? 0 : 1]);
      uint32_t base = 0;
      uint32_t eb = 0;
      BucketRange(lcode, &base, &eb);
      uint32_t len = kMinMatch + base +
                     (eb > 0 ? rc.DecodeDirectBits(static_cast<int>(eb)) : 0);
      uint32_t dist;
      if (is_rep != 0) {
        const uint32_t rep_index = DecodeBitTree<2>(rc, models.rep_index);
        dist = history.reps[rep_index];
        history.Promote(static_cast<int>(rep_index));
      } else {
        const int dctx = len >= 8 ? 1 : 0;
        const uint32_t dcode =
            DecodeBitTree<kDistTreeBits>(rc, models.dist_tree[dctx]);
        BucketRange(dcode, &base, &eb);
        uint32_t extra = 0;
        if (eb > 4) {
          extra = rc.DecodeDirectBits(static_cast<int>(eb) - 4) << 4;
          extra |= DecodeBitTree<4>(rc, models.align);
        } else if (eb > 0) {
          extra = rc.DecodeDirectBits(static_cast<int>(eb));
        }
        dist = 1 + base + extra;
        history.PushFront(dist);
      }
      if (dist == 0 || dist > n) {
        return CorruptData("xz-like: bad match distance");
      }
      if (len > raw_size - n) {
        return CorruptData("xz-like: match overflows raw size");
      }
      make_room(len);
      char* dst = buf + n;
      const char* src = dst - dist;
      if (dist >= len) {
        std::memcpy(dst, src, len);
      } else {
        for (uint32_t i = 0; i < len; ++i) {  // overlapping: byte order matters
          dst[i] = src[i];
        }
      }
      n += len;
      prev_match = 1;
    }
    return out;
  }
};

}  // namespace

const Codec& GetXzCodec() {
  static const XzLikeCodec codec;
  return codec;
}

}  // namespace loggrep

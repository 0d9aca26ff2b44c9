// CapsuleBox: the compressed on-disk representation of one log block (§3).
//
// Layout:
//   [u32 magic "LGCB"][u8 version][varint meta_len][meta][capsule payloads]
// The metadata holds the static patterns, per-group variable-vector metadata
// (runtime patterns, stamps, capsule references), and a capsule directory of
// (offset, length) pairs into the payload region. Each capsule payload is an
// independently compressed blob (self-describing codec container), so a query
// can decompress exactly the Capsules it needs.
#ifndef SRC_CAPSULE_CAPSULE_BOX_H_
#define SRC_CAPSULE_CAPSULE_BOX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/capsule/capsule.h"
#include "src/capsule/stamp.h"
#include "src/codec/codec.h"
#include "src/common/result.h"
#include "src/parser/static_pattern.h"
#include "src/pattern/runtime_pattern.h"

namespace loggrep {

// A real variable vector stored as per-sub-variable Capsules (§4.2, Fig. 4).
struct RealVarMeta {
  RuntimePattern pattern;
  std::vector<CapsuleStamp> subvar_stamps;    // one per sub-variable
  std::vector<uint32_t> subvar_capsules;      // one per sub-variable
  std::vector<uint32_t> outlier_rows;         // group rows stored as outliers
  uint32_t outlier_capsule = kNoCapsule;      // delimited; kNoCapsule if none
};

// One dictionary section of a nominal variable vector (§4.2, Fig. 5).
struct NominalPatternMeta {
  RuntimePattern pattern;
  CapsuleStamp stamp;   // over the section's full values; max_len = pad width
  uint32_t count = 0;   // dictionary entries in this section
};

// A nominal variable vector: dictionary Capsule + index Capsule.
struct NominalVarMeta {
  std::vector<NominalPatternMeta> patterns;
  uint32_t dict_capsule = kNoCapsule;
  uint32_t index_capsule = kNoCapsule;
  uint32_t index_width = 0;  // decimal digits per index entry ("IdxLen")
};

// Whole-vector storage: LogGrep-SP mode and ablation fallbacks (§2.2).
struct WholeVarMeta {
  CapsuleStamp stamp;
  uint32_t capsule = kNoCapsule;
};

struct VarMeta {
  std::variant<RealVarMeta, NominalVarMeta, WholeVarMeta> repr;

  bool is_real() const { return std::holds_alternative<RealVarMeta>(repr); }
  bool is_nominal() const { return std::holds_alternative<NominalVarMeta>(repr); }
  bool is_whole() const { return std::holds_alternative<WholeVarMeta>(repr); }
  const RealVarMeta& real() const { return std::get<RealVarMeta>(repr); }
  const NominalVarMeta& nominal() const { return std::get<NominalVarMeta>(repr); }
  const WholeVarMeta& whole() const { return std::get<WholeVarMeta>(repr); }
};

struct GroupMeta {
  uint32_t template_id = 0;
  uint32_t row_count = 0;
  std::vector<uint32_t> line_numbers;  // delta-encoded on disk
  std::vector<VarMeta> vars;           // one per template variable slot
};

struct CapsuleBoxMeta {
  uint8_t codec_id = 0;
  bool padded = true;  // fixed-length layout in force (§5.2)
  uint32_t total_lines = 0;
  std::vector<StaticPattern> templates;
  std::vector<GroupMeta> groups;
  uint32_t outlier_capsule = kNoCapsule;  // raw unparsed lines (delimited)
  std::vector<uint32_t> outlier_line_numbers;
};

// Accumulates compressed capsules, then serializes metadata + payload.
class CapsuleBoxBuilder {
 public:
  explicit CapsuleBoxBuilder(const Codec& codec) : codec_(codec) {}

  // Compresses `raw` and returns the new capsule id.
  uint32_t AddCapsule(std::string_view raw);

  const Codec& codec() const { return codec_; }
  // Total compressed payload bytes so far.
  size_t payload_size() const { return payload_.size(); }

  std::string Finish(const CapsuleBoxMeta& meta) &&;

 private:
  const Codec& codec_;
  std::string payload_;
  std::vector<std::pair<uint64_t, uint64_t>> directory_;  // offset, length
};

// Read-side view over serialized CapsuleBox bytes (zero-copy metadata parse;
// capsules decompress on demand).
class CapsuleBox {
 public:
  static Result<CapsuleBox> Open(std::string_view bytes);

  const CapsuleBoxMeta& meta() const { return meta_; }
  size_t CapsuleCount() const { return directory_.size(); }
  Result<std::string> ReadCapsule(uint32_t id) const;

 private:
  CapsuleBoxMeta meta_;
  std::vector<std::pair<uint64_t, uint64_t>> directory_;
  std::string_view payload_;  // borrows from the bytes passed to Open
};

}  // namespace loggrep

#endif  // SRC_CAPSULE_CAPSULE_BOX_H_

#include "src/capsule/capsule_box.h"

namespace loggrep {
namespace {

constexpr uint32_t kMagic = 0x4243474Cu;  // "LGCB" little-endian
constexpr uint8_t kVersion = 1;

constexpr uint8_t kVarReal = 0;
constexpr uint8_t kVarNominal = 1;
constexpr uint8_t kVarWhole = 2;

void WriteDeltaRows(ByteWriter& out, const std::vector<uint32_t>& rows) {
  out.PutVarint(rows.size());
  uint32_t prev = 0;
  for (uint32_t r : rows) {
    out.PutVarint(r - prev);
    prev = r;
  }
}

Result<std::vector<uint32_t>> ReadDeltaRows(ByteReader& in) {
  Result<uint64_t> n = in.ReadVarint();
  if (!n.ok()) {
    return n.status();
  }
  // The declared count cannot exceed the remaining stream bytes (every row
  // costs at least a one-byte varint), so a hostile 2^60 count is rejected
  // before the reserve instead of aborting in the allocator.
  if (*n > in.remaining()) {
    return CorruptData("capsule_box: row count exceeds stream size");
  }
  std::vector<uint32_t> rows;
  rows.reserve(static_cast<size_t>(*n));
  uint32_t prev = 0;
  for (uint64_t i = 0; i < *n; ++i) {
    Result<uint64_t> d = in.ReadVarint();
    if (!d.ok()) {
      return d.status();
    }
    prev += static_cast<uint32_t>(*d);
    rows.push_back(prev);
  }
  return rows;
}

// True iff `rows` is strictly increasing with every element < limit.
// (Delta decoding alone does not guarantee this: zero deltas produce
// duplicates and large deltas wrap uint32.)
bool StrictlyIncreasingBelow(const std::vector<uint32_t>& rows,
                             uint64_t limit) {
  uint64_t prev = 0;
  bool first = true;
  for (uint32_t r : rows) {
    if (r >= limit || (!first && r <= prev)) {
      return false;
    }
    prev = r;
    first = false;
  }
  return true;
}

// Valid capsule reference: a real directory entry or the "absent" sentinel.
bool ValidCapsuleRef(uint32_t id, size_t capsule_count) {
  return id == kNoCapsule || id < capsule_count;
}

// Varint fields that land in uint32 metadata slots. The encoder only ever
// writes 32-bit values, so anything wider is corruption — fail loudly
// instead of silently truncating to a wrong (small) number.
Result<uint32_t> CheckedU32(uint64_t v, const char* what) {
  if (v > 0xFFFFFFFFull) {
    return CorruptData(std::string("capsule_box: ") + what +
                       " exceeds 32-bit range");
  }
  return static_cast<uint32_t>(v);
}

// Referential-integrity validation of freshly parsed metadata. Everything
// the query path indexes with (template ids, capsule ids, sub-variable
// ordinals, row/line counts) is checked once here so the locator and
// reconstructor can stay branch-light; a box that passes Open never sends
// them out of bounds.
Status ValidateMeta(const CapsuleBoxMeta& meta, size_t capsule_count) {
  if (!CodecById(meta.codec_id).ok()) {
    return CorruptData("capsule_box: unknown codec id in metadata");
  }
  for (const GroupMeta& g : meta.groups) {
    if (g.template_id >= meta.templates.size()) {
      return CorruptData("capsule_box: group references missing template");
    }
    if (g.line_numbers.size() != g.row_count) {
      return CorruptData("capsule_box: line-number count != row count");
    }
    if (!StrictlyIncreasingBelow(g.line_numbers, meta.total_lines)) {
      return CorruptData("capsule_box: group line numbers not increasing");
    }
    const StaticPattern& tmpl = meta.templates[g.template_id];
    if (g.vars.size() != static_cast<size_t>(tmpl.VarCount())) {
      return CorruptData("capsule_box: var count != template slot count");
    }
    for (const VarMeta& v : g.vars) {
      if (v.is_real()) {
        const RealVarMeta& rv = v.real();
        if (!rv.pattern.WellFormed()) {
          return CorruptData("capsule_box: malformed runtime pattern");
        }
        if (rv.subvar_capsules.size() != rv.pattern.SubVarCount()) {
          return CorruptData(
              "capsule_box: sub-variable capsule count != pattern arity");
        }
        for (uint32_t cap : rv.subvar_capsules) {
          if (cap >= capsule_count) {
            return CorruptData("capsule_box: sub-variable capsule missing");
          }
        }
        if (!StrictlyIncreasingBelow(rv.outlier_rows, g.row_count)) {
          return CorruptData("capsule_box: outlier rows not increasing");
        }
        if (!ValidCapsuleRef(rv.outlier_capsule, capsule_count) ||
            (!rv.outlier_rows.empty() && rv.outlier_capsule == kNoCapsule)) {
          return CorruptData("capsule_box: bad outlier capsule reference");
        }
      } else if (v.is_nominal()) {
        const NominalVarMeta& nv = v.nominal();
        uint64_t dict_entries = 0;
        for (const NominalPatternMeta& p : nv.patterns) {
          if (!p.pattern.WellFormed()) {
            return CorruptData("capsule_box: malformed runtime pattern");
          }
          dict_entries += p.count;
        }
        // A dictionary cannot hold more distinct values than the group has
        // rows (prevents hostile counts from sizing huge scratch vectors).
        if (dict_entries > g.row_count) {
          return CorruptData("capsule_box: dictionary larger than group");
        }
        if (!ValidCapsuleRef(nv.dict_capsule, capsule_count) ||
            !ValidCapsuleRef(nv.index_capsule, capsule_count)) {
          return CorruptData("capsule_box: bad nominal capsule reference");
        }
        if (nv.index_width > 20) {  // a uint64 has at most 20 decimal digits
          return CorruptData("capsule_box: implausible index width");
        }
      } else {
        if (!ValidCapsuleRef(v.whole().capsule, capsule_count)) {
          return CorruptData("capsule_box: bad whole-vector capsule");
        }
      }
    }
  }
  if (!ValidCapsuleRef(meta.outlier_capsule, capsule_count) ||
      (!meta.outlier_line_numbers.empty() &&
       meta.outlier_capsule == kNoCapsule)) {
    return CorruptData("capsule_box: bad outlier capsule reference");
  }
  if (!StrictlyIncreasingBelow(meta.outlier_line_numbers, meta.total_lines)) {
    return CorruptData("capsule_box: outlier line numbers not increasing");
  }
  return OkStatus();
}

void WriteVarMeta(ByteWriter& out, const VarMeta& var) {
  if (var.is_real()) {
    const RealVarMeta& rv = var.real();
    out.PutU8(kVarReal);
    rv.pattern.WriteTo(out);
    out.PutVarint(rv.subvar_stamps.size());
    for (size_t i = 0; i < rv.subvar_stamps.size(); ++i) {
      rv.subvar_stamps[i].WriteTo(out);
      out.PutVarint(rv.subvar_capsules[i]);
    }
    WriteDeltaRows(out, rv.outlier_rows);
    out.PutU32(rv.outlier_capsule);
  } else if (var.is_nominal()) {
    const NominalVarMeta& nv = var.nominal();
    out.PutU8(kVarNominal);
    out.PutVarint(nv.patterns.size());
    for (const NominalPatternMeta& p : nv.patterns) {
      p.pattern.WriteTo(out);
      p.stamp.WriteTo(out);
      out.PutVarint(p.count);
    }
    out.PutU32(nv.dict_capsule);
    out.PutU32(nv.index_capsule);
    out.PutVarint(nv.index_width);
  } else {
    const WholeVarMeta& wv = var.whole();
    out.PutU8(kVarWhole);
    wv.stamp.WriteTo(out);
    out.PutU32(wv.capsule);
  }
}

Result<VarMeta> ReadVarMeta(ByteReader& in) {
  Result<uint8_t> kind = in.ReadU8();
  if (!kind.ok()) {
    return kind.status();
  }
  VarMeta var;
  switch (*kind) {
    case kVarReal: {
      RealVarMeta rv;
      Result<RuntimePattern> pattern = RuntimePattern::ReadFrom(in);
      if (!pattern.ok()) {
        return pattern.status();
      }
      rv.pattern = std::move(*pattern);
      Result<uint64_t> n = in.ReadVarint();
      if (!n.ok()) {
        return n.status();
      }
      for (uint64_t i = 0; i < *n; ++i) {
        Result<CapsuleStamp> stamp = CapsuleStamp::ReadFrom(in);
        if (!stamp.ok()) {
          return stamp.status();
        }
        rv.subvar_stamps.push_back(*stamp);
        Result<uint64_t> cap = in.ReadVarint();
        if (!cap.ok()) {
          return cap.status();
        }
        rv.subvar_capsules.push_back(static_cast<uint32_t>(*cap));
      }
      Result<std::vector<uint32_t>> outliers = ReadDeltaRows(in);
      if (!outliers.ok()) {
        return outliers.status();
      }
      rv.outlier_rows = std::move(*outliers);
      Result<uint32_t> ocap = in.ReadU32();
      if (!ocap.ok()) {
        return ocap.status();
      }
      rv.outlier_capsule = *ocap;
      var.repr = std::move(rv);
      return var;
    }
    case kVarNominal: {
      NominalVarMeta nv;
      Result<uint64_t> n = in.ReadVarint();
      if (!n.ok()) {
        return n.status();
      }
      for (uint64_t i = 0; i < *n; ++i) {
        NominalPatternMeta p;
        Result<RuntimePattern> pattern = RuntimePattern::ReadFrom(in);
        if (!pattern.ok()) {
          return pattern.status();
        }
        p.pattern = std::move(*pattern);
        Result<CapsuleStamp> stamp = CapsuleStamp::ReadFrom(in);
        if (!stamp.ok()) {
          return stamp.status();
        }
        p.stamp = *stamp;
        Result<uint64_t> count = in.ReadVarint();
        if (!count.ok()) {
          return count.status();
        }
        Result<uint32_t> count32 = CheckedU32(*count, "nominal section count");
        if (!count32.ok()) {
          return count32.status();
        }
        p.count = *count32;
        nv.patterns.push_back(std::move(p));
      }
      Result<uint32_t> dict = in.ReadU32();
      if (!dict.ok()) {
        return dict.status();
      }
      nv.dict_capsule = *dict;
      Result<uint32_t> index = in.ReadU32();
      if (!index.ok()) {
        return index.status();
      }
      nv.index_capsule = *index;
      Result<uint64_t> width = in.ReadVarint();
      if (!width.ok()) {
        return width.status();
      }
      Result<uint32_t> width32 = CheckedU32(*width, "nominal index width");
      if (!width32.ok()) {
        return width32.status();
      }
      nv.index_width = *width32;
      var.repr = std::move(nv);
      return var;
    }
    case kVarWhole: {
      WholeVarMeta wv;
      Result<CapsuleStamp> stamp = CapsuleStamp::ReadFrom(in);
      if (!stamp.ok()) {
        return stamp.status();
      }
      wv.stamp = *stamp;
      Result<uint32_t> cap = in.ReadU32();
      if (!cap.ok()) {
        return cap.status();
      }
      wv.capsule = *cap;
      var.repr = std::move(wv);
      return var;
    }
    default:
      return CorruptData("capsule_box: unknown variable encoding");
  }
}

}  // namespace

uint32_t CapsuleBoxBuilder::AddCapsule(std::string_view raw) {
  const std::string compressed = codec_.Compress(raw);
  const uint32_t id = static_cast<uint32_t>(directory_.size());
  directory_.emplace_back(payload_.size(), compressed.size());
  payload_ += compressed;
  return id;
}

std::string CapsuleBoxBuilder::Finish(const CapsuleBoxMeta& meta) && {
  ByteWriter mw;
  mw.PutU8(meta.codec_id);
  mw.PutU8(meta.padded ? 1 : 0);
  mw.PutVarint(meta.total_lines);
  mw.PutVarint(meta.templates.size());
  for (const StaticPattern& t : meta.templates) {
    t.WriteTo(mw);
  }
  mw.PutVarint(meta.groups.size());
  for (const GroupMeta& g : meta.groups) {
    mw.PutVarint(g.template_id);
    mw.PutVarint(g.row_count);
    WriteDeltaRows(mw, g.line_numbers);
    mw.PutVarint(g.vars.size());
    for (const VarMeta& v : g.vars) {
      WriteVarMeta(mw, v);
    }
  }
  mw.PutU32(meta.outlier_capsule);
  WriteDeltaRows(mw, meta.outlier_line_numbers);
  mw.PutVarint(directory_.size());
  for (const auto& [offset, length] : directory_) {
    mw.PutVarint(offset);
    mw.PutVarint(length);
  }

  ByteWriter out;
  out.PutU32(kMagic);
  out.PutU8(kVersion);
  out.PutLengthPrefixed(mw.data());
  out.PutBytes(payload_);
  return std::move(out).Take();
}

Result<CapsuleBox> CapsuleBox::Open(std::string_view bytes) {
  ByteReader in(bytes);
  Result<uint32_t> magic = in.ReadU32();
  if (!magic.ok()) {
    return magic.status();
  }
  if (*magic != kMagic) {
    return CorruptData("capsule_box: bad magic");
  }
  Result<uint8_t> version = in.ReadU8();
  if (!version.ok()) {
    return version.status();
  }
  if (*version != kVersion) {
    return CorruptData("capsule_box: unsupported version");
  }
  Result<std::string_view> meta_bytes = in.ReadLengthPrefixed();
  if (!meta_bytes.ok()) {
    return meta_bytes.status();
  }

  CapsuleBox box;
  ByteReader mr(*meta_bytes);
  Result<uint8_t> codec_id = mr.ReadU8();
  if (!codec_id.ok()) {
    return codec_id.status();
  }
  box.meta_.codec_id = *codec_id;
  Result<uint8_t> padded = mr.ReadU8();
  if (!padded.ok()) {
    return padded.status();
  }
  box.meta_.padded = (*padded != 0);
  Result<uint64_t> total = mr.ReadVarint();
  if (!total.ok()) {
    return total.status();
  }
  Result<uint32_t> total32 = CheckedU32(*total, "total line count");
  if (!total32.ok()) {
    return total32.status();
  }
  box.meta_.total_lines = *total32;

  Result<uint64_t> num_templates = mr.ReadVarint();
  if (!num_templates.ok()) {
    return num_templates.status();
  }
  for (uint64_t i = 0; i < *num_templates; ++i) {
    Result<StaticPattern> t = StaticPattern::ReadFrom(mr);
    if (!t.ok()) {
      return t.status();
    }
    box.meta_.templates.push_back(std::move(*t));
  }

  Result<uint64_t> num_groups = mr.ReadVarint();
  if (!num_groups.ok()) {
    return num_groups.status();
  }
  for (uint64_t i = 0; i < *num_groups; ++i) {
    GroupMeta g;
    Result<uint64_t> tid = mr.ReadVarint();
    if (!tid.ok()) {
      return tid.status();
    }
    g.template_id = static_cast<uint32_t>(*tid);
    Result<uint64_t> rows = mr.ReadVarint();
    if (!rows.ok()) {
      return rows.status();
    }
    Result<uint32_t> rows32 = CheckedU32(*rows, "group row count");
    if (!rows32.ok()) {
      return rows32.status();
    }
    g.row_count = *rows32;
    Result<std::vector<uint32_t>> line_numbers = ReadDeltaRows(mr);
    if (!line_numbers.ok()) {
      return line_numbers.status();
    }
    g.line_numbers = std::move(*line_numbers);
    Result<uint64_t> num_vars = mr.ReadVarint();
    if (!num_vars.ok()) {
      return num_vars.status();
    }
    for (uint64_t v = 0; v < *num_vars; ++v) {
      Result<VarMeta> var = ReadVarMeta(mr);
      if (!var.ok()) {
        return var.status();
      }
      g.vars.push_back(std::move(*var));
    }
    box.meta_.groups.push_back(std::move(g));
  }

  Result<uint32_t> outlier_cap = mr.ReadU32();
  if (!outlier_cap.ok()) {
    return outlier_cap.status();
  }
  box.meta_.outlier_capsule = *outlier_cap;
  Result<std::vector<uint32_t>> outlier_lines = ReadDeltaRows(mr);
  if (!outlier_lines.ok()) {
    return outlier_lines.status();
  }
  box.meta_.outlier_line_numbers = std::move(*outlier_lines);

  Result<uint64_t> num_capsules = mr.ReadVarint();
  if (!num_capsules.ok()) {
    return num_capsules.status();
  }
  for (uint64_t i = 0; i < *num_capsules; ++i) {
    Result<uint64_t> offset = mr.ReadVarint();
    if (!offset.ok()) {
      return offset.status();
    }
    Result<uint64_t> length = mr.ReadVarint();
    if (!length.ok()) {
      return length.status();
    }
    box.directory_.emplace_back(*offset, *length);
  }

  Result<std::string_view> payload = in.ReadBytes(in.remaining());
  if (!payload.ok()) {
    return payload.status();
  }
  box.payload_ = *payload;
  // Validate directory bounds once here so ReadCapsule stays cheap. The
  // two-step comparison is immune to the uint64 wrap a hostile
  // offset + length pair can produce (e.g. offset = 2^64 - 1, length = 2).
  for (const auto& [offset, length] : box.directory_) {
    if (length > box.payload_.size() ||
        offset > box.payload_.size() - length) {
      return CorruptData("capsule_box: directory entry out of bounds");
    }
  }
  // Referential integrity: everything the query path will index with must
  // be in range before the box is handed out.
  Status valid = ValidateMeta(box.meta_, box.directory_.size());
  if (!valid.ok()) {
    return valid;
  }
  return box;
}

Result<std::string> CapsuleBox::ReadCapsule(uint32_t id) const {
  if (id >= directory_.size()) {
    return NotFound("capsule_box: capsule id out of range");
  }
  const auto& [offset, length] = directory_[id];
  return DecompressAny(payload_.substr(offset, length));
}

}  // namespace loggrep

#include "src/query/reconstructor.h"

#include <algorithm>

#include "src/capsule/capsule.h"

namespace loggrep {
namespace {

uint32_t ParseDecimal(std::string_view cell) {
  uint32_t v = 0;
  for (char c : cell) {
    if (c < '0' || c > '9') {
      break;
    }
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  return v;
}

}  // namespace

std::string_view Reconstructor::VariableValueView(uint32_t group_idx,
                                                  uint32_t slot,
                                                  uint32_t row) {
  const CapsuleBoxMeta& meta = querier_->box().meta();
  const GroupMeta& group = meta.groups[group_idx];
  const VarMeta& var = group.vars[slot];
  const bool padded = meta.padded;

  if (var.is_whole()) {
    const WholeVarMeta& wv = var.whole();
    if (padded) {
      const std::string_view blob = querier_->CapsuleBlob(wv.capsule);
      return TrimCell(PaddedCell(blob, wv.stamp.PadWidth(), row));
    }
    const std::vector<std::string_view>& values =
        querier_->DelimitedValues(wv.capsule);
    return row < values.size() ? values[row] : std::string_view();
  }

  if (var.is_real()) {
    const RealVarMeta& rv = var.real();
    // Outlier rows come from the outlier Capsule.
    const auto out_it =
        std::lower_bound(rv.outlier_rows.begin(), rv.outlier_rows.end(), row);
    if (out_it != rv.outlier_rows.end() && *out_it == row) {
      const size_t outlier_idx =
          static_cast<size_t>(out_it - rv.outlier_rows.begin());
      const std::vector<std::string_view>& outliers =
          querier_->DelimitedValues(rv.outlier_capsule);
      return outlier_idx < outliers.size() ? outliers[outlier_idx]
                                           : std::string_view();
    }
    // Present row: rank within non-outlier rows.
    const uint32_t skipped = static_cast<uint32_t>(
        out_it - rv.outlier_rows.begin());
    const uint32_t present_idx = row - skipped;
    const uint32_t num_subvars = rv.pattern.SubVarCount();
    subvalue_views_.assign(num_subvars, std::string_view());
    for (uint32_t sv = 0; sv < num_subvars; ++sv) {
      if (padded) {
        const std::string_view blob =
            querier_->CapsuleBlob(rv.subvar_capsules[sv]);
        subvalue_views_[sv] = TrimCell(
            PaddedCell(blob, rv.subvar_stamps[sv].PadWidth(), present_idx));
      } else {
        const std::vector<std::string_view>& col =
            querier_->DelimitedValues(rv.subvar_capsules[sv]);
        subvalue_views_[sv] = present_idx < col.size() ? col[present_idx]
                                                       : std::string_view();
      }
    }
    // The only copy on this path: splice sub-variables into the pattern,
    // parked in the arena so the view outlives the scratch buffer's reuse.
    render_scratch_.clear();
    rv.pattern.RenderTo(subvalue_views_, &render_scratch_);
    return arena_.Store(render_scratch_);
  }

  const NominalVarMeta& nv = var.nominal();
  uint32_t dict_id = 0;
  if (padded) {
    const std::string_view index_blob = querier_->CapsuleBlob(nv.index_capsule);
    const uint32_t width = nv.index_width == 0 ? 1 : nv.index_width;
    dict_id = ParseDecimal(PaddedCell(index_blob, width, row));
  } else {
    const std::vector<std::string_view>& cells =
        querier_->DelimitedValues(nv.index_capsule);
    dict_id = row < cells.size() ? ParseDecimal(cells[row]) : 0;
  }
  // Locate the dictionary section holding dict_id; sections are laid out in
  // pattern order with known counts and widths (§5.2 direct locating).
  uint32_t first_id = 0;
  uint64_t byte_offset = 0;
  for (const NominalPatternMeta& pm : nv.patterns) {
    if (dict_id < first_id + pm.count) {
      if (padded) {
        const std::string_view dict_blob = querier_->CapsuleBlob(nv.dict_capsule);
        const uint32_t width = pm.stamp.PadWidth();
        const uint64_t cell_off =
            byte_offset + static_cast<uint64_t>(dict_id - first_id) * width;
        if (cell_off >= dict_blob.size()) {
          return {};  // truncated/corrupt dictionary Capsule
        }
        return TrimCell(dict_blob.substr(cell_off, width));
      }
      const std::vector<std::string_view>& values =
          querier_->DelimitedValues(nv.dict_capsule);
      return dict_id < values.size() ? values[dict_id] : std::string_view();
    }
    first_id += pm.count;
    byte_offset += static_cast<uint64_t>(pm.count) * pm.stamp.PadWidth();
  }
  return {};
}

void Reconstructor::RenderRowTo(uint32_t group_idx, uint32_t row,
                                std::string* out) {
  const CapsuleBoxMeta& meta = querier_->box().meta();
  const GroupMeta& group = meta.groups[group_idx];
  const StaticPattern& tmpl = meta.templates[group.template_id];
  arena_.Reset();  // invalidates the previous row's pattern-rendered values
  value_views_.clear();
  value_views_.reserve(group.vars.size());
  for (uint32_t slot = 0; slot < group.vars.size(); ++slot) {
    value_views_.push_back(VariableValueView(group_idx, slot, row));
  }
  tmpl.RenderTo(value_views_, out);
}

void Reconstructor::RenderOutlierTo(uint32_t outlier_idx, std::string* out) {
  const CapsuleBoxMeta& meta = querier_->box().meta();
  if (meta.outlier_capsule == kNoCapsule) {
    return;
  }
  const std::vector<std::string_view>& lines =
      querier_->DelimitedValues(meta.outlier_capsule);
  if (outlier_idx < lines.size()) {
    out->append(lines[outlier_idx]);
  }
}

}  // namespace loggrep

#include "src/query/locator.h"

#include <algorithm>

#include "src/capsule/capsule.h"
#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/query/fixed_matcher.h"
#include "src/query/wildcard.h"

namespace loggrep {
namespace {

// Which stamp check rejected `keyword` (assumes the stamp did reject it):
// the max-length bound or the character-class mask.
CapsuleFate StampRejectFate(const CapsuleStamp& stamp, std::string_view keyword,
                            bool wildcard_aware) {
  if (wildcard_aware && HasWildcards(keyword)) {
    uint32_t min_len = 0;
    for (char c : keyword) {
      if (c != '*') {
        ++min_len;
      }
    }
    return min_len > stamp.max_len ? CapsuleFate::kStampLenReject
                                   : CapsuleFate::kStampMaskReject;
  }
  return keyword.size() > stamp.max_len ? CapsuleFate::kStampLenReject
                                        : CapsuleFate::kStampMaskReject;
}

}  // namespace

bool StampAdmitsKeyword(const CapsuleStamp& stamp, std::string_view keyword) {
  if (!HasWildcards(keyword)) {
    return stamp.AdmitsFragment(keyword);
  }
  return stamp.AdmitsProbe(ProbeForKeyword(keyword));
}

const StampProbe& BoxQuerier::ProbeFor(std::string_view keyword,
                                       bool wildcard_aware) {
  auto& cache =
      wildcard_aware && HasWildcards(keyword) ? wildcard_probes_ : literal_probes_;
  const auto it = cache.find(keyword);
  if (it != cache.end()) {
    return it->second;
  }
  const StampProbe probe = wildcard_aware && HasWildcards(keyword)
                               ? ProbeForKeyword(keyword)
                               : ProbeForFragment(keyword);
  return cache.emplace(std::string(keyword), probe).first->second;
}

bool BoxQuerier::StampAdmits(const CapsuleStamp& stamp,
                             std::string_view keyword, bool wildcard_aware) {
  const WallTimer timer;
  const bool admits = stamp.AdmitsProbe(ProbeFor(keyword, wildcard_aware));
  stats_.stamp_filter_nanos += timer.ElapsedNanos();
  return admits;
}

const CachedCapsule* BoxQuerier::FetchCachedCapsule(uint32_t id) {
  const auto pinned = capsule_pins_.find(id);
  if (pinned != capsule_pins_.end()) {
    return pinned->second.get();
  }
  bool was_hit = false;
  const TraceSpan span("locator.fetch_capsule", "query", "capsule", id);
  const WallTimer timer;
  Result<std::shared_ptr<const CachedCapsule>> entry = cache_.GetOrLoadCapsule(
      key_, id, [this, id] { return box_.ReadCapsule(id); }, &was_hit);
  stats_.decompress_nanos += timer.ElapsedNanos();
  if (!entry.ok()) {
    LatchError(entry.status());
    return nullptr;
  }
  const CachedCapsule* capsule =
      capsule_pins_.emplace(id, std::move(*entry)).first->second.get();
  if (was_hit) {
    ++stats_.cache_hits;
    stats_.bytes_saved += capsule->blob().size();
  } else {
    ++stats_.cache_misses;
    ++stats_.capsules_decompressed;
    stats_.bytes_decompressed += capsule->blob().size();
  }
  if (explain_ != nullptr) {
    explain_->Record(id,
                     was_hit ? CapsuleFate::kCacheHit
                             : CapsuleFate::kDecompressed,
                     capsule->blob().size());
  }
  return capsule;
}

std::string_view BoxQuerier::CapsuleBlob(uint32_t id) {
  const CachedCapsule* capsule = FetchCachedCapsule(id);
  return capsule != nullptr ? std::string_view(capsule->blob())
                            : std::string_view();
}

const std::vector<std::string_view>& BoxQuerier::DelimitedValues(uint32_t id) {
  const CachedCapsule* capsule = FetchCachedCapsule(id);
  return capsule != nullptr ? capsule->splits() : empty_values_;
}

const std::vector<uint32_t>& BoxQuerier::PresentRows(uint32_t group_idx,
                                                     uint32_t slot) {
  const uint64_t key = (static_cast<uint64_t>(group_idx) << 32) | slot;
  const auto it = present_rows_cache_.find(key);
  if (it != present_rows_cache_.end()) {
    return it->second;
  }
  const GroupMeta& group = box_.meta().groups[group_idx];
  const RealVarMeta& rv = group.vars[slot].real();
  std::vector<uint32_t> present;
  // outlier_rows.size() <= row_count is guaranteed by CapsuleBox::Open's
  // metadata validation; guard anyway so a future caller can't underflow.
  present.reserve(group.row_count >= rv.outlier_rows.size()
                      ? group.row_count - rv.outlier_rows.size()
                      : 0);
  size_t next_outlier = 0;
  for (uint32_t row = 0; row < group.row_count; ++row) {
    if (next_outlier < rv.outlier_rows.size() &&
        rv.outlier_rows[next_outlier] == row) {
      ++next_outlier;
    } else {
      present.push_back(row);
    }
  }
  return present_rows_cache_.emplace(key, std::move(present)).first->second;
}

void BoxQuerier::ExplainGroupCapsules(const GroupMeta& group,
                                      CapsuleFate fate) {
  for (const VarMeta& var : group.vars) {
    if (var.is_whole()) {
      if (var.whole().capsule != kNoCapsule) {
        explain_->Record(var.whole().capsule, fate);
      }
    } else if (var.is_real()) {
      const RealVarMeta& rv = var.real();
      for (uint32_t capsule : rv.subvar_capsules) {
        explain_->Record(capsule, fate);
      }
      if (rv.outlier_capsule != kNoCapsule) {
        explain_->Record(rv.outlier_capsule, fate);
      }
    } else {
      const NominalVarMeta& nv = var.nominal();
      if (nv.dict_capsule != kNoCapsule) {
        explain_->Record(nv.dict_capsule, fate);
      }
      if (nv.index_capsule != kNoCapsule) {
        explain_->Record(nv.index_capsule, fate);
      }
    }
  }
}

RowSet BoxQuerier::MatchKeywordInGroup(uint32_t group_idx,
                                       std::string_view keyword) {
  const GroupMeta& group = box_.meta().groups[group_idx];
  const StaticPattern& tmpl = box_.meta().templates[group.template_id];
  // Static pattern hit: the keyword is contained in a constant token, so
  // every entry of the group matches — none of the group's Capsules need to
  // be consulted at all.
  for (const StaticPattern::Tok& tok : tmpl.tokens()) {
    if (!tok.is_var && KeywordHitsToken(keyword, tok.text)) {
      if (explain_ != nullptr) {
        explain_->BeginVisit(group_idx, -1, "group", keyword);
        ExplainGroupCapsules(group, CapsuleFate::kStaticHit);
      }
      return RowSet::All(group.row_count);
    }
  }
  RowSet rows = RowSet::None(group.row_count);
  for (uint32_t slot = 0; slot < group.vars.size(); ++slot) {
    if (rows.IsAll()) {
      break;
    }
    RowSet var_rows = RowSet::None(group.row_count);
    const VarMeta& var = group.vars[slot];
    if (var.is_whole()) {
      if (explain_ != nullptr) {
        explain_->BeginVisit(group_idx, static_cast<int32_t>(slot), "whole",
                             keyword);
      }
      var_rows = MatchInWhole(group, var.whole(), keyword);
    } else if (var.is_real()) {
      if (explain_ != nullptr) {
        explain_->BeginVisit(group_idx, static_cast<int32_t>(slot), "real",
                             keyword);
      }
      var_rows = MatchInReal(group, group_idx, slot, var.real(), keyword);
    } else {
      if (explain_ != nullptr) {
        explain_->BeginVisit(group_idx, static_cast<int32_t>(slot), "nominal",
                             keyword);
      }
      var_rows = MatchInNominal(group, var.nominal(), keyword);
    }
    rows = rows.UnionWith(var_rows);
  }
  return rows;
}

RowSet BoxQuerier::MatchKeywordInOutliers(std::string_view keyword) {
  const CapsuleBoxMeta& meta = box_.meta();
  const uint32_t universe =
      static_cast<uint32_t>(meta.outlier_line_numbers.size());
  if (meta.outlier_capsule == kNoCapsule || universe == 0) {
    return RowSet::None(universe);
  }
  if (explain_ != nullptr) {
    explain_->BeginVisit(0, -1, "outliers", keyword);
  }
  const std::vector<std::string_view>& lines =
      DelimitedValues(meta.outlier_capsule);
  std::vector<uint32_t> hits;
  for (uint32_t i = 0; i < lines.size(); ++i) {
    // Raw lines: the keyword hits if it is contained in any token.
    for (std::string_view token : TokenizeKeywords(lines[i])) {
      if (KeywordHitsToken(keyword, token)) {
        hits.push_back(i);
        break;
      }
    }
  }
  return RowSet::Of(universe, std::move(hits));
}

RowSet BoxQuerier::MatchInWhole(const GroupMeta& group, const WholeVarMeta& wv,
                                std::string_view keyword) {
  if (options_.use_stamps &&
      !StampAdmits(wv.stamp, keyword, /*wildcard_aware=*/true)) {
    ++stats_.capsules_stamp_filtered;
    if (explain_ != nullptr && wv.capsule != kNoCapsule) {
      explain_->Record(wv.capsule, StampRejectFate(wv.stamp, keyword, true));
    }
    return RowSet::None(group.row_count);
  }
  const bool wild = HasWildcards(keyword);
  std::vector<uint32_t> hits;
  if (box_.meta().padded) {
    const std::string_view blob = CapsuleBlob(wv.capsule);
    const uint32_t width = wv.stamp.PadWidth();
    if (wild) {
      const uint32_t count = static_cast<uint32_t>(
          std::min<uint64_t>(blob.size() / width, kMaxColumnRows));
      for (uint32_t row = 0; row < count; ++row) {
        if (KeywordHitsToken(keyword, TrimCell(PaddedCell(blob, width, row)))) {
          hits.push_back(row);
        }
      }
    } else {
      hits = SearchPaddedColumn(blob, width, FragmentMode::kSub, keyword,
                                options_.use_bm);
    }
  } else {
    const std::vector<std::string_view>& values = DelimitedValues(wv.capsule);
    for (uint32_t row = 0; row < values.size(); ++row) {
      const bool hit = wild ? KeywordHitsToken(keyword, values[row])
                            : !KmpSearch(values[row], keyword).empty();
      if (hit) {
        hits.push_back(row);
      }
    }
  }
  return RowSet::Of(group.row_count, std::move(hits));
}

std::vector<uint32_t> BoxQuerier::EvaluateConstraints(const RealVarMeta& rv,
                                                      const PossibleMatch& match) {
  std::vector<uint32_t> candidate_rows;  // present-row indices
  bool first = true;
  for (const SubVarConstraint& c : match.constraints) {
    const CapsuleStamp& stamp = rv.subvar_stamps[c.subvar];
    if (options_.use_stamps &&
        !StampAdmits(stamp, c.fragment, /*wildcard_aware=*/false)) {
      ++stats_.capsules_stamp_filtered;
      if (explain_ != nullptr) {
        explain_->Record(rv.subvar_capsules[c.subvar],
                         StampRejectFate(stamp, c.fragment, false));
      }
      return {};
    }
    const uint32_t capsule = rv.subvar_capsules[c.subvar];
    if (box_.meta().padded) {
      const std::string_view blob = CapsuleBlob(capsule);
      const uint32_t width = rv.subvar_stamps[c.subvar].PadWidth();
      if (first) {
        candidate_rows = SearchPaddedColumn(blob, width, c.mode, c.fragment,
                                            options_.use_bm);
        first = false;
      } else {
        // Direct row checking (§5.2): only revisit surviving candidates.
        candidate_rows =
            CheckPaddedRows(blob, width, c.mode, c.fragment, candidate_rows);
      }
    } else {
      const std::string_view blob = CapsuleBlob(capsule);
      std::vector<uint32_t> rows =
          SearchDelimitedColumn(blob, c.mode, c.fragment);
      if (first) {
        candidate_rows = std::move(rows);
        first = false;
      } else {
        std::vector<uint32_t> merged;
        std::set_intersection(candidate_rows.begin(), candidate_rows.end(),
                              rows.begin(), rows.end(),
                              std::back_inserter(merged));
        candidate_rows = std::move(merged);
      }
    }
    if (candidate_rows.empty()) {
      return {};
    }
  }
  return candidate_rows;
}

RowSet BoxQuerier::MatchInReal(const GroupMeta& group, uint32_t group_idx,
                               uint32_t slot, const RealVarMeta& rv,
                               std::string_view keyword) {
  RowSet rows = RowSet::None(group.row_count);

  // Outlier values never follow the pattern; scan them directly.
  if (rv.outlier_capsule != kNoCapsule) {
    const std::vector<std::string_view>& outliers =
        DelimitedValues(rv.outlier_capsule);
    std::vector<uint32_t> hits;
    for (uint32_t i = 0; i < outliers.size(); ++i) {
      if (KeywordHitsToken(keyword, outliers[i])) {
        hits.push_back(rv.outlier_rows[i]);
      }
    }
    rows = rows.UnionWith(RowSet::Of(group.row_count, std::move(hits)));
  }

  // CapsuleBox::Open validates outlier_rows as strictly increasing and below
  // row_count, so the present-row count is exact. The present -> group row
  // mapping is built only once some present row is known to hit, and never
  // without outliers (it is the identity then).
  const uint32_t present_count =
      group.row_count - static_cast<uint32_t>(rv.outlier_rows.size());
  if (present_count == 0) {
    return rows;
  }
  const bool identity = rv.outlier_rows.empty();
  const auto to_group_rows = [&](std::vector<uint32_t> present_hits) {
    // A corrupt column may decode to more cells than there are present rows;
    // cells past the end belong to no row.
    present_hits.erase(std::lower_bound(present_hits.begin(),
                                        present_hits.end(), present_count),
                       present_hits.end());
    if (!identity) {
      const std::vector<uint32_t>& present = PresentRows(group_idx, slot);
      for (uint32_t& p : present_hits) {
        p = present[p];
      }
    }
    return RowSet::Of(group.row_count, std::move(present_hits));
  };

  if (HasWildcards(keyword)) {
    // Wildcard fallback: materialize full values of present rows.
    const uint32_t num_subvars = rv.pattern.SubVarCount();
    std::vector<std::string_view> blobs(num_subvars);
    std::vector<const std::vector<std::string_view>*> cols(num_subvars, nullptr);
    for (uint32_t sv = 0; sv < num_subvars; ++sv) {
      if (box_.meta().padded) {
        blobs[sv] = CapsuleBlob(rv.subvar_capsules[sv]);
      } else {
        cols[sv] = &DelimitedValues(rv.subvar_capsules[sv]);
      }
    }
    std::vector<uint32_t> hits;
    std::vector<std::string_view> subvalues(num_subvars);
    for (uint32_t p = 0; p < present_count; ++p) {
      for (uint32_t sv = 0; sv < num_subvars; ++sv) {
        if (box_.meta().padded) {
          subvalues[sv] =
              TrimCell(PaddedCell(blobs[sv], rv.subvar_stamps[sv].PadWidth(), p));
        } else {
          subvalues[sv] = (*cols[sv])[p];
        }
      }
      if (KeywordHitsToken(keyword, rv.pattern.Render(subvalues))) {
        hits.push_back(p);
      }
    }
    return rows.UnionWith(to_group_rows(std::move(hits)));
  }

  const std::vector<PossibleMatch> matches =
      MatchKeywordOnPattern(rv.pattern, keyword);
  if (explain_ != nullptr && matches.empty()) {
    // Runtime-pattern miss: no expansion of the pattern can contain the
    // keyword, so none of the sub-variable Capsules need to be opened.
    for (uint32_t capsule : rv.subvar_capsules) {
      explain_->Record(capsule, CapsuleFate::kPatternMiss);
    }
  }
  for (const PossibleMatch& match : matches) {
    if (match.trivial()) {
      if (explain_ != nullptr) {
        // Trivial possible match: every present row matches via the
        // pattern's constant fragments alone — Capsules stay closed.
        for (uint32_t capsule : rv.subvar_capsules) {
          explain_->Record(capsule, CapsuleFate::kPatternTrivial);
        }
      }
      rows = rows.UnionWith(
          identity ? RowSet::All(group.row_count)
                   : RowSet::Of(group.row_count, PresentRows(group_idx, slot)));
      break;
    }
    std::vector<uint32_t> present_hits = EvaluateConstraints(rv, match);
    if (present_hits.empty()) {
      continue;
    }
    rows = rows.UnionWith(to_group_rows(std::move(present_hits)));
  }
  return rows;
}

RowSet BoxQuerier::MatchInNominal(const GroupMeta& group,
                                  const NominalVarMeta& nv,
                                  std::string_view keyword) {
  const bool wild = HasWildcards(keyword);

  // Phase 1: find matching dictionary ids, section by section. A section is
  // only scanned when the keyword can match its runtime pattern and passes
  // its stamp (§5.1 "differences for nominal variable vectors").
  std::vector<uint32_t> dict_ids;
  uint32_t first_id = 0;
  uint64_t byte_offset = 0;
  const std::vector<std::string_view>* dict_values = nullptr;
  std::string_view dict_blob;
  bool dict_fetched = false;  // decompress lazily: stamps may filter it all
  // First prune reason, for the explain record when no section survives.
  CapsuleFate prune_fate = CapsuleFate::kPatternMiss;
  bool have_prune_fate = false;
  const auto note_prune = [&](CapsuleFate fate) {
    if (!have_prune_fate) {
      prune_fate = fate;
      have_prune_fate = true;
    }
  };
  // Batched stamp evaluation: the keyword is classified once (memoized
  // probe), then every section stamp is tested in one timed pass — two
  // integer compares per section instead of a re-classification each.
  if (options_.use_stamps) {
    const StampProbe& probe = ProbeFor(keyword, /*wildcard_aware=*/wild);
    const WallTimer timer;
    stamp_admits_.resize(nv.patterns.size());
    for (size_t i = 0; i < nv.patterns.size(); ++i) {
      stamp_admits_[i] = nv.patterns[i].stamp.AdmitsProbe(probe);
    }
    stats_.stamp_filter_nanos += timer.ElapsedNanos();
  }
  for (size_t pm_idx = 0; pm_idx < nv.patterns.size(); ++pm_idx) {
    const NominalPatternMeta& pm = nv.patterns[pm_idx];
    const uint32_t width = pm.stamp.PadWidth();
    const bool stamp_admits = !options_.use_stamps || stamp_admits_[pm_idx];
    bool candidate = true;
    // The stamp-filter counter and explain fates keep the original order:
    // a section pruned by its runtime pattern is never charged to the stamp.
    if (!wild) {
      if (!PatternAdmitsKeyword(pm.pattern, keyword)) {
        note_prune(CapsuleFate::kPatternMiss);
        candidate = false;
      } else if (!stamp_admits) {
        ++stats_.capsules_stamp_filtered;
        note_prune(StampRejectFate(pm.stamp, keyword, false));
        candidate = false;
      }
    } else if (!stamp_admits) {
      ++stats_.capsules_stamp_filtered;
      note_prune(StampRejectFate(pm.stamp, keyword, true));
      candidate = false;
    }
    if (candidate) {
      // Jump straight to this section (sum of count*len of prior patterns).
      for (uint32_t i = 0; i < pm.count; ++i) {
        std::string_view value;
        if (box_.meta().padded) {
          if (!dict_fetched) {
            dict_blob = CapsuleBlob(nv.dict_capsule);
            dict_fetched = true;
          }
          // A corrupt Capsule can decompress to a blob shorter than the
          // metadata's section sizes imply; clamp instead of letting substr
          // throw past the end.
          const uint64_t cell_off =
              byte_offset + static_cast<uint64_t>(i) * width;
          if (cell_off >= dict_blob.size()) {
            break;  // nothing left to scan in this truncated dictionary
          }
          value = TrimCell(dict_blob.substr(cell_off, width));
        } else {
          if (dict_values == nullptr) {
            dict_values = &DelimitedValues(nv.dict_capsule);
          }
          if (first_id + i >= dict_values->size()) {
            break;  // truncated delimited dictionary
          }
          value = (*dict_values)[first_id + i];
        }
        const bool hit = wild ? KeywordHitsToken(keyword, value)
                              : value.find(keyword) != std::string_view::npos;
        if (hit) {
          dict_ids.push_back(first_id + i);
        }
      }
    }
    first_id += pm.count;
    byte_offset += static_cast<uint64_t>(pm.count) * width;
  }
  if (explain_ != nullptr && !dict_fetched && dict_values == nullptr &&
      nv.dict_capsule != kNoCapsule) {
    // The dictionary Capsule was never opened: every section was pruned by
    // its runtime pattern or stamp (record the first reason encountered).
    explain_->Record(nv.dict_capsule, prune_fate);
  }
  if (dict_ids.empty()) {
    if (explain_ != nullptr && nv.index_capsule != kNoCapsule) {
      // No dictionary value matched, so the row index is never consulted.
      explain_->Record(nv.index_capsule, CapsuleFate::kPatternMiss);
    }
    return RowSet::None(group.row_count);
  }

  // Phase 2: map dictionary ids to rows via the index Capsule.
  std::vector<bool> wanted(first_id, false);
  for (uint32_t id : dict_ids) {
    wanted[id] = true;
  }
  std::vector<uint32_t> hits;
  auto parse_id = [](std::string_view cell) -> uint32_t {
    uint32_t v = 0;
    for (char c : cell) {
      if (c < '0' || c > '9') {
        break;
      }
      v = v * 10 + static_cast<uint32_t>(c - '0');
    }
    return v;
  };
  if (box_.meta().padded) {
    const std::string_view index_blob = CapsuleBlob(nv.index_capsule);
    const uint32_t width = nv.index_width == 0 ? 1 : nv.index_width;
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(index_blob.size() / width, kMaxColumnRows));
    for (uint32_t row = 0; row < count; ++row) {
      const uint32_t id = parse_id(PaddedCell(index_blob, width, row));
      if (id < wanted.size() && wanted[id]) {
        hits.push_back(row);
      }
    }
  } else {
    const std::vector<std::string_view>& cells = DelimitedValues(nv.index_capsule);
    for (uint32_t row = 0; row < cells.size(); ++row) {
      const uint32_t id = parse_id(cells[row]);
      if (id < wanted.size() && wanted[id]) {
        hits.push_back(row);
      }
    }
  }
  return RowSet::Of(group.row_count, std::move(hits));
}

}  // namespace loggrep

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/parser/block_parser.h"
#include "src/parser/template_miner.h"
#include "src/pattern/tree_extractor.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace {

TEST(DatasetsTest, CatalogIsComplete) {
  EXPECT_EQ(AllDatasets().size(), 37u);
  EXPECT_EQ(ProductionDatasets().size(), 21u);  // Log A .. Log U
  EXPECT_EQ(AllDatasets().size() - ProductionDatasets().size(),
            16u);  // LogHub-style
  std::set<std::string> names;
  for (const DatasetSpec& d : AllDatasets()) {
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
    EXPECT_FALSE(d.templates.empty()) << d.name;
  }
  EXPECT_NE(FindDataset("Log A"), nullptr);
  EXPECT_NE(FindDataset("Zookeeper"), nullptr);
  EXPECT_EQ(FindDataset("No Such Log"), nullptr);
}

TEST(DatasetsTest, EveryDatasetHasAQuery) {
  for (const DatasetSpec& d : AllDatasets()) {
    EXPECT_FALSE(QueryForDataset(d.name).empty()) << d.name;
    EXPECT_GE(QuerySuiteForDataset(d.name).size(), 3u) << d.name;
  }
  EXPECT_TRUE(QueryForDataset("No Such Log").empty());
}

TEST(LogGeneratorTest, DeterministicAndSized) {
  const DatasetSpec* spec = FindDataset("Log G");
  ASSERT_NE(spec, nullptr);
  const LogGenerator gen(*spec);
  const std::string a = gen.Generate(10000);
  const std::string b = gen.Generate(10000);
  EXPECT_EQ(a, b);
  EXPECT_GE(a.size(), 10000u);
  EXPECT_EQ(a.back(), '\n');
  const std::string c = gen.GenerateLines(17);
  EXPECT_EQ(SplitLines(c).size(), 17u);
}

TEST(LogGeneratorTest, DifferentSeedsDiffer) {
  DatasetSpec spec = *FindDataset("Log G");
  const std::string a = LogGenerator(spec).GenerateLines(50);
  spec.seed += 1;
  const std::string b = LogGenerator(spec).GenerateLines(50);
  EXPECT_NE(a, b);
}

TEST(LogGeneratorTest, LinesParseAgainstTheirTemplates) {
  // The generator's static structure should be minable: most lines of a
  // block parse into groups (few outliers). Blocks must be large enough for
  // the 5% sample to see every template (production blocks are 64 MB; 128 KiB
  // keeps the same property at test scale).
  for (const DatasetSpec& spec : AllDatasets()) {
    const std::string text = LogGenerator(spec).Generate(128 * 1024);
    const ParsedBlock block = BlockParser().Parse(text);
    const size_t outliers = block.outlier_lines.size();
    EXPECT_LE(outliers, SplitLines(text).size() / 10) << spec.name;
  }
}

TEST(LogGeneratorTest, TimestampsAreMonotonic) {
  const DatasetSpec* spec = FindDataset("Log C");
  const std::string text = LogGenerator(*spec).GenerateLines(100);
  std::string prev;
  for (std::string_view line : SplitLines(text)) {
    // Timestamp is the leading "2026-07-06 HH:MM:SS.mmm" chunk.
    const std::string ts(line.substr(0, 23));
    if (!prev.empty()) {
      EXPECT_GE(ts, prev);
    }
    prev = ts;
  }
}

TEST(LogGeneratorTest, RealAndNominalVariablesPresent) {
  // Log A has hex request ids (real, low dup) and state enums (nominal).
  const DatasetSpec* spec = FindDataset("Log A");
  const std::string text = LogGenerator(*spec).Generate(64 * 1024);
  const ParsedBlock block = BlockParser().Parse(text);
  bool saw_real = false;
  bool saw_nominal = false;
  for (const ParsedGroup& g : block.groups) {
    for (const auto& vv : g.var_vectors) {
      if (vv.size() < 20) {
        continue;
      }
      if (ClassifyVector(vv) == VectorClass::kReal) {
        saw_real = true;
      } else {
        saw_nominal = true;
      }
    }
  }
  EXPECT_TRUE(saw_real);
  EXPECT_TRUE(saw_nominal);
}

TEST(LogGeneratorTest, SharedHexPrefixFormsRuntimePattern) {
  // Log A request ids share the "5E9D" prefix -> extractable runtime pattern.
  const DatasetSpec* spec = FindDataset("Log A");
  const std::string text = LogGenerator(*spec).Generate(64 * 1024);
  bool found_prefixed = false;
  for (std::string_view line : SplitLines(text)) {
    if (line.find("reqId:5E9D") != std::string_view::npos) {
      found_prefixed = true;
      break;
    }
  }
  EXPECT_TRUE(found_prefixed);
}

}  // namespace
}  // namespace loggrep

#include <gtest/gtest.h>

#include <string>

#include "src/capsule/assembler.h"
#include "src/capsule/capsule.h"
#include "src/capsule/capsule_box.h"
#include "src/capsule/stamp.h"
#include "src/common/rng.h"

namespace loggrep {
namespace {

// ---- stamps -----------------------------------------------------------------

TEST(StampTest, OfComputesMaskAndMaxLen) {
  const CapsuleStamp s = CapsuleStamp::Of({"134", "179"});
  EXPECT_EQ(s.mask, 1);  // digits only: 000001b
  EXPECT_EQ(s.max_len, 3u);
  EXPECT_EQ(s.ToString(), "typ=1,len=3");
}

TEST(StampTest, PaperFigure6FilteringExamples) {
  // "<sv1>" stamp: typ=1,len=1; "<sv2>" stamp: typ=5,len=4.
  const CapsuleStamp sv1 = CapsuleStamp::Of({"1", "8", "2"});
  const CapsuleStamp sv2 = CapsuleStamp::Of({"1F", "F8FE", "E"});
  // Matching case 2 requires "8F8" in sv1: violates max-length -> filtered.
  EXPECT_FALSE(sv1.AdmitsFragment("8F8"));
  // Matching case 5 requires "8F8F" in sv2: passes both checks.
  EXPECT_TRUE(sv2.AdmitsFragment("8F8F"));
  // Type check: lowercase hex is not present in sv2.
  EXPECT_FALSE(sv2.AdmitsFragment("8f"));
}

TEST(StampTest, EmptyFragmentAlwaysAdmitted) {
  const CapsuleStamp s = CapsuleStamp::Of({"abc"});
  EXPECT_TRUE(s.AdmitsFragment(""));
}

TEST(StampTest, PadWidthNeverZero) {
  const CapsuleStamp s = CapsuleStamp::Of({"", ""});
  EXPECT_EQ(s.max_len, 0u);
  EXPECT_EQ(s.PadWidth(), 1u);
}

TEST(StampTest, SerializationRoundTrip) {
  const CapsuleStamp s = CapsuleStamp::Of({"xYz1", "ab"});
  ByteWriter w;
  s.WriteTo(w);
  ByteReader r(w.data());
  auto t = CapsuleStamp::ReadFrom(r);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, s);
}

// ---- blob layouts --------------------------------------------------------------

TEST(CapsuleBlobTest, PaddedBlobRoundTrip) {
  const std::vector<std::string_view> values = {"a", "bbb", "", "cc"};
  const std::string blob = BuildPaddedBlob(values, 3);
  EXPECT_EQ(blob.size(), 12u);
  for (uint32_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(TrimCell(PaddedCell(blob, 3, i)), values[i]);
  }
}

TEST(CapsuleBlobTest, DelimitedBlobRoundTrip) {
  const std::vector<std::string_view> values = {"alpha", "", "gamma delta"};
  const std::string blob = BuildDelimitedBlob(values);
  const auto out = SplitDelimitedBlob(blob);
  ASSERT_EQ(out.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(out[i], values[i]);
  }
}

// ---- capsule box -----------------------------------------------------------------

CapsuleBoxMeta MinimalMeta(uint8_t codec_id) {
  CapsuleBoxMeta meta;
  meta.codec_id = codec_id;
  meta.padded = true;
  meta.total_lines = 0;
  return meta;
}

TEST(CapsuleBoxTest, BuildOpenReadRoundTrip) {
  CapsuleBoxBuilder builder(GetXzCodec());
  const std::string payload_a = "the quick brown fox jumps over the lazy dog";
  const std::string payload_b(5000, 'z');
  const uint32_t a = builder.AddCapsule(payload_a);
  const uint32_t b = builder.AddCapsule(payload_b);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);

  const std::string bytes = std::move(builder).Finish(MinimalMeta(3));
  auto box = CapsuleBox::Open(bytes);
  ASSERT_TRUE(box.ok());
  EXPECT_EQ(box->CapsuleCount(), 2u);
  EXPECT_EQ(*box->ReadCapsule(a), payload_a);
  EXPECT_EQ(*box->ReadCapsule(b), payload_b);
  EXPECT_FALSE(box->ReadCapsule(2).ok());
  EXPECT_LT(bytes.size(), payload_b.size());  // capsules stored compressed
}

TEST(CapsuleBoxTest, MetadataRoundTrip) {
  CapsuleBoxBuilder builder(GetXzCodec());
  const uint32_t cap = builder.AddCapsule("abc");

  CapsuleBoxMeta meta = MinimalMeta(3);
  meta.total_lines = 42;
  meta.padded = false;
  meta.templates.push_back(
      StaticPattern::FromLine(TokenizeLine("read blk_7 done")));

  GroupMeta group;
  group.template_id = 0;
  group.row_count = 3;
  group.line_numbers = {1, 5, 40};
  WholeVarMeta wv;
  wv.stamp = CapsuleStamp::Of({"blk_7", "blk_9"});
  wv.capsule = cap;
  VarMeta var;
  var.repr = wv;
  group.vars.push_back(std::move(var));
  meta.groups.push_back(std::move(group));
  meta.outlier_line_numbers = {2, 3};
  meta.outlier_capsule = cap;

  const std::string bytes = std::move(builder).Finish(meta);
  auto box = CapsuleBox::Open(bytes);
  ASSERT_TRUE(box.ok());
  EXPECT_EQ(box->meta().total_lines, 42u);
  EXPECT_FALSE(box->meta().padded);
  ASSERT_EQ(box->meta().templates.size(), 1u);
  EXPECT_EQ(box->meta().templates[0].ToString(), "read <*> done");
  ASSERT_EQ(box->meta().groups.size(), 1u);
  const GroupMeta& g = box->meta().groups[0];
  EXPECT_EQ(g.row_count, 3u);
  EXPECT_EQ(g.line_numbers, (std::vector<uint32_t>{1, 5, 40}));
  ASSERT_EQ(g.vars.size(), 1u);
  ASSERT_TRUE(g.vars[0].is_whole());
  EXPECT_EQ(g.vars[0].whole().stamp.max_len, 5u);
  EXPECT_EQ(box->meta().outlier_line_numbers, (std::vector<uint32_t>{2, 3}));
}

TEST(CapsuleBoxTest, AllVarMetaKindsRoundTrip) {
  CapsuleBoxBuilder builder(GetZstdCodec());
  const uint32_t c0 = builder.AddCapsule("one");
  const uint32_t c1 = builder.AddCapsule("two");
  const uint32_t c2 = builder.AddCapsule("three");

  CapsuleBoxMeta meta = MinimalMeta(2);
  meta.total_lines = 2;  // Open validates line numbers against total_lines
  meta.templates.push_back(StaticPattern::FromLine(TokenizeLine("a 1 2 3")));
  GroupMeta group;
  group.template_id = 0;
  group.row_count = 2;
  group.line_numbers = {0, 1};

  RealVarMeta rv;
  rv.pattern = RuntimePattern(
      {PatternElement{false, "blk_", 0}, PatternElement{true, "", 0}});
  rv.subvar_stamps.push_back(CapsuleStamp::Of({"12", "9"}));
  rv.subvar_capsules.push_back(c0);
  rv.outlier_rows = {1};
  rv.outlier_capsule = c1;
  VarMeta v1;
  v1.repr = std::move(rv);
  group.vars.push_back(std::move(v1));

  NominalVarMeta nv;
  NominalPatternMeta pm;
  pm.pattern = RuntimePattern({PatternElement{false, "SUCC", 0}});
  pm.stamp = CapsuleStamp::Of({"SUCC"});
  pm.count = 1;
  nv.patterns.push_back(std::move(pm));
  nv.dict_capsule = c1;
  nv.index_capsule = c2;
  nv.index_width = 1;
  VarMeta v2;
  v2.repr = std::move(nv);
  group.vars.push_back(std::move(v2));

  WholeVarMeta wv;
  wv.stamp = CapsuleStamp::Of({"x"});
  wv.capsule = c2;
  VarMeta v3;
  v3.repr = wv;
  group.vars.push_back(std::move(v3));

  meta.groups.push_back(std::move(group));
  const std::string bytes = std::move(builder).Finish(meta);
  auto box = CapsuleBox::Open(bytes);
  ASSERT_TRUE(box.ok());
  const GroupMeta& g = box->meta().groups[0];
  ASSERT_EQ(g.vars.size(), 3u);
  ASSERT_TRUE(g.vars[0].is_real());
  EXPECT_EQ(g.vars[0].real().pattern.ToString(), "blk_<*>");
  EXPECT_EQ(g.vars[0].real().outlier_rows, (std::vector<uint32_t>{1}));
  EXPECT_EQ(g.vars[0].real().outlier_capsule, c1);
  ASSERT_TRUE(g.vars[1].is_nominal());
  EXPECT_EQ(g.vars[1].nominal().patterns[0].pattern.ToString(), "SUCC");
  EXPECT_EQ(g.vars[1].nominal().index_width, 1u);
  ASSERT_TRUE(g.vars[2].is_whole());
  EXPECT_EQ(g.vars[2].whole().capsule, c2);
}

TEST(CapsuleBoxTest, CorruptInputsRejected) {
  CapsuleBoxBuilder builder(GetXzCodec());
  builder.AddCapsule("payload");
  const std::string bytes = std::move(builder).Finish(MinimalMeta(3));

  EXPECT_FALSE(CapsuleBox::Open("").ok());
  EXPECT_FALSE(CapsuleBox::Open("XXXX").ok());
  std::string bad_magic = bytes;
  bad_magic[0] = 'Z';
  EXPECT_FALSE(CapsuleBox::Open(bad_magic).ok());
  std::string bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_FALSE(CapsuleBox::Open(bad_version).ok());
  // Truncations anywhere in the meta region must be rejected cleanly.
  for (size_t cut = 5; cut < std::min<size_t>(bytes.size(), 40); ++cut) {
    auto r = CapsuleBox::Open(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << cut;
  }
}

TEST(CapsuleBoxTest, RandomBytesNeverCrashOpen) {
  // Robustness fuzz: Open must reject arbitrary garbage cleanly.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk;
    const size_t len = rng.NextBelow(300);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    auto r = CapsuleBox::Open(junk);
    if (r.ok()) {
      // Astronomically unlikely (needs the magic + consistent meta); if it
      // ever parses, reads must still be bounds-checked.
      EXPECT_GE(r->CapsuleCount(), 0u);
    }
  }
}

TEST(CapsuleBoxTest, MutatedBoxNeverCrashes) {
  // Flip bytes all over a real box; Open/ReadCapsule must error, not crash.
  CapsuleBoxBuilder builder(GetXzCodec());
  const uint32_t cap = builder.AddCapsule(std::string(500, 'm'));
  CapsuleBoxMeta meta = MinimalMeta(3);
  meta.templates.push_back(StaticPattern::FromLine(TokenizeLine("x 1")));
  const std::string bytes = std::move(builder).Finish(meta);
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = bytes;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<char>(1 + rng.NextBelow(255));
    auto box = CapsuleBox::Open(mutated);
    if (box.ok()) {
      auto payload = box->ReadCapsule(cap);
      if (payload.ok()) {
        EXPECT_LE(payload->size(), 1u << 20);
      }
    }
  }
}

TEST(CapsuleBoxTest, TruncatedPayloadDetected) {
  CapsuleBoxBuilder builder(GetXzCodec());
  builder.AddCapsule(std::string(1000, 'q'));
  const std::string bytes = std::move(builder).Finish(MinimalMeta(3));
  // Chop payload bytes: directory validation must catch it at Open.
  auto r = CapsuleBox::Open(std::string_view(bytes).substr(0, bytes.size() - 5));
  EXPECT_FALSE(r.ok());
}

// ---- assembler --------------------------------------------------------------------

struct AssembledVar {
  VarMeta meta;
  std::string box_bytes;
};

AssembledVar Assemble(const std::vector<std::string>& values,
                      AssemblerOptions opts = {}) {
  CapsuleBoxBuilder builder(GetXzCodec());
  const Assembler assembler(opts, &builder);
  AssembledVar out;
  out.meta = assembler.AssembleVariable(values);
  out.box_bytes = std::move(builder).Finish(CapsuleBoxMeta{});
  return out;
}

std::vector<std::string> RealValues(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> values;
  for (int i = 0; i < n; ++i) {
    values.push_back("blk_" + std::to_string(10000000 + rng.NextBelow(89999999)));
  }
  return values;
}

TEST(AssemblerTest, RealVectorBecomesSubVarCapsules) {
  const auto out = Assemble(RealValues(300, 17));
  ASSERT_TRUE(out.meta.is_real());
  const RealVarMeta& rv = out.meta.real();
  EXPECT_GE(rv.subvar_capsules.size(), 1u);
  EXPECT_EQ(rv.subvar_capsules.size(), rv.subvar_stamps.size());
  EXPECT_EQ(rv.pattern.SubVarCount(), rv.subvar_capsules.size());
}

TEST(AssemblerTest, NominalVectorBecomesDictionaryAndIndex) {
  std::vector<std::string> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(i % 3 == 0 ? "ERR#404" : (i % 3 == 1 ? "SUCC" : "ERR#501"));
  }
  const auto out = Assemble(values);
  ASSERT_TRUE(out.meta.is_nominal());
  const NominalVarMeta& nv = out.meta.nominal();
  EXPECT_EQ(nv.index_width, 1u);  // 3 dictionary entries -> one digit
  uint32_t total = 0;
  for (const NominalPatternMeta& pm : nv.patterns) {
    total += pm.count;
  }
  EXPECT_EQ(total, 3u);
}

TEST(AssemblerTest, StaticOnlyForcesWholeCapsules) {
  AssemblerOptions opts;
  opts.static_only = true;
  const auto real_out = Assemble(RealValues(100, 3), opts);
  EXPECT_TRUE(real_out.meta.is_whole());
  const auto nominal_out = Assemble({"a", "a", "a", "b"}, opts);
  EXPECT_TRUE(nominal_out.meta.is_whole());
}

TEST(AssemblerTest, DisabledTechniquesFallBackToWhole) {
  AssemblerOptions no_real;
  no_real.use_real = false;
  EXPECT_TRUE(Assemble(RealValues(100, 5), no_real).meta.is_whole());

  AssemblerOptions no_nominal;
  no_nominal.use_nominal = false;
  EXPECT_TRUE(Assemble({"x", "x", "x", "y"}, no_nominal).meta.is_whole());
}

TEST(AssemblerTest, OutliersRecordedWithRows) {
  std::vector<std::string> values = RealValues(300, 11);
  values[7] = "TOTALLY DIFFERENT";
  values[200] = "another-outlier!";
  const auto out = Assemble(values);
  ASSERT_TRUE(out.meta.is_real());
  const RealVarMeta& rv = out.meta.real();
  EXPECT_EQ(rv.outlier_rows, (std::vector<uint32_t>{7, 200}));
  EXPECT_NE(rv.outlier_capsule, kNoCapsule);
}

TEST(AssemblerTest, HopelessPatternDegradesToWhole) {
  // Half the values conform, half do not: pattern abandoned (> max outliers).
  std::vector<std::string> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back("blk_" + std::to_string(1000 + i * 7919 % 9000));
  }
  for (int i = 0; i < 60; ++i) {
    // Unique unstructured junk so the vector stays "real" (low dup rate).
    values.push_back(std::string(1 + i % 5, static_cast<char>('a' + i % 26)) +
                     std::to_string(i * 131));
  }
  const auto out = Assemble(values);
  // Must be whole OR real with limited outliers; never lose values.
  if (out.meta.is_real()) {
    EXPECT_LE(out.meta.real().outlier_rows.size(), values.size() / 2);
  } else {
    EXPECT_TRUE(out.meta.is_whole());
  }
}

TEST(AssemblerTest, UnpaddedModeBuildsDelimitedCapsules) {
  AssemblerOptions opts;
  opts.padded = false;
  CapsuleBoxBuilder builder(GetXzCodec());
  const Assembler assembler(opts, &builder);
  const VarMeta meta = assembler.AssembleVariable(RealValues(120, 23));
  CapsuleBoxMeta box_meta;
  box_meta.codec_id = GetXzCodec().id();  // Open validates the codec id
  box_meta.padded = false;
  const std::string bytes = std::move(builder).Finish(box_meta);
  auto box = CapsuleBox::Open(bytes);
  ASSERT_TRUE(box.ok());
  if (meta.is_real()) {
    const std::string blob = *box->ReadCapsule(meta.real().subvar_capsules[0]);
    // Delimited layout: must contain '\n' separators.
    EXPECT_NE(blob.find('\n'), std::string::npos);
  }
}

}  // namespace
}  // namespace loggrep

#include <gtest/gtest.h>

#include <string>

#include "src/codec/bitstream.h"
#include "src/codec/codec.h"
#include "src/codec/huffman.h"
#include "src/codec/lz_huff.h"
#include "src/codec/lz_matcher.h"
#include "src/codec/range_coder.h"
#include "src/common/rng.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace loggrep {
namespace {

// ---- bitstream ---------------------------------------------------------------

TEST(BitstreamTest, RoundTripMixedWidths) {
  BitWriter w;
  w.PutBits(0b1, 1);
  w.PutBits(0b1010, 4);
  w.PutBits(0x7FFF, 15);
  w.PutBits(0xABCDE, 20);
  w.PutBits(0xFFFFFFFF, 32);
  const std::string bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(1), 0b1);
  EXPECT_EQ(r.ReadBits(4), 0b1010);
  EXPECT_EQ(r.ReadBits(15), 0x7FFF);
  EXPECT_EQ(r.ReadBits(20), 0xABCDE);
  EXPECT_EQ(r.ReadBits(32), 0xFFFFFFFF);
}

TEST(BitstreamTest, ReadPastEndReturnsMinusOne) {
  BitWriter w;
  w.PutBits(0b11, 2);
  const std::string bytes = w.Finish();  // one byte
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(8), 0b11);  // padding zeros
  EXPECT_EQ(r.ReadBit(), -1);
  EXPECT_TRUE(r.Overflowed());
}

TEST(BitstreamTest, BitCountTracksWrites) {
  BitWriter w;
  EXPECT_EQ(w.BitCount(), 0u);
  w.PutBits(0, 3);
  EXPECT_EQ(w.BitCount(), 3u);
  w.PutBits(0, 13);
  EXPECT_EQ(w.BitCount(), 16u);
}

// ---- huffman -----------------------------------------------------------------

TEST(HuffmanTest, EmptyAndSingleSymbol) {
  EXPECT_EQ(BuildCodeLengths({0, 0, 0}), (std::vector<uint8_t>{0, 0, 0}));
  EXPECT_EQ(BuildCodeLengths({0, 7, 0}), (std::vector<uint8_t>{0, 1, 0}));
}

TEST(HuffmanTest, TwoSymbolsGetOneBit) {
  const auto lengths = BuildCodeLengths({5, 100});
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
}

TEST(HuffmanTest, SkewedFrequenciesRespectLimit) {
  // Fibonacci-ish frequencies force deep optimal codes; the length limit must
  // hold anyway (package-merge property).
  std::vector<uint64_t> freqs;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = BuildCodeLengths(freqs);
  uint64_t kraft = 0;
  for (uint8_t len : lengths) {
    ASSERT_GE(len, 1);
    ASSERT_LE(len, kMaxHuffmanBits);
    kraft += 1ull << (kMaxHuffmanBits - len);
  }
  EXPECT_LE(kraft, 1ull << kMaxHuffmanBits);  // decodable
}

TEST(HuffmanTest, KraftEqualityForCompleteCodes) {
  const auto lengths = BuildCodeLengths({10, 10, 10, 10, 1, 1});
  uint64_t kraft = 0;
  for (uint8_t len : lengths) {
    kraft += 1ull << (kMaxHuffmanBits - len);
  }
  EXPECT_EQ(kraft, 1ull << kMaxHuffmanBits);  // optimal codes are complete
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  Rng rng(3);
  std::vector<uint64_t> freqs(64);
  for (auto& f : freqs) {
    f = rng.NextBelow(1000);
  }
  freqs[0] = 100000;  // strong skew
  const auto lengths = BuildCodeLengths(freqs);
  const HuffmanEncoder enc(lengths);
  auto dec = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(dec.ok());

  std::vector<int> symbols;
  for (int i = 0; i < 5000; ++i) {
    int s;
    do {
      s = static_cast<int>(rng.NextBelow(64));
    } while (lengths[s] == 0);
    symbols.push_back(s);
  }
  BitWriter w;
  for (int s : symbols) {
    enc.Encode(w, s);
  }
  const std::string bytes = w.Finish();
  BitReader r(bytes);
  for (int s : symbols) {
    ASSERT_EQ(dec->Decode(r), s);
  }
}

TEST(HuffmanTest, OversubscribedTableRejected) {
  // Three symbols of length 1 violate Kraft.
  EXPECT_FALSE(HuffmanDecoder::Build({1, 1, 1}).ok());
}

TEST(HuffmanTest, OverlongLengthRejected) {
  std::vector<uint8_t> lengths{static_cast<uint8_t>(kMaxHuffmanBits + 1)};
  EXPECT_FALSE(HuffmanDecoder::Build(lengths).ok());
}

// ---- value bucketization -------------------------------------------------------

TEST(BucketizeTest, SmallValuesDirect) {
  for (uint32_t v = 0; v < 4; ++v) {
    const Bucket b = BucketizeValue(v);
    EXPECT_EQ(b.code, v);
    EXPECT_EQ(b.extra_bits, 0u);
  }
}

TEST(BucketizeTest, RoundTripSweep) {
  for (uint32_t v = 0; v < 200000; v += (v < 256 ? 1 : 97)) {
    const Bucket b = BucketizeValue(v);
    uint32_t base = 0, eb = 0;
    BucketRange(b.code, &base, &eb);
    EXPECT_EQ(eb, b.extra_bits) << v;
    EXPECT_EQ(base + b.extra_value, v) << v;
    EXPECT_LT(b.extra_value, 1u << eb) << v;
  }
}

TEST(BucketizeTest, CodesAreMonotonic) {
  uint32_t prev_code = 0;
  for (uint32_t v = 1; v < 100000; v += 31) {
    const uint32_t code = BucketizeValue(v).code;
    EXPECT_GE(code, prev_code);
    prev_code = code;
  }
}

// ---- codec round trips ----------------------------------------------------------

std::vector<const Codec*> AllCodecs() {
  return {&GetGzipCodec(), &GetZstdCodec(), &GetXzCodec()};
}

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

std::string MakeInput(int kind, uint64_t seed) {
  Rng rng(seed);
  switch (kind) {
    case 0:  // empty
      return {};
    case 1:  // single byte
      return "x";
    case 2: {  // random bytes (incompressible)
      std::string s;
      for (int i = 0; i < 5000; ++i) {
        s.push_back(static_cast<char>(rng.NextBelow(256)));
      }
      return s;
    }
    case 3:  // long run (maximally compressible)
      return std::string(100000, 'A');
    case 4: {  // repetitive words
      std::string s;
      while (s.size() < 60000) {
        s += (rng.NextBool(0.5) ? "GET /index.html 200 " : "POST /api/v2 500 ");
      }
      return s;
    }
    case 5: {  // synthetic log text
      return LogGenerator(*FindDataset("Log G")).Generate(80000);
    }
    case 6: {  // short binary with overlapping matches
      std::string s = "abcabcabcabcab";
      s += std::string(3, '\0');
      s += "abcabc";
      return s;
    }
    default: {  // pseudo text with varying alphabet
      std::string s;
      for (int i = 0; i < 30000; ++i) {
        s.push_back(static_cast<char>('a' + rng.NextBelow(4 + seed % 20)));
      }
      return s;
    }
  }
}

TEST_P(CodecRoundTripTest, RoundTrips) {
  const auto [kind, seed] = GetParam();
  const std::string input = MakeInput(kind, seed);
  for (const Codec* codec : AllCodecs()) {
    const std::string blob = codec->Compress(input);
    auto out = codec->Decompress(blob);
    ASSERT_TRUE(out.ok()) << codec->name() << ": " << out.status().ToString();
    ASSERT_EQ(out->size(), input.size()) << codec->name();
    EXPECT_EQ(*out, input) << codec->name() << " kind=" << kind;
    // DecompressAny must agree.
    auto any = DecompressAny(blob);
    ASSERT_TRUE(any.ok());
    EXPECT_EQ(*any, input);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, CodecRoundTripTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1, 2, 3)));

TEST(CodecTest, RatioOrderingOnLogs) {
  // On raw log text the two entropy-coded codecs are close (within a few
  // percent); zstd-like trades ratio for speed.
  const std::string input = LogGenerator(*FindDataset("Log B")).Generate(1 << 20);
  const double raw = static_cast<double>(input.size());
  const double gz = raw / GetGzipCodec().Compress(input).size();
  const double zs = raw / GetZstdCodec().Compress(input).size();
  const double xz = raw / GetXzCodec().Compress(input).size();
  EXPECT_GT(gz, 2.0);
  EXPECT_GT(zs, 2.0);
  EXPECT_GT(xz, 0.95 * gz);
  EXPECT_GT(gz, zs);
}

TEST(CodecTest, XzWinsOnCapsulePayloads) {
  // Capsule columns are what LogGrep actually compresses: a padded
  // sub-variable column with a shared prefix. The LZMA stand-in must beat the
  // gzip stand-in here (adaptive context modeling + rep distances).
  Rng rng(1);
  std::vector<std::string> owned;
  for (int i = 0; i < 40000; ++i) {
    std::string v = "5E9D";
    for (int k = 0; k < 12; ++k) {
      v += "0123456789ABCDEF"[rng.NextBelow(16)];
    }
    owned.push_back(std::move(v));
  }
  std::string col;
  for (const std::string& v : owned) {
    col += v;
  }
  const double gz = static_cast<double>(col.size()) /
                    GetGzipCodec().Compress(col).size();
  const double xz = static_cast<double>(col.size()) /
                    GetXzCodec().Compress(col).size();
  EXPECT_GT(xz, gz);
}

TEST(CodecTest, CorruptBlobsRejectedNotCrash) {
  const std::string input = MakeInput(4, 1);
  for (const Codec* codec : AllCodecs()) {
    std::string blob = codec->Compress(input);
    // Wrong codec id.
    std::string wrong_id = blob;
    wrong_id[0] = static_cast<char>(99);
    EXPECT_FALSE(DecompressAny(wrong_id).ok()) << codec->name();
    // Truncations at many points must fail or yield the exact input, never
    // crash or return garbage of the declared size.
    for (size_t cut : {size_t{1}, size_t{2}, blob.size() / 2, blob.size() - 1}) {
      auto out = codec->Decompress(std::string_view(blob).substr(0, cut));
      if (out.ok()) {
        EXPECT_EQ(*out, input);
      }
    }
    // Flipped payload bytes: either a clean error or (rarely) a same-length
    // decode; must not crash.
    std::string flipped = blob;
    if (flipped.size() > 10) {
      flipped[flipped.size() / 2] ^= 0x5A;
      auto out = codec->Decompress(flipped);
      if (out.ok()) {
        EXPECT_EQ(out->size(), input.size());
      }
    }
  }
  EXPECT_FALSE(DecompressAny("").ok());
}

TEST(CodecTest, CompressedSelfDescribesCodec) {
  const std::string input = "hello log world";
  auto check = [&](const Codec& codec) {
    const std::string blob = codec.Compress(input);
    auto by_id = CodecById(static_cast<uint8_t>(blob[0]));
    ASSERT_TRUE(by_id.ok());
    EXPECT_STREQ((*by_id)->name(), codec.name());
  };
  check(GetGzipCodec());
  check(GetZstdCodec());
  check(GetXzCodec());
}

// ---- range coder -----------------------------------------------------------------

TEST(RangeCoderTest, AdaptiveBitsRoundTrip) {
  Rng rng(21);
  std::vector<int> bits;
  for (int i = 0; i < 20000; ++i) {
    bits.push_back(rng.NextBool(0.8) ? 1 : 0);  // skewed source
  }
  RangeEncoder enc;
  BitProb enc_prob = kProbInit;
  for (int bit : bits) {
    enc.EncodeBit(enc_prob, bit);
  }
  const std::string coded = enc.Finish();
  // Adaptive model must beat 1 bit per symbol on a skewed source.
  EXPECT_LT(coded.size(), bits.size() / 8);

  RangeDecoder dec(coded);
  BitProb dec_prob = kProbInit;
  for (size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(dec.DecodeBit(dec_prob), bits[i]) << i;
  }
  EXPECT_FALSE(dec.Overran());
}

TEST(RangeCoderTest, DirectBitsRoundTrip) {
  Rng rng(5);
  std::vector<std::pair<uint32_t, int>> values;
  for (int i = 0; i < 3000; ++i) {
    const int nbits = 1 + static_cast<int>(rng.NextBelow(24));
    values.emplace_back(
        static_cast<uint32_t>(rng.NextBelow(1ull << nbits)), nbits);
  }
  RangeEncoder enc;
  for (const auto& [v, n] : values) {
    enc.EncodeDirectBits(v, n);
  }
  const std::string coded = enc.Finish();
  RangeDecoder dec(coded);
  for (const auto& [v, n] : values) {
    ASSERT_EQ(dec.DecodeDirectBits(n), v);
  }
}

TEST(RangeCoderTest, MixedModelsAndDirectBits) {
  Rng rng(9);
  RangeEncoder enc;
  BitProb tree_enc[1 << 5];
  std::fill(std::begin(tree_enc), std::end(tree_enc), kProbInit);
  std::vector<uint32_t> symbols;
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(static_cast<uint32_t>(rng.NextBelow(32)));
  }
  for (uint32_t s : symbols) {
    EncodeBitTree(enc, tree_enc, 5, s);
    enc.EncodeDirectBits(s ^ 0x15, 5);
  }
  const std::string coded = enc.Finish();
  RangeDecoder dec(coded);
  BitProb tree_dec[1 << 5];
  std::fill(std::begin(tree_dec), std::end(tree_dec), kProbInit);
  for (uint32_t s : symbols) {
    ASSERT_EQ(DecodeBitTree<5>(dec, tree_dec), s);
    ASSERT_EQ(dec.DecodeDirectBits(5), s ^ 0x15);
  }
}

TEST(RangeCoderTest, TruncatedStreamSetsOverran) {
  RangeEncoder enc;
  BitProb p = kProbInit;
  for (int i = 0; i < 1000; ++i) {
    enc.EncodeBit(p, i % 2);
  }
  const std::string coded = enc.Finish();
  RangeDecoder dec(std::string_view(coded).substr(0, 4));
  BitProb q = kProbInit;
  for (int i = 0; i < 1000; ++i) {
    dec.DecodeBit(q);  // must not crash; values undefined past the cut
  }
  EXPECT_TRUE(dec.Overran());
}

// ---- match finder ---------------------------------------------------------------

TEST(LzMatcherTest, FindsObviousMatch) {
  const std::string data = "abcdefgh_abcdefgh";
  HashChainMatcher m(data, LzParams{});
  for (size_t i = 0; i < 9; ++i) {
    m.Insert(i);
  }
  const auto best = m.FindBest(9);
  EXPECT_GE(best.len, 8u);
  EXPECT_EQ(best.dist, 9u);
}

TEST(LzMatcherTest, RespectsWindow) {
  std::string data = "needle";
  data += std::string(1000, 'x');
  data += "needle";
  LzParams params;
  params.window_size = 64;  // the first "needle" is out of reach
  HashChainMatcher m(data, params);
  for (size_t i = 0; i + 4 <= data.size() - 6; ++i) {
    m.Insert(i);
  }
  const auto best = m.FindBest(data.size() - 6);
  // Any match found must be within the window.
  if (best.len > 0) {
    EXPECT_LE(best.dist, 64u);
  }
}

TEST(LzMatcherTest, NoMatchOnUniqueData) {
  const std::string data = "abcdefghijklmnopqrstuvwxyz0123456789";
  HashChainMatcher m(data, LzParams{});
  for (size_t i = 0; i < 20; ++i) {
    m.Insert(i);
  }
  EXPECT_EQ(m.FindBest(20).len, 0u);
}

}  // namespace
}  // namespace loggrep

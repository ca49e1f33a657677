// Byte-count and round-trip tests for the wire-format layer: every
// descriptor's PayloadBytes() must match the documented formula exactly
// (these numbers drive link-transfer seconds and the CI bytes gate), and the
// codec must produce buffers of exactly that size, with lossless paths
// round-tripping bit for bit.

#include "net/wire_format.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace netmax::net {
namespace {

TEST(WireMessageTest, DenseF32MatchesProfileBaseline) {
  // The headerless dense f32 framing is by construction the pre-compression
  // ModelProfile::message_bytes() number: 4 bytes per value, nothing else.
  const WireMessage full = DenseF32Message(11'000'000, 11'000'000);
  EXPECT_EQ(full.PayloadBytes(), 44'000'000);
  EXPECT_EQ(full.DenseBaselineBytes(), 44'000'000);
  EXPECT_EQ(full.BytesSaved(), 0);
}

TEST(WireMessageTest, DenseF32PartialChargesActiveValuesOnly) {
  const WireMessage half = DenseF32Message(1000, 500);
  EXPECT_EQ(half.PayloadBytes(), 2000);
  EXPECT_EQ(half.DenseBaselineBytes(), 4000);
  EXPECT_EQ(half.BytesSaved(), 2000);
}

TEST(WireMessageTest, DenseF64Bytes) {
  const WireMessage message = DenseF64Message(1000);
  EXPECT_EQ(message.PayloadBytes(), kWireHeaderBytes + 8 * 1000);
  // The lossless framing costs more than the f32 baseline: negative savings.
  EXPECT_LT(message.BytesSaved(), 0);
}

TEST(WireMessageTest, TopKBytes) {
  // 8 bytes per kept entry ({uint32 index, f32 value}) plus the header.
  const WireMessage message = TopKMessage(10'000, 1000);
  EXPECT_EQ(message.PayloadBytes(), kWireHeaderBytes + 8 * 1000);
  EXPECT_EQ(message.DenseBaselineBytes(), 40'000);
}

TEST(WireMessageTest, Int8BlockBytes) {
  // 1 byte per value plus one f32 scale per 256-value block. 1000 values ->
  // 4 blocks (the last one partial).
  const WireMessage message = Int8Message(1000);
  EXPECT_EQ(message.PayloadBytes(), kWireHeaderBytes + 1000 + 4 * 4);
  // A single partial block still needs its scale.
  EXPECT_EQ(Int8Message(1).PayloadBytes(), kWireHeaderBytes + 1 + 4);
  EXPECT_EQ(Int8Message(kInt8BlockValues).PayloadBytes(),
            kWireHeaderBytes + kInt8BlockValues + 4);
}

TEST(WireMessageTest, EmptyMessages) {
  EXPECT_EQ(DenseF32Message(0, 0).PayloadBytes(), 0);
  EXPECT_EQ(TopKMessage(1000, 0).PayloadBytes(), kWireHeaderBytes);
  EXPECT_EQ(Int8Message(0).PayloadBytes(), kWireHeaderBytes);
}

TEST(WireCodecTest, DenseF64RoundTripsBitExactly) {
  Rng rng(7);
  std::vector<double> values(513);
  for (double& v : values) v = rng.Uniform(-10.0, 10.0);
  values[0] = 0.0;
  values[1] = -0.0;
  const std::vector<uint8_t> bytes = EncodeDenseF64(values);
  EXPECT_EQ(static_cast<int64_t>(bytes.size()),
            DenseF64Message(513).PayloadBytes());
  const auto decoded = DecodeDenseF64(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    // Bit-exact: compare the representations, not the values, so -0.0 and
    // NaN payloads would be caught too.
    EXPECT_EQ(std::memcmp(&(*decoded)[i], &values[i], sizeof(double)), 0)
        << "value " << i;
  }
}

TEST(WireCodecTest, DenseF64RejectsMalformedBuffers) {
  const std::vector<double> values = {1.0, 2.0};
  std::vector<uint8_t> bytes = EncodeDenseF64(values);
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(DecodeDenseF64(truncated).ok());
  bytes[0] ^= 0xFF;  // corrupt the encoding tag
  EXPECT_FALSE(DecodeDenseF64(bytes).ok());
  EXPECT_FALSE(DecodeDenseF64(std::vector<uint8_t>(3)).ok());
  // A 0xFFFFFFFF count: the exact payload-size check refuses it before any
  // allocation (wire counts are u32, so the size arithmetic cannot wrap).
  std::vector<uint8_t> huge_count = EncodeDenseF64(values);
  std::fill(huge_count.begin() + 4, huge_count.begin() + 8, uint8_t{0xFF});
  EXPECT_FALSE(DecodeDenseF64(huge_count).ok());
}

TEST(WireCodecTest, TopKRoundTripsEntriesBitExactly) {
  std::vector<TopKEntry> entries;
  Rng rng(11);
  for (uint32_t i = 0; i < 100; ++i) {
    entries.push_back({i * 7, static_cast<float>(rng.Uniform(-1.0, 1.0))});
  }
  const std::vector<uint8_t> bytes = EncodeTopK(1000, entries);
  EXPECT_EQ(static_cast<int64_t>(bytes.size()),
            TopKMessage(1000, 100).PayloadBytes());
  const auto decoded = DecodeTopK(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_values, 1000);
  ASSERT_EQ(decoded->entries.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded->entries[i].index, entries[i].index);
    EXPECT_EQ(std::memcmp(&decoded->entries[i].value, &entries[i].value,
                          sizeof(float)),
              0);
  }
}

TEST(WireCodecTest, Int8RoundTripsLevelsAndScales) {
  std::vector<int8_t> levels(600);
  Rng rng(13);
  for (int8_t& level : levels) {
    level = static_cast<int8_t>(rng.UniformInt(-127, 127));
  }
  const std::vector<float> scales = {0.5f, 0.25f, 1.5f};
  const std::vector<uint8_t> bytes = EncodeInt8Blocks(levels, scales);
  EXPECT_EQ(static_cast<int64_t>(bytes.size()),
            Int8Message(600).PayloadBytes());
  const auto decoded = DecodeInt8Blocks(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->levels, levels);
  EXPECT_EQ(decoded->scales, scales);
  // Dequantized values are exactly level * scale — the same product the
  // simulator-side quantizer applies, so encode/decode changes no bits.
  const std::vector<double> dequantized = decoded->Dequantized();
  ASSERT_EQ(dequantized.size(), levels.size());
  for (size_t i = 0; i < levels.size(); ++i) {
    const double expected = static_cast<double>(levels[i]) *
                            static_cast<double>(scales[i / kInt8BlockValues]);
    EXPECT_EQ(dequantized[i], expected) << "value " << i;
  }
}

TEST(WireCodecTest, Int8RejectsScaleCountMismatch) {
  // 600 values need exactly 3 block scales; feed the decoder a buffer whose
  // header promises 600 values but whose size implies 2 scales.
  std::vector<int8_t> levels(600, 1);
  const std::vector<float> scales = {1.0f, 1.0f, 1.0f};
  std::vector<uint8_t> bytes = EncodeInt8Blocks(levels, scales);
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(DecodeInt8Blocks(bytes).ok());
}

}  // namespace
}  // namespace netmax::net

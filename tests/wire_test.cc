// Tests for the wire layer: checksums, codecs, encryption, framing, and —
// crucially — the failure modes under mismatched sender/receiver configs.

#include "src/sim/wire.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/rng.h"

namespace zebra {
namespace {

Bytes SamplePayload() {
  return BytesFromString("the quick brown fox jumps over the lazy dog 0123456789");
}

TEST(ChecksumTest, KnownCrc32Vector) {
  // CRC-32 of "123456789" is 0xCBF43926 (standard check value).
  Bytes data = BytesFromString("123456789");
  EXPECT_EQ(Crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(ChecksumTest, KnownCrc32cVector) {
  // CRC-32C of "123456789" is 0xE3069283 (standard check value).
  Bytes data = BytesFromString("123456789");
  EXPECT_EQ(Crc32c(data.data(), data.size()), 0xE3069283u);
}

TEST(ChecksumTest, TypesProduceDifferentValues) {
  Bytes data = SamplePayload();
  EXPECT_NE(Crc32(data.data(), data.size()), Crc32c(data.data(), data.size()));
  EXPECT_EQ(ComputeChecksum(ChecksumType::kNone, data.data(), data.size()), 0u);
}

TEST(ChecksumTest, ParseNamesAndRoundTrip) {
  EXPECT_EQ(ParseChecksumType("NONE"), ChecksumType::kNone);
  EXPECT_EQ(ParseChecksumType("crc32"), ChecksumType::kCrc32);
  EXPECT_EQ(ParseChecksumType("CRC32C"), ChecksumType::kCrc32c);
  EXPECT_EQ(ParseChecksumType("garbage"), ChecksumType::kCrc32);  // HDFS fallback
  EXPECT_STREQ(ChecksumTypeName(ChecksumType::kCrc32c), "CRC32C");
}

class CodecRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecRoundTripTest, RoundTrips) {
  Bytes payload = SamplePayload();
  Bytes compressed = CompressPayload(GetParam(), payload);
  EXPECT_EQ(DecompressPayload(GetParam(), compressed), payload);
}

TEST_P(CodecRoundTripTest, EmptyPayloadRoundTrips) {
  Bytes empty;
  EXPECT_EQ(DecompressPayload(GetParam(), CompressPayload(GetParam(), empty)), empty);
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecRoundTripTest,
                         ::testing::Values("none", "rle", "xor8"));

TEST(CodecTest, RleActuallyCompressesRuns) {
  Bytes runs(1000, 0x42);
  Bytes compressed = CompressPayload("rle", runs);
  EXPECT_LT(compressed.size(), runs.size());
}

TEST(CodecTest, MismatchedCodecFailsToDecode) {
  Bytes payload = SamplePayload();
  EXPECT_THROW(DecompressPayload("rle", CompressPayload("xor8", payload)), DecodeError);
  EXPECT_THROW(DecompressPayload("xor8", CompressPayload("rle", payload)), DecodeError);
  EXPECT_THROW(DecompressPayload("rle", CompressPayload("none", payload)), DecodeError);
}

TEST(CodecTest, UnknownCodecIsAnInternalError) {
  EXPECT_THROW(CompressPayload("zstd", SamplePayload()), InternalError);
  EXPECT_THROW(DecompressPayload("zstd", SamplePayload()), InternalError);
}

TEST(EncryptionTest, RoundTripsWithSameKey) {
  Bytes payload = SamplePayload();
  Bytes encrypted = EncryptPayload(payload, kClusterDataKey);
  EXPECT_NE(encrypted, payload);
  EXPECT_EQ(DecryptPayload(encrypted, kClusterDataKey), payload);
}

TEST(EncryptionTest, WrongKeyProducesGarbage) {
  Bytes payload = SamplePayload();
  Bytes encrypted = EncryptPayload(payload, kClusterDataKey);
  EXPECT_NE(DecryptPayload(encrypted, kClusterDataKey + 1), payload);
}

// Frame round-trips across every (encrypt, codec, checksum, bytes/checksum)
// combination — the matched-config property.
class FrameRoundTripTest
    : public ::testing::TestWithParam<
          std::tuple<bool, const char*, ChecksumType, int64_t>> {};

TEST_P(FrameRoundTripTest, MatchedConfigsRoundTrip) {
  WireConfig config;
  config.encrypt = std::get<0>(GetParam());
  config.compression = std::get<1>(GetParam());
  config.checksum = std::get<2>(GetParam());
  config.bytes_per_checksum = std::get<3>(GetParam());

  Bytes payload = SamplePayload();
  EXPECT_EQ(DecodeFrame(config, EncodeFrame(config, payload)), payload);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FrameRoundTripTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values("none", "rle", "xor8"),
                       ::testing::Values(ChecksumType::kNone, ChecksumType::kCrc32,
                                         ChecksumType::kCrc32c),
                       ::testing::Values(16, 512, 4096)));

TEST(FrameMismatchTest, EncryptionMismatchFails) {
  WireConfig sender;
  sender.encrypt = true;
  WireConfig receiver;
  receiver.encrypt = false;
  Bytes frame = EncodeFrame(sender, SamplePayload());
  EXPECT_THROW(DecodeFrame(receiver, frame), Error);

  // And the other polarity.
  WireConfig sender2;
  WireConfig receiver2;
  receiver2.encrypt = true;
  EXPECT_THROW(DecodeFrame(receiver2, EncodeFrame(sender2, SamplePayload())), Error);
}

TEST(FrameMismatchTest, ChecksumTypeMismatchFails) {
  WireConfig sender;
  sender.checksum = ChecksumType::kCrc32;
  WireConfig receiver;
  receiver.checksum = ChecksumType::kCrc32c;
  EXPECT_THROW(DecodeFrame(receiver, EncodeFrame(sender, SamplePayload())),
               ChecksumError);
}

TEST(FrameMismatchTest, BytesPerChecksumMismatchFails) {
  WireConfig sender;
  sender.bytes_per_checksum = 128;
  WireConfig receiver;
  receiver.bytes_per_checksum = 512;
  // The payload must span more than one chunk under the smaller setting for
  // the chunk counts to diverge (single-chunk frames decode identically).
  Bytes large(1000, 0x5A);
  EXPECT_THROW(DecodeFrame(receiver, EncodeFrame(sender, large)), ChecksumError);
}

TEST(FrameMismatchTest, BytesPerChecksumAgreesOnTinyPayloads) {
  WireConfig sender;
  sender.bytes_per_checksum = 128;
  WireConfig receiver;
  receiver.bytes_per_checksum = 512;
  Bytes tiny = BytesFromString("tiny");
  EXPECT_EQ(DecodeFrame(receiver, EncodeFrame(sender, tiny)), tiny);
}

TEST(FrameMismatchTest, CompressionMismatchFails) {
  WireConfig sender;
  sender.compression = "rle";
  WireConfig receiver;
  receiver.compression = "none";
  EXPECT_THROW(DecodeFrame(receiver, EncodeFrame(sender, SamplePayload())), Error);
}

TEST(FrameMismatchTest, NoneChecksumSenderFailsCrcReceiver) {
  WireConfig sender;
  sender.checksum = ChecksumType::kNone;
  WireConfig receiver;
  receiver.checksum = ChecksumType::kCrc32;
  EXPECT_THROW(DecodeFrame(receiver, EncodeFrame(sender, SamplePayload())),
               ChecksumError);
}

TEST(FrameTest, CorruptedByteDetected) {
  WireConfig config;
  Bytes frame = EncodeFrame(config, SamplePayload());
  frame[frame.size() / 2] ^= 0xFF;
  EXPECT_THROW(DecodeFrame(config, frame), Error);
}

TEST(FrameTest, TruncatedFrameDetected) {
  WireConfig config;
  Bytes frame = EncodeFrame(config, SamplePayload());
  frame.resize(frame.size() - 8);
  EXPECT_THROW(DecodeFrame(config, frame), Error);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  WireConfig config;
  Bytes empty;
  EXPECT_EQ(DecodeFrame(config, EncodeFrame(config, empty)), empty);
}

TEST(HandshakeTest, TokensAreOpaqueAndStable) {
  EXPECT_EQ(WireToken("privacy"), WireToken("privacy"));
  EXPECT_NE(WireToken("privacy"), WireToken("authentication"));
  EXPECT_EQ(WireToken("privacy").size(), 16u);
}

TEST(HandshakeTest, TokensAreTheDigestInSixteenLowerHexDigits) {
  // Golden against the printf rendering the token format was defined by.
  for (std::string_view value :
       {"", "a", "b", "privacy", "authentication", "integrity", "false", "true",
        "SASL_SSL", "0", "a-much-longer-value-that-spans-several-words",
        "\xff\x00\x7f", "dfs.data.transfer.protection"}) {
    char expected[32];
    std::snprintf(expected, sizeof(expected), "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(value)));
    EXPECT_EQ(WireToken(value), expected) << value;
  }
}

TEST(HandshakeTest, MatchingTokensPass) {
  EXPECT_NO_THROW(RequireMatchingTokens("svc", WireToken("a"), WireToken("a")));
}

TEST(HandshakeTest, MismatchedTokensThrow) {
  EXPECT_THROW(RequireMatchingTokens("svc", WireToken("a"), WireToken("b")),
               HandshakeError);
}

TEST(PacedWaitTest, FastOperationNeverTimesOut) {
  EXPECT_NO_THROW(SimulatePacedWait("op", 500, 1000, 30000));
}

TEST(PacedWaitTest, PacedServerKeepsSlowOperationAlive) {
  EXPECT_NO_THROW(SimulatePacedWait("op", 5000, 1000, 500));
}

TEST(PacedWaitTest, MismatchedPacingTimesOut) {
  EXPECT_THROW(SimulatePacedWait("op", 5000, 1000, 30000), TimeoutError);
}

TEST(PacedWaitTest, DisabledTimeoutNeverFires) {
  EXPECT_NO_THROW(SimulatePacedWait("op", 1000000, 0, 1000000));
}

}  // namespace
}  // namespace zebra

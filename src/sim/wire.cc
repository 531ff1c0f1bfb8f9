#include "src/sim/wire.h"

#include <algorithm>
#include <array>
#include <cctype>

#include "src/common/error.h"
#include "src/common/rng.h"

namespace zebra {

namespace {

constexpr uint32_t kFrameMagic = 0x5EB7AC0Fu;

// Generates a CRC lookup table for the given reflected polynomial.
constexpr std::array<uint32_t, 256> MakeCrcTable(uint32_t polynomial) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ polynomial : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

// CRC-32 (IEEE 802.3) and CRC-32C (Castagnoli) reflected polynomials.
constexpr std::array<uint32_t, 256> kCrc32Table = MakeCrcTable(0xEDB88320u);
constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrcTable(0x82F63B78u);

uint32_t CrcWithTable(const std::array<uint32_t, 256>& table, const uint8_t* data,
                      size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

constexpr char kRleHeader0 = 'R';
constexpr char kRleHeader1 = 'L';
constexpr char kXorHeader0 = 'X';
constexpr char kXorHeader1 = '8';
constexpr uint8_t kXor8Mask = 0x55;

Bytes RleCompress(const Bytes& payload) {
  Bytes out;
  out.push_back(static_cast<uint8_t>(kRleHeader0));
  out.push_back(static_cast<uint8_t>(kRleHeader1));
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  size_t i = 0;
  while (i < payload.size()) {
    uint8_t value = payload[i];
    size_t run = 1;
    while (i + run < payload.size() && payload[i + run] == value && run < 255) {
      ++run;
    }
    out.push_back(value);
    out.push_back(static_cast<uint8_t>(run));
    i += run;
  }
  return out;
}

Bytes RleDecompress(const Bytes& payload) {
  if (payload.size() < 6 || payload[0] != kRleHeader0 || payload[1] != kRleHeader1) {
    throw DecodeError("rle: missing stream header");
  }
  size_t offset = 2;
  uint32_t original_size = ReadU32(payload, &offset);
  Bytes out;
  out.reserve(original_size);
  while (offset < payload.size()) {
    if (offset + 2 > payload.size()) {
      throw DecodeError("rle: truncated run");
    }
    uint8_t value = payload[offset];
    uint8_t run = payload[offset + 1];
    offset += 2;
    if (run == 0) {
      throw DecodeError("rle: zero-length run");
    }
    out.insert(out.end(), run, value);
  }
  if (out.size() != original_size) {
    throw DecodeError("rle: size mismatch after decompression");
  }
  return out;
}

Bytes Xor8Transform(const Bytes& payload) {
  Bytes out;
  out.reserve(payload.size());
  for (uint8_t byte : payload) {
    out.push_back(byte ^ kXor8Mask);
  }
  return out;
}

Bytes Xor8Compress(const Bytes& payload) {
  Bytes out;
  out.push_back(static_cast<uint8_t>(kXorHeader0));
  out.push_back(static_cast<uint8_t>(kXorHeader1));
  Bytes body = Xor8Transform(payload);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Bytes Xor8Decompress(const Bytes& payload) {
  if (payload.size() < 2 || payload[0] != kXorHeader0 || payload[1] != kXorHeader1) {
    throw DecodeError("xor8: missing stream header");
  }
  Bytes body(payload.begin() + 2, payload.end());
  return Xor8Transform(body);
}

}  // namespace

ChecksumType ParseChecksumType(std::string_view text) {
  std::string upper(text);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (upper == "NONE") {
    return ChecksumType::kNone;
  }
  if (upper == "CRC32C") {
    return ChecksumType::kCrc32c;
  }
  return ChecksumType::kCrc32;
}

const char* ChecksumTypeName(ChecksumType type) {
  switch (type) {
    case ChecksumType::kNone:
      return "NONE";
    case ChecksumType::kCrc32:
      return "CRC32";
    case ChecksumType::kCrc32c:
      return "CRC32C";
  }
  return "CRC32";
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return CrcWithTable(kCrc32Table, data, size);
}

uint32_t Crc32c(const uint8_t* data, size_t size) {
  return CrcWithTable(kCrc32cTable, data, size);
}

uint32_t ComputeChecksum(ChecksumType type, const uint8_t* data, size_t size) {
  switch (type) {
    case ChecksumType::kNone:
      return 0;
    case ChecksumType::kCrc32:
      return Crc32(data, size);
    case ChecksumType::kCrc32c:
      return Crc32c(data, size);
  }
  return 0;
}

Bytes CompressPayload(std::string_view codec, const Bytes& payload) {
  if (codec == "none" || codec.empty()) {
    return payload;
  }
  if (codec == "rle") {
    return RleCompress(payload);
  }
  if (codec == "xor8") {
    return Xor8Compress(payload);
  }
  throw InternalError("unknown compression codec: " + std::string(codec));
}

Bytes DecompressPayload(std::string_view codec, const Bytes& payload) {
  if (codec == "none" || codec.empty()) {
    return payload;
  }
  if (codec == "rle") {
    return RleDecompress(payload);
  }
  if (codec == "xor8") {
    return Xor8Decompress(payload);
  }
  throw InternalError("unknown compression codec: " + std::string(codec));
}

Bytes EncryptPayload(const Bytes& payload, uint64_t key) {
  Rng keystream(key);
  Bytes out;
  out.reserve(payload.size());
  for (uint8_t byte : payload) {
    out.push_back(byte ^ static_cast<uint8_t>(keystream.NextU64()));
  }
  return out;
}

Bytes DecryptPayload(const Bytes& payload, uint64_t key) {
  // XOR keystream is symmetric.
  return EncryptPayload(payload, key);
}

Bytes EncodeFrame(const WireConfig& config, const Bytes& payload) {
  // Stage 1: canary envelope.
  Bytes body;
  AppendU32(&body, kFrameMagic);
  AppendLengthPrefixed(&body, payload);

  // Stage 2: per-chunk checksums + chunk count (appended so the receiver can
  // locate them only if it agrees on chunking).
  const size_t chunk = config.bytes_per_checksum > 0
                           ? static_cast<size_t>(config.bytes_per_checksum)
                           : body.size();
  uint32_t num_chunks = 0;
  Bytes checksummed = body;
  for (size_t offset = 0; offset < body.size(); offset += chunk) {
    size_t this_chunk = std::min(chunk, body.size() - offset);
    AppendU32(&checksummed,
              ComputeChecksum(config.checksum, body.data() + offset, this_chunk));
    ++num_chunks;
  }
  AppendU32(&checksummed, num_chunks);

  // Stage 3 + 4: compress, then encrypt.
  Bytes compressed = CompressPayload(config.compression, checksummed);
  if (config.encrypt) {
    return EncryptPayload(compressed, config.encrypt_key);
  }
  return compressed;
}

Bytes DecodeFrame(const WireConfig& config, const Bytes& frame) {
  Bytes compressed = config.encrypt ? DecryptPayload(frame, config.encrypt_key) : frame;
  Bytes checksummed = DecompressPayload(config.compression, compressed);

  if (checksummed.size() < 4) {
    throw DecodeError("frame too short for chunk count");
  }
  size_t tail = checksummed.size() - 4;
  uint32_t num_chunks = ReadU32(checksummed, &tail);

  const size_t chunk = config.bytes_per_checksum > 0
                           ? static_cast<size_t>(config.bytes_per_checksum)
                           : 0;
  // Body length implied by the receiver's chunking parameters.
  if (checksummed.size() < 4 + static_cast<size_t>(num_chunks) * 4) {
    throw ChecksumError("chunk count exceeds frame size");
  }
  size_t body_size = checksummed.size() - 4 - static_cast<size_t>(num_chunks) * 4;
  size_t expected_chunks =
      chunk == 0 ? (body_size > 0 ? 1 : 0) : (body_size + chunk - 1) / chunk;
  if (expected_chunks != num_chunks) {
    throw ChecksumError("chunk count mismatch: frame has " + std::to_string(num_chunks) +
                        ", receiver expects " + std::to_string(expected_chunks));
  }

  Bytes body(checksummed.begin(), checksummed.begin() + static_cast<long>(body_size));
  size_t checksum_offset = body_size;
  const size_t effective_chunk = chunk == 0 ? (body_size > 0 ? body_size : 1) : chunk;
  for (size_t offset = 0; offset < body.size(); offset += effective_chunk) {
    size_t this_chunk = std::min(effective_chunk, body.size() - offset);
    uint32_t stored = ReadU32(checksummed, &checksum_offset);
    uint32_t computed =
        ComputeChecksum(config.checksum, body.data() + offset, this_chunk);
    if (config.checksum != ChecksumType::kNone && stored != computed) {
      throw ChecksumError("checksum mismatch in chunk at offset " +
                          std::to_string(offset));
    }
  }

  size_t offset = 0;
  uint32_t magic = ReadU32(body, &offset);
  if (magic != kFrameMagic) {
    throw DecodeError("bad frame magic (wire configuration mismatch)");
  }
  return ReadLengthPrefixed(body, &offset);
}

std::string WireToken(std::string_view value) {
  // The bytes of "%016llx" of the digest, one nibble at a time: every
  // simulated RPC handshake makes two tokens, so printf's format parsing
  // showed up in whole-campaign profiles.
  static constexpr char kHexDigits[] = "0123456789abcdef";
  uint64_t digest = Fnv1a64(value);
  std::string token(16, '0');
  for (size_t i = token.size(); i-- > 0; digest >>= 4) {
    token[i] = kHexDigits[digest & 0xf];
  }
  return token;
}

void RequireMatchingTokens(std::string_view channel, std::string_view initiator_token,
                           std::string_view acceptor_token) {
  if (initiator_token != acceptor_token) {
    throw HandshakeError(std::string(channel) + ": endpoints negotiated different " +
                         "transport parameters");
  }
}

void SimulatePacedWait(std::string_view operation, int64_t total_ms,
                       int64_t client_timeout_ms, int64_t server_pace_ms) {
  if (client_timeout_ms <= 0 || total_ms <= client_timeout_ms) {
    return;  // no timeout configured, or the operation finishes in time
  }
  if (server_pace_ms > client_timeout_ms) {
    throw TimeoutError(std::string(operation) + ": no response within " +
                       std::to_string(client_timeout_ms) + " ms (server progress " +
                       "interval " + std::to_string(server_pace_ms) + " ms)");
  }
}

}  // namespace zebra

#include "src/common/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace zebra {

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      break;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::string StrJoin(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string result;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      result.append(sep);
    }
    result.append(pieces[i]);
  }
  return result;
}

std::string_view StrTrimView(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string StrTrim(std::string_view text) { return std::string(StrTrimView(text)); }

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool ParseInt64(std::string_view text, int64_t* out) {
  std::string_view trimmed = StrTrimView(text);
  if (trimmed.empty()) {
    return false;
  }
  int64_t value = 0;
  const char* begin = trimmed.data();
  const char* end = begin + trimmed.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

namespace {

bool ParseTrimmedDouble(const char* terminated, double* out) {
  char* end_ptr = nullptr;
  double value = std::strtod(terminated, &end_ptr);
  if (end_ptr == nullptr || *end_ptr != '\0') {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

bool ParseDouble(std::string_view text, double* out) {
  std::string_view trimmed = StrTrimView(text);
  if (trimmed.empty()) {
    return false;
  }
  // strtod needs a terminated string; every number this project writes fits
  // the stack buffer, so only an oversized value pays for a heap copy.
  char buffer[64];
  if (trimmed.size() < sizeof(buffer)) {
    std::memcpy(buffer, trimmed.data(), trimmed.size());
    buffer[trimmed.size()] = '\0';
    return ParseTrimmedDouble(buffer, out);
  }
  return ParseTrimmedDouble(std::string(trimmed).c_str(), out);
}

bool ParseBool(std::string_view text, bool* out) {
  std::string lowered = StrTrim(text);
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lowered == "true" || lowered == "1" || lowered == "yes") {
    *out = true;
    return true;
  }
  if (lowered == "false" || lowered == "0" || lowered == "no") {
    *out = false;
    return true;
  }
  return false;
}

std::string BoolToString(bool value) { return value ? "true" : "false"; }

std::string Int64ToString(int64_t value) { return std::to_string(value); }

std::string DoubleToString(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

uint64_t HashFnv64(std::string_view text, uint64_t seed) {
  uint64_t digest = seed;
  for (unsigned char c : text) {
    digest ^= static_cast<uint64_t>(c);
    digest *= 0x100000001b3ull;
  }
  return digest;
}

uint64_t HashContent64(std::string_view text) {
  // Four interleaved FNV-style lanes: a single lane's multiply chain is
  // latency-bound (one dependent 5-cycle multiply per 8 bytes), so
  // independent lanes pipeline and hash ~4x faster. Each lane adds a
  // shift-xor fold because chunked FNV alone diffuses poorly.
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t lane[4] = {kFnv64Seed, kFnv64Seed ^ 0x9e3779b97f4a7c15ull,
                      kFnv64Seed ^ 0x6a09e667f3bcc908ull,
                      kFnv64Seed ^ 0xbb67ae8584caa73bull};
  size_t i = 0;
  for (; i + 32 <= text.size(); i += 32) {
    for (int k = 0; k < 4; ++k) {
      uint64_t chunk;
      std::memcpy(&chunk, text.data() + i + 8 * static_cast<size_t>(k), 8);
      lane[k] ^= chunk;
      lane[k] *= kPrime;
      lane[k] ^= lane[k] >> 29;
    }
  }
  uint64_t digest = lane[0];
  for (int k = 1; k < 4; ++k) {
    digest ^= lane[k];
    digest *= kPrime;
    digest ^= digest >> 29;
  }
  for (; i < text.size(); ++i) {
    digest ^= static_cast<unsigned char>(text[i]);
    digest *= kPrime;
  }
  digest ^= text.size();
  digest *= kPrime;
  return digest;
}

Digest128 HashFnv128(std::string_view text, Digest128 seed) {
  // FNV-128 prime: 2^88 + 2^8 + 0x3b. The 128-bit state and multiply ride on
  // the compiler's __int128 support (baked into every target this project
  // builds on); the loop is the textbook FNV-1a xor-then-multiply per byte.
  using uint128 = unsigned __int128;
  constexpr uint128 kPrime =
      (static_cast<uint128>(1) << 88) | (static_cast<uint128>(1) << 8) | 0x3b;
  uint128 digest =
      (static_cast<uint128>(seed.hi) << 64) | static_cast<uint128>(seed.lo);
  for (unsigned char c : text) {
    digest ^= static_cast<uint128>(c);
    digest *= kPrime;
  }
  return Digest128{static_cast<uint64_t>(digest >> 64),
                   static_cast<uint64_t>(digest)};
}

Digest128 HashFnv128Decimal(uint64_t value, Digest128 seed) {
  char buffer[20];  // max uint64_t is 20 digits
  char* end = buffer + sizeof(buffer);
  char* begin = end;
  do {
    *--begin = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  return HashFnv128(std::string_view(begin, static_cast<size_t>(end - begin)),
                    seed);
}

std::string HashToHex(uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

}  // namespace zebra

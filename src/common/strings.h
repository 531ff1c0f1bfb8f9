// Small string utilities used across the project.

#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace zebra {

// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Joins `pieces` with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces, std::string_view sep);

// Removes leading/trailing ASCII whitespace (isspace). The view form returns
// a slice of `text`.
std::string StrTrim(std::string_view text);
std::string_view StrTrimView(std::string_view text);

// True if `text` starts with / ends with the given affix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Strict integer / double / bool parsing. Returns false on malformed input and
// leaves `*out` untouched; configuration getters use these and fall back to
// defaults for unparseable values, like Hadoop's Configuration does.
bool ParseInt64(std::string_view text, int64_t* out);
bool ParseDouble(std::string_view text, double* out);
bool ParseBool(std::string_view text, bool* out);

// Renders values in the canonical form stored in configuration files.
std::string BoolToString(bool value);
std::string Int64ToString(int64_t value);
std::string DoubleToString(double value);

// FNV-1a over the bytes of `text`, folded from `seed` (pass kFnv64Seed for a
// fresh hash, or a previous digest to chain). Used for record checksums in
// the campaign journal and run-cache files and for the deterministic
// fault-injection coin flips — stability across runs matters, stdlib
// std::hash does not guarantee it.
inline constexpr uint64_t kFnv64Seed = 0xcbf29ce484222325ull;
uint64_t HashFnv64(std::string_view text, uint64_t seed = kFnv64Seed);

// 16-hex-digit rendering of a 64-bit digest (zero-padded, lower case).
std::string HashToHex(uint64_t digest);

// Content fingerprint for whole files: FNV-1a folded over 8-byte chunks
// instead of single bytes, ~8x faster on large inputs. NOT interchangeable
// with HashFnv64 — use only where every producer and consumer hashes with
// this function (the analysis summary cache keys TU content with it; the
// incremental path hashes every source on every run, so byte-at-a-time FNV
// showed up as a fixed per-run cost).
uint64_t HashContent64(std::string_view text);

// 128-bit FNV-1a digest. Chainable exactly like HashFnv64: folding the
// pieces of a concatenation one after another yields the digest of the
// concatenated bytes, which is what lets the run cache derive a key from
// (test id, separator, fingerprint, trial) components without materializing
// the joined string — and re-derive the identical key from the persisted
// string form. 128 bits because these digests *are* the cache identity:
// at 64 bits a birthday collision across a long-lived warm-started cache is
// merely improbable; at 128 it is negligible, and the insert path still
// cross-checks the legacy string key so even a collision is detected, not
// served.
struct Digest128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Digest128& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const Digest128& other) const { return !(*this == other); }
};

// FNV-128 offset basis (the standard 0x6c62272e07bb014262b821756295c58d).
inline constexpr Digest128 kFnv128Seed = {0x6c62272e07bb0142ull,
                                          0x62b821756295c58dull};

Digest128 HashFnv128(std::string_view text, Digest128 seed = kFnv128Seed);

// Folds the decimal rendering of `value` (the bytes std::to_string would
// produce) without allocating.
Digest128 HashFnv128Decimal(uint64_t value, Digest128 seed);

}  // namespace zebra

#endif  // SRC_COMMON_STRINGS_H_

#include "src/common/intern_arena.h"

#include <cstring>

namespace zebra {

namespace {

// Word-at-a-time hash of a byte string, for in-memory tables only: it depends
// on the host's byte order, so it must never be persisted or sent on a wire
// (Fnv1a64 in rng.h is the stable hash).
uint64_t HashBytes(std::string_view text) {
  constexpr uint64_t kMul = 0xFF51AFD7ED558CCDULL;
  uint64_t hash = 0x9E3779B97F4A7C15ULL ^ text.size();
  const char* data = text.data();
  size_t left = text.size();
  for (; left >= 8; data += 8, left -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, 8);
    hash = (hash ^ word) * kMul;
    hash ^= hash >> 32;
  }
  if (left > 0) {
    uint64_t word = 0;
    std::memcpy(&word, data, left);
    hash = (hash ^ word) * kMul;
  }
  return MixBits(hash);
}

}  // namespace

InternArena::Interned InternArena::Intern(std::string_view text) {
  const uint64_t hash = HashBytes(text);
  if (const uint32_t* id = index_.Find(Key{hash, text})) {
    return Interned{texts_[*id], *id};
  }
  // First occurrence (once per name per agent): the stored key must view the
  // arena copy, not the caller's buffer.
  const auto id = static_cast<uint32_t>(texts_.size());
  std::string_view stored(Copy(text), text.size());
  texts_.push_back(stored);
  index_[Key{hash, stored}] = id;
  return Interned{stored, id};
}

const char* InternArena::Copy(std::string_view text) {
  if (text.size() > kChunkBytes) {
    // Oversized string: dedicated chunk, current bump chunk untouched.
    auto chunk = std::make_unique<char[]>(text.size());
    char* dest = chunk.get();
    std::memcpy(dest, text.data(), text.size());
    arena_bytes_ += text.size();
    chunks_.push_back(std::move(chunk));
    // Keep the bump chunk (if any) as the last element so Copy stays O(1).
    if (chunks_.size() >= 2 && chunk_used_ < kChunkBytes) {
      std::swap(chunks_[chunks_.size() - 2], chunks_.back());
    }
    return dest;
  }
  if (chunk_used_ + text.size() > kChunkBytes) {
    chunks_.push_back(std::make_unique<char[]>(kChunkBytes));
    arena_bytes_ += kChunkBytes;
    chunk_used_ = 0;
  }
  char* dest = chunks_.back().get() + chunk_used_;
  if (!text.empty()) {
    std::memcpy(dest, text.data(), text.size());
  }
  chunk_used_ += text.size();
  return dest;
}

}  // namespace zebra

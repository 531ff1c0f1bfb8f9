// InternArena: an arena-backed string intern table.
//
// Interning returns a stable view of the first copy ever seen of a string
// plus a dense id (0, 1, 2, ... in first-seen order); the bytes live in
// bump-allocated chunks owned by the arena, so repeated occurrences of the
// same name (configuration parameters are read millions of times per
// campaign, from a vocabulary of a few hundred names) cost one hash of the
// bytes, one probe and zero allocations after the first. Views and ids stay
// valid for the arena's lifetime — which is why ConfAgent keeps one arena per
// agent, shared across every session that agent runs, and keys its per-session
// tables on the id instead of the bytes.
//
// Not internally synchronized: the owner serializes access (ConfAgent calls
// it under its own mutex; each worker thread owns its own agent, so there is
// no cross-thread sharing to begin with).

#ifndef SRC_COMMON_INTERN_ARENA_H_
#define SRC_COMMON_INTERN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/flat_hash_map.h"

namespace zebra {

class InternArena {
 public:
  struct Interned {
    std::string_view text;  // the arena's copy
    uint32_t id = 0;        // dense, first-seen order
  };

  InternArena() = default;
  InternArena(const InternArena&) = delete;
  InternArena& operator=(const InternArena&) = delete;

  // Returns the interned copy of `text` and its id. Hashes the bytes once,
  // a word at a time; O(1) amortized; allocates only on first occurrence.
  Interned Intern(std::string_view text);

  // The interned text of an id Intern returned.
  std::string_view Text(uint32_t id) const { return texts_[id]; }

  // Distinct strings interned.
  size_t size() const { return texts_.size(); }

  // Bytes of arena chunk capacity allocated so far.
  size_t arena_bytes() const { return arena_bytes_; }

 private:
  static constexpr size_t kChunkBytes = 16 * 1024;

  // Index key: the bytes plus their hash, compared hash-first. Stored keys
  // view the arena; probe keys view the caller's buffer.
  struct Key {
    uint64_t hash = 0;
    std::string_view text;
    bool operator==(const Key& other) const {
      return hash == other.hash && text == other.text;
    }
  };
  struct KeyHash {
    uint64_t operator()(const Key& key) const { return key.hash; }
  };

  // Chunked bump allocator; strings never straddle a chunk boundary, and a
  // string larger than a whole chunk gets a dedicated allocation.
  const char* Copy(std::string_view text);

  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t chunk_used_ = kChunkBytes;  // forces allocation on first Intern
  size_t arena_bytes_ = 0;
  FlatHashMap<Key, uint32_t, KeyHash> index_;  // text -> id
  std::vector<std::string_view> texts_;        // id -> view into chunks_
};

}  // namespace zebra

#endif  // SRC_COMMON_INTERN_ARENA_H_

// FlatHashMap: an open-addressing hash map for small, trivially copyable keys
// and values, built for tables that are emptied and refilled many times.
//
// ConfAgent keeps its per-session tables (ownership records, node table,
// read memo) in these: Clear() is O(1) — a generation bump marks every slot
// free — and keeps the slot array, so once a table has grown to a session's
// working size, later sessions insert without allocating. Linear probing over
// a power-of-two slot array at most half full; Erase uses backward-shift
// deletion, so there are no tombstones.
//
// References returned by Find and operator[] stay valid until the next insert
// (which may grow the array), Erase or Clear. Not internally synchronized.

#ifndef SRC_COMMON_FLAT_HASH_MAP_H_
#define SRC_COMMON_FLAT_HASH_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace zebra {

// Finalizer of SplitMix64: a cheap, well-mixed hash of one 64-bit word.
constexpr uint64_t MixBits(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct U64Hash {
  uint64_t operator()(uint64_t key) const { return MixBits(key); }
};

template <typename Key, typename Value, typename Hash>
class FlatHashMap {
  static_assert(std::is_trivially_copyable_v<Key>, "keys are copied by value");
  static_assert(std::is_trivially_copyable_v<Value>, "values are copied by value");

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Value* Find(const Key& key) {
    if (size_ == 0) {
      return nullptr;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        return nullptr;
      }
      if (slot.key == key) {
        return &slot.value;
      }
    }
  }
  const Value* Find(const Key& key) const {
    return const_cast<FlatHashMap*>(this)->Find(key);
  }

  // The value stored under `key`, value-initialized and inserted if absent.
  // One probe sequence either way.
  Value& operator[](const Key& key) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
    }
    size_t i = Home(key);
    for (;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        break;
      }
      if (slot.key == key) {
        return slot.value;
      }
    }
    Slot& slot = slots_[i];
    slot.generation = generation_;
    slot.key = key;
    slot.value = Value{};
    ++size_;
    return slot.value;
  }

  bool Erase(const Key& key) {
    if (size_ == 0) {
      return false;
    }
    size_t hole = Home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].generation != generation_) {
        return false;
      }
      if (slots_[hole].key == key) {
        break;
      }
    }
    // Backward shift: pull later members of the probe run into the hole
    // whenever the hole lies on their path from their home slot.
    for (size_t next = (hole + 1) & mask_;; next = (next + 1) & mask_) {
      Slot& slot = slots_[next];
      if (slot.generation != generation_) {
        break;
      }
      size_t home = Home(slot.key);
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slot;
        hole = next;
      }
    }
    slots_[hole].generation = 0;
    --size_;
    return true;
  }

  // Empties the map in O(1), keeping the slot array.
  void Clear() {
    size_ = 0;
    if (++generation_ == 0) {
      // Wrapped: slots stamped with old generations could read as live.
      for (Slot& slot : slots_) {
        slot.generation = 0;
      }
      generation_ = 1;
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.generation == generation_) {
        fn(slot.key, slot.value);
      }
    }
  }

 private:
  struct Slot {
    uint32_t generation = 0;  // live iff equal to the map's generation_
    Key key{};
    Value value{};
  };

  size_t Home(const Key& key) const {
    return static_cast<size_t>(Hash{}(key)) & mask_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const uint32_t old_generation = generation_;
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    generation_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.generation == old_generation) {
        (*this)[slot.key] = slot.value;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint32_t generation_ = 1;
};

}  // namespace zebra

#endif  // SRC_COMMON_FLAT_HASH_MAP_H_

// FlatHashMap against std::unordered_map under random inserts, erases and
// O(1) clears, plus the intern table built on it.

#include "src/common/flat_hash_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/common/intern_arena.h"
#include "src/common/rng.h"

namespace zebra {
namespace {

// Few distinct keys, so probe runs collide, wrap and get erased from the
// middle.
TEST(FlatHashMapTest, MatchesUnorderedMapUnderRandomOperations) {
  FlatHashMap<uint64_t, uint64_t, U64Hash> flat;
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(42);
  for (int step = 0; step < 200000; ++step) {
    const uint64_t key = 1 + rng.NextBelow(300);
    switch (rng.NextBelow(10)) {
      case 0:
        EXPECT_EQ(flat.Erase(key), reference.erase(key) == 1);
        break;
      case 1:
        if (rng.NextBelow(100) == 0) {
          flat.Clear();
          reference.clear();
        }
        break;
      default: {
        const uint64_t* before = flat.Find(key);
        ASSERT_EQ(before != nullptr, reference.count(key) == 1);
        if (before != nullptr) {
          EXPECT_EQ(*before, reference.at(key));
        }
        flat[key] = step;
        reference[key] = step;
      }
    }
    ASSERT_EQ(flat.size(), reference.size());
  }
  size_t visited = 0;
  flat.ForEach([&](uint64_t key, uint64_t value) {
    ++visited;
    ASSERT_EQ(reference.count(key), 1u);
    EXPECT_EQ(reference.at(key), value);
  });
  EXPECT_EQ(visited, reference.size());
  for (uint64_t key = 0; key <= 301; ++key) {
    const uint64_t* found = flat.Find(key);
    ASSERT_EQ(found != nullptr, reference.count(key) == 1) << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, reference.at(key));
    }
  }
}

TEST(FlatHashMapTest, ClearEmptiesTheMapAndKeepsItUsable) {
  FlatHashMap<uint64_t, int, U64Hash> flat;
  for (uint64_t key = 1; key <= 100; ++key) {
    flat[key] = static_cast<int>(key);
  }
  flat.Clear();
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.Find(7), nullptr);
  EXPECT_EQ(flat[7], 0) << "re-inserted values start fresh";
  EXPECT_EQ(flat.size(), 1u);
}

TEST(InternArenaTest, IdsAreDenseStableAndKeyedOnBytes) {
  InternArena arena;
  std::string first = "dfs.replication";
  const InternArena::Interned a = arena.Intern(first);
  first[0] = 'X';  // the arena owns its copy
  const InternArena::Interned b = arena.Intern(std::string("dfs.heartbeat.interval"));
  const InternArena::Interned again = arena.Intern("dfs.replication");
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(again.id, a.id);
  EXPECT_EQ(again.text.data(), a.text.data());
  EXPECT_EQ(arena.Text(a.id), "dfs.replication");
  EXPECT_EQ(arena.size(), 2u);
  // Every length class of the word-at-a-time hash, including the empty name.
  std::string grown;
  for (uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(arena.Intern(grown).id, arena.Intern(std::string(grown)).id);
    EXPECT_EQ(arena.Intern(grown).text, grown);
    grown += static_cast<char>('a' + i % 26);
  }
  EXPECT_EQ(arena.size(), 42u);
}

}  // namespace
}  // namespace zebra

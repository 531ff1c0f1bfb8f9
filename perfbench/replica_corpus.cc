#include "perfbench/replica_corpus.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/common/error.h"

namespace zebra::perfbench {

namespace {

// splitmix64: a well-mixed 64-bit id tag from (seed, copy).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::string ReplicaSuffix(uint64_t seed, int copy) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "_r%d_%016" PRIx64, copy,
                Mix(Mix(seed) ^ static_cast<uint64_t>(copy)));
  return buffer;
}

UnitTestRegistry ReplicateCorpus(const UnitTestRegistry& base, int copies,
                                 uint64_t seed, bool keep_ids, Ledger& ledger) {
  if (copies < 1 || (keep_ids && copies != 1)) {
    throw Error("perfbench: bad replica count");
  }
  UnitTestRegistry replicas;
  uint32_t slot = 0;
  for (int copy = 0; copy < copies; ++copy) {
    const std::string suffix = keep_ids ? "" : ReplicaSuffix(seed, copy);
    for (const UnitTestDef& test : base.tests()) {
      // id is "<app>.<name>"; Add re-joins app and name.
      std::string name = test.id.substr(test.app.size() + 1) + suffix;
      replicas.Add(test.app, std::move(name),
                   [&ledger, slot, body = test.body](TestContext& context) {
                     ExecScope scope(ledger, slot);
                     body(context);
                   });
      ++slot;
    }
  }
  return replicas;
}

}  // namespace zebra::perfbench

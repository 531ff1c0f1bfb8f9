// The corpus registry: every whole-system unit test of the mini-applications,
// addressable by id, grouped by application (paper Table 1's test counts).

#ifndef SRC_TESTKIT_UNIT_TEST_REGISTRY_H_
#define SRC_TESTKIT_UNIT_TEST_REGISTRY_H_

#include <functional>
#include <map>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/testkit/test_context.h"

namespace zebra {

struct UnitTestDef {
  std::string id;   // "<app>.TestName"
  std::string app;  // owning application
  std::function<void(TestContext&)> body;
};

class UnitTestRegistry {
 public:
  // Appends in registration order. Throws InternalError on a duplicate id.
  void Add(std::string app, std::string name, std::function<void(TestContext&)> body);

  const std::vector<UnitTestDef>& tests() const { return tests_; }
  std::vector<const UnitTestDef*> ForApp(const std::string& app) const;
  // O(1) through the id index.
  const UnitTestDef* Find(const std::string& id) const;
  std::map<std::string, int> CountsByApp() const;

 private:
  // Open-addressing id index over tests_: a power-of-two slot array at most
  // half full, each slot 0 (free) or 1 + a position in tests_. Four bytes a
  // slot, so a replicated corpus's index stays far smaller than its ids.
  // The slot holding `id`, or the free slot where it belongs.
  size_t SlotFor(std::string_view id) const;
  void GrowIndex();

  std::vector<UnitTestDef> tests_;
  std::vector<uint32_t> index_;
};

// Per-application corpus registration (defined in corpus/*.cc).
void RegisterMiniDfsCorpus(UnitTestRegistry& registry);
void RegisterMiniMrCorpus(UnitTestRegistry& registry);
void RegisterMiniYarnCorpus(UnitTestRegistry& registry);
void RegisterMiniStreamCorpus(UnitTestRegistry& registry);
void RegisterMiniKvCorpus(UnitTestRegistry& registry);
void RegisterAppToolsCorpus(UnitTestRegistry& registry);

// The full corpus (lazily built process-wide singleton).
const UnitTestRegistry& FullCorpus();

}  // namespace zebra

#endif  // SRC_TESTKIT_UNIT_TEST_REGISTRY_H_

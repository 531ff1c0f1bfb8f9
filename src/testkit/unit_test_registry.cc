#include "src/testkit/unit_test_registry.h"

#include <algorithm>

#include "src/common/error.h"

namespace zebra {

void UnitTestRegistry::Add(std::string app, std::string name,
                           std::function<void(TestContext&)> body) {
  UnitTestDef def;
  def.id = app + "." + name;
  def.app = std::move(app);
  def.body = std::move(body);
  if ((tests_.size() + 1) * 2 > index_.size()) {
    GrowIndex();
  }
  uint32_t& slot = index_[SlotFor(def.id)];
  if (slot != 0) {
    throw InternalError("duplicate unit test registered: " + def.id);
  }
  slot = static_cast<uint32_t>(tests_.size() + 1);
  tests_.push_back(std::move(def));
}

size_t UnitTestRegistry::SlotFor(std::string_view id) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(id) & mask;; i = (i + 1) & mask) {
    const uint32_t slot = index_[i];
    if (slot == 0 || tests_[slot - 1].id == id) {
      return i;
    }
  }
}

void UnitTestRegistry::GrowIndex() {
  index_.assign(std::max<size_t>(64, index_.size() * 2), 0);
  for (size_t position = 0; position < tests_.size(); ++position) {
    index_[SlotFor(tests_[position].id)] = static_cast<uint32_t>(position + 1);
  }
}

std::vector<const UnitTestDef*> UnitTestRegistry::ForApp(const std::string& app) const {
  std::vector<const UnitTestDef*> result;
  for (const UnitTestDef& test : tests_) {
    if (test.app == app) {
      result.push_back(&test);
    }
  }
  return result;
}

const UnitTestDef* UnitTestRegistry::Find(const std::string& id) const {
  if (index_.empty()) {
    return nullptr;
  }
  const uint32_t slot = index_[SlotFor(id)];
  return slot == 0 ? nullptr : &tests_[slot - 1];
}

std::map<std::string, int> UnitTestRegistry::CountsByApp() const {
  std::map<std::string, int> counts;
  for (const UnitTestDef& test : tests_) {
    counts[test.app] += 1;
  }
  return counts;
}

const UnitTestRegistry& FullCorpus() {
  static const UnitTestRegistry* registry = [] {
    auto* r = new UnitTestRegistry();
    RegisterMiniDfsCorpus(*r);
    RegisterMiniMrCorpus(*r);
    RegisterMiniYarnCorpus(*r);
    RegisterMiniStreamCorpus(*r);
    RegisterMiniKvCorpus(*r);
    RegisterAppToolsCorpus(*r);
    return r;
  }();
  return *registry;
}

}  // namespace zebra

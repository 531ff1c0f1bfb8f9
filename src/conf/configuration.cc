#include "src/conf/configuration.h"

#include "src/common/strings.h"
#include "src/conf/annotations.h"
#include "src/conf/conf_agent.h"

namespace zebra {

namespace {
constexpr char kConfApp[] = "configuration";

// The get hook: every getter, typed or not, reaches ConfAgent through this
// one annotated site. Returns the plan's override, or nullptr.
const std::string* GetHook(uint64_t conf_id, std::string_view name) {
  ZC_ANNOTATION_SITE(kConfApp, AnnotationKind::kConfHook);
  return ConfAgent::Current().InterceptGet(conf_id, name);
}
}  // namespace

Configuration::Configuration()
    : id_(ConfAgent::NextConfId()), agent_(&ConfAgent::Current()) {
  ZC_ANNOTATION_SITE(kConfApp, AnnotationKind::kConfHook);
  agent_->NewConf(id_);
  agent_->RegisterConfObject(id_, this);
}

Configuration::Configuration(const Configuration& other)
    : id_(ConfAgent::NextConfId()), agent_(&ConfAgent::Current()) {
  ZC_ANNOTATION_SITE(kConfApp, AnnotationKind::kConfHook);
  agent_->CloneConf(other.id_, id_);
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    properties_ = other.properties_;
  }
  agent_->RegisterConfObject(id_, this);
}

Configuration::Configuration(RefCloneTag, const Configuration& source)
    : id_(ConfAgent::NextConfId()), agent_(&ConfAgent::Current()) {
  {
    std::lock_guard<std::mutex> lock(source.mutex_);
    properties_ = source.properties_;
  }
  agent_->RefToCloneConf(source.id_, id_);
  agent_->RegisterConfObject(id_, this);
}

Configuration::~Configuration() { agent_->UnregisterConfObject(id_); }

Configuration Configuration::RefToClone(const Configuration& source) {
  return Configuration(RefCloneTag{}, source);
}

std::string Configuration::Get(std::string_view name,
                               std::string_view default_value) const {
  if (const std::string* assigned = GetHook(id_, name)) {
    return *assigned;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = properties_.find(name);
  if (it == properties_.end()) {
    return std::string(default_value);
  }
  return it->second;
}

template <typename T, typename Parse, typename Absent>
T Configuration::GetParsed(std::string_view name, T default_value, Parse parse,
                           Absent absent) const {
  // The served value parsed in place — the plan's or the stored string is
  // never copied. Malformed values fall back to the default, like Hadoop's
  // Configuration; an absent key yields absent().
  T parsed = default_value;
  if (const std::string* assigned = GetHook(id_, name)) {
    return parse(*assigned, &parsed) ? parsed : default_value;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = properties_.find(name);
  if (it == properties_.end()) {
    return absent();
  }
  return parse(it->second, &parsed) ? parsed : default_value;
}

bool Configuration::GetBool(std::string_view name, bool default_value) const {
  // BoolToString/ParseBool round-trip exactly, so an absent key yields the
  // default itself.
  return GetParsed(name, default_value, ParseBool, [&] { return default_value; });
}

int64_t Configuration::GetInt(std::string_view name, int64_t default_value) const {
  // Int64ToString/ParseInt64 round-trip exactly, as for GetBool.
  return GetParsed(name, default_value, ParseInt64, [&] { return default_value; });
}

double Configuration::GetDouble(std::string_view name, double default_value) const {
  // "%g" does not round-trip: an absent key serves the default as formatted
  // text, exactly as Get(name, DoubleToString(default_value)) would.
  return GetParsed(name, default_value, ParseDouble, [&] {
    double parsed = default_value;
    return ParseDouble(DoubleToString(default_value), &parsed) ? parsed
                                                               : default_value;
  });
}

bool Configuration::Has(std::string_view name) const {
  // No ZC_ANNOTATION_SITE here: Has is not a get/set hook in the paper's
  // annotation census, and a plan override never changes what it returns.
  std::lock_guard<std::mutex> lock(mutex_);
  return properties_.find(name) != properties_.end();
}

void Configuration::Set(std::string_view name, std::string_view value) {
  ZC_ANNOTATION_SITE(kConfApp, AnnotationKind::kConfHook);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    properties_[std::string(name)] = std::string(value);
  }
  ConfAgent::Current().InterceptSet(id_, name, value);
}

void Configuration::SetBool(std::string_view name, bool value) {
  Set(name, BoolToString(value));
}

void Configuration::SetInt(std::string_view name, int64_t value) {
  Set(name, Int64ToString(value));
}

void Configuration::SetDouble(std::string_view name, double value) {
  Set(name, DoubleToString(value));
}

void Configuration::SetRaw(std::string_view name, std::string_view value) {
  std::lock_guard<std::mutex> lock(mutex_);
  properties_[std::string(name)] = std::string(value);
}

std::map<std::string, std::string> Configuration::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {properties_.begin(), properties_.end()};
}

}  // namespace zebra

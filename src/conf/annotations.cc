#include "src/conf/annotations.h"

#include <mutex>
#include <set>

namespace zebra {

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<AnnotationSite> sites;
  std::set<std::pair<std::string, int>> seen;  // (file, line)
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

bool RegisterAnnotationSiteOnce(std::string_view app, AnnotationKind kind,
                                const char* file, int line) {
  // Node constructors call this every time they run, from every worker
  // thread. A site this thread has already registered needs neither the
  // global lock nor a string key; the set is keyed by the file pointer, so
  // the same file reached through another pointer just takes the locked
  // path once more, which deduplicates by name.
  thread_local std::set<std::pair<const char*, int>> seen_here;
  if (!seen_here.emplace(file, line).second) {
    return true;
  }
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto key = std::make_pair(std::string(file), line);
  if (registry.seen.insert(key).second) {
    registry.sites.push_back(AnnotationSite{std::string(app), kind, file, line});
  }
  return true;
}

std::vector<AnnotationSite> GetAnnotationSites() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.sites;
}

AnnotationCounts GetAnnotationCounts(const std::string& app) {
  AnnotationCounts counts;
  for (const AnnotationSite& site : GetAnnotationSites()) {
    if (site.app != app) {
      continue;
    }
    switch (site.kind) {
      case AnnotationKind::kNodeInit:
        ++counts.node_init_sites;
        break;
      case AnnotationKind::kRefToClone:
        ++counts.ref_to_clone_sites;
        break;
      case AnnotationKind::kConfHook:
        ++counts.conf_hook_sites;
        break;
    }
  }
  return counts;
}

std::vector<std::string> GetAnnotatedApps() {
  std::set<std::string> apps;
  for (const AnnotationSite& site : GetAnnotationSites()) {
    apps.insert(site.app);
  }
  return std::vector<std::string>(apps.begin(), apps.end());
}

}  // namespace zebra

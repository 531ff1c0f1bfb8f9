#include "src/testkit/run_cache.h"

#include <fstream>
#include <sstream>

#include "src/common/logging.h"

namespace zebra {

namespace {

thread_local RunCache* g_run_cache = nullptr;

// File-format escaping: entries are one logical value per line; only the
// newline and the escape character itself need protection (cache keys carry
// '\x1f'/'\x1e' separators, which are line-safe bytes).
std::string EscapeLine(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string UnescapeLine(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      ++i;
      out += text[i] == 'n' ? '\n' : text[i];
    } else {
      out += text[i];
    }
  }
  return out;
}

bool DeserializeSessionReport(const std::string& blob, SessionReport* report) {
  std::istringstream in(blob);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    size_t space = line.find(' ');
    if (space == std::string::npos) {
      return false;
    }
    std::string tag = line.substr(0, space);
    std::string rest = line.substr(space + 1);
    if (tag == "node") {
      size_t s = rest.find(' ');
      if (s == std::string::npos) {
        return false;
      }
      int64_t count = 0;
      if (!ParseInt64(rest.substr(0, s), &count)) {
        return false;
      }
      report->node_counts[rest.substr(s + 1)] = static_cast<int>(count);
    } else if (tag == "read") {
      size_t s = rest.find(' ');
      if (s == std::string::npos) {
        return false;
      }
      report->reads[rest.substr(0, s)].insert(rest.substr(s + 1));
    } else if (tag == "uncertain") {
      report->uncertain_params.insert(rest);
    } else if (tag == "counters") {
      std::istringstream fields(rest);
      if (!(fields >> report->conf_objects_created >> report->clones >>
            report->ref_to_clones >> report->uncertain_conf_count >>
            report->override_hits)) {
        return false;
      }
    } else if (tag == "flags") {
      int sharing = 0;
      int usage = 0;
      std::istringstream fields(rest);
      if (!(fields >> sharing >> usage)) {
        return false;
      }
      report->conf_sharing_detected = sharing != 0;
      report->any_conf_usage = usage != 0;
    } else {
      return false;
    }
  }
  return true;
}

// v2 added the trailing "C <fnv64 hex>" whole-file checksum line; v3 dropped
// each entry's "T" (observed read trace) line and the report's "trace" tags.
// Older files are rejected whole: the cache is an optimization, so a one-time
// cold start on upgrade is cheaper than trusting a file of another shape.
// The hash-keyed index did not bump the version: keys are persisted in their
// legacy string form.
constexpr char kCacheFileMagic[] = "zebra-run-cache-v3";
constexpr std::string_view kCacheFileFamily = "zebra-run-cache-v";

// One-byte separators folded into key digests (string_view avoids the
// char overload ambiguity and keeps the fold identical to hashing the
// concatenated string).
constexpr std::string_view kSep = "\x1f";
constexpr std::string_view kSepStar = "\x1f*";

}  // namespace

// SessionReport round-trip. Warm-started cache entries feed TestGenerator's
// pre-run consumption, so every field must survive. The blob is a small
// tag-prefixed line format; entities and parameter names never contain
// spaces, values (the tail of each line) may.
std::string SerializeSessionReport(const SessionReport& report) {
  std::ostringstream out;
  for (const auto& [type, count] : report.node_counts) {
    out << "node " << count << ' ' << type << '\n';
  }
  for (const auto& [entity, params] : report.reads) {
    for (const std::string& param : params) {
      out << "read " << entity << ' ' << param << '\n';
    }
  }
  for (const std::string& param : report.uncertain_params) {
    out << "uncertain " << param << '\n';
  }
  out << "counters " << report.conf_objects_created << ' ' << report.clones << ' '
      << report.ref_to_clones << ' ' << report.uncertain_conf_count << ' '
      << report.override_hits << '\n';
  out << "flags " << (report.conf_sharing_detected ? 1 : 0) << ' '
      << (report.any_conf_usage ? 1 : 0) << '\n';
  return out.str();
}

void SetGlobalRunCache(RunCache* cache) { g_run_cache = cache; }

RunCache* GlobalRunCache() { return g_run_cache; }

// '\x1f' (unit separator) cannot appear in test ids or plan fingerprints, so
// the concatenation is injective; the full string defines the key — the
// 128-bit digests below are digests *of these strings*, derived without
// materializing them.
std::string RunCache::ExactKey(const std::string& test_id, const std::string& plan_text,
                               uint64_t trial) {
  return test_id + '\x1f' + plan_text + '\x1f' + std::to_string(trial);
}

std::string RunCache::WildcardKey(const std::string& test_id,
                                  const std::string& plan_text) {
  return test_id + '\x1f' + plan_text + "\x1f*";
}

// The component folds. FNV chains over concatenation, so each of these is
// byte-for-byte the digest of the matching legacy string above — the
// equivalence LoadFromFile's gate verifies on every persisted key.
Digest128 RunCache::ExactRunKey(const std::string& test_id,
                                const std::string& plan_text, uint64_t trial) {
  Digest128 digest = HashFnv128(test_id);
  digest = HashFnv128(kSep, digest);
  digest = HashFnv128(plan_text, digest);
  digest = HashFnv128(kSep, digest);
  return HashFnv128Decimal(trial, digest);
}

Digest128 RunCache::WildcardRunKey(const std::string& test_id,
                                   const std::string& plan_text) {
  Digest128 digest = HashFnv128(test_id);
  digest = HashFnv128(kSep, digest);
  digest = HashFnv128(plan_text, digest);
  return HashFnv128(kSepStar, digest);
}

int64_t RunCache::EntryBytes(const std::string& legacy_key,
                             const TestResult& result) {
  const SessionReport& report = result.report;
  int64_t bytes = static_cast<int64_t>(sizeof(Node) + legacy_key.size() +
                                       result.failure.size());
  for (const auto& [type, count] : report.node_counts) {
    bytes += static_cast<int64_t>(type.size()) + 8;
  }
  for (const auto& [entity, params] : report.reads) {
    bytes += static_cast<int64_t>(entity.size());
    for (const std::string& param : params) {
      bytes += static_cast<int64_t>(param.size());
    }
  }
  for (const std::string& param : report.uncertain_params) {
    bytes += static_cast<int64_t>(param.size());
  }
  return bytes;
}

RunCache::Node* RunCache::Touch(Digest128 key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return &lru_.front();
}

template <typename MakeLegacy>
bool RunCache::InsertEntry(Digest128 key, MakeLegacy&& make_legacy,
                           const std::shared_ptr<const TestResult>& result) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    // First result wins; identical by construction — unless the legacy keys
    // differ, which means two distinct runs digested to the same 128 bits.
    // Drop the stored entry too: neither logical key may be served through
    // an ambiguous digest (a re-execution is cheap, a wrong serve is not).
    if (it->second->legacy_key != make_legacy()) {
      ++stats_.key_collisions;
      stats_.bytes -= EntryBytes(it->second->legacy_key, *it->second->result);
      lru_.erase(it->second);
      index_.erase(it);
      --stats_.entries;
    }
    return false;
  }
  return InsertEntryWithLegacy(key, make_legacy(), result);
}

bool RunCache::InsertEntryWithLegacy(Digest128 key, std::string legacy_key,
                                     const std::shared_ptr<const TestResult>& result) {
  stats_.bytes += EntryBytes(legacy_key, *result);
  lru_.push_front(Node{key, std::move(legacy_key), result});
  index_[key] = lru_.begin();
  ++stats_.entries;
  EnforceLimits();
  return true;
}

void RunCache::EnforceLimits() {
  while (!lru_.empty() &&
         ((limits_.max_entries > 0 && stats_.entries > limits_.max_entries) ||
          (limits_.max_bytes > 0 && stats_.bytes > limits_.max_bytes))) {
    const Node& node = lru_.back();
    stats_.bytes -= EntryBytes(node.legacy_key, *node.result);
    index_.erase(node.key);
    lru_.pop_back();
    --stats_.entries;
    ++stats_.evictions;
  }
}

const TestResult* RunCache::Lookup(const std::string& test_id,
                                   const std::string& plan_text, uint64_t trial) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Node* node = LookupLocked(test_id, plan_text, trial);
  return node == nullptr ? nullptr : node->result.get();
}

bool RunCache::Lookup(const std::string& test_id, const std::string& plan_text,
                      uint64_t trial, TestResult* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Node* node = LookupLocked(test_id, plan_text, trial);
  if (node == nullptr) {
    return false;
  }
  *out = *node->result;
  return true;
}

std::shared_ptr<const TestResult> RunCache::LookupShared(
    const std::string& test_id, const std::string& plan_text, uint64_t trial) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Node* node = LookupLocked(test_id, plan_text, trial);
  // Refcount bump under the lock; the payload is immutable and outlives any
  // eviction, so the caller's pointer is safe without a copy.
  return node == nullptr ? nullptr : node->result;
}

const RunCache::Node* RunCache::LookupLocked(const std::string& test_id,
                                             const std::string& plan_text,
                                             uint64_t trial) {
  const Node* node = Touch(WildcardRunKey(test_id, plan_text));
  if (node == nullptr) {
    node = Touch(ExactRunKey(test_id, plan_text, trial));
  }
  if (node != nullptr) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return node;
}

void RunCache::Insert(const std::string& test_id, const std::string& plan_text,
                      uint64_t trial, bool trial_insensitive,
                      std::shared_ptr<const TestResult> result) {
  std::lock_guard<std::mutex> lock(mutex_);
  InsertEntry(ExactRunKey(test_id, plan_text, trial),
              [&] { return ExactKey(test_id, plan_text, trial); }, result);
  if (!trial_insensitive) {
    // Trial-sensitive executions are never shared across trials: the RNG
    // seed folds in the trial, so different trials legitimately diverge.
    return;
  }
  InsertEntry(WildcardRunKey(test_id, plan_text),
              [&] { return WildcardKey(test_id, plan_text); }, result);
}

void RunCache::Insert(const std::string& test_id, const std::string& plan_text,
                      uint64_t trial, bool trial_insensitive,
                      const TestResult& result) {
  Insert(test_id, plan_text, trial, trial_insensitive,
         std::make_shared<const TestResult>(result));
}

bool RunCache::InsertAliasForTesting(Digest128 key, std::string legacy_key,
                                     const TestResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  return InsertEntry(key, [&] { return legacy_key; },
                     std::make_shared<const TestResult>(result));
}

bool RunCache::SaveToFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  // Every content line folds into a running digest; the trailing checksum
  // line lets LoadFromFile reject a torn or bit-flipped file wholesale.
  uint64_t digest = kFnv64Seed;
  auto emit = [&out, &digest](const std::string& line) {
    digest = HashFnv64(line, digest);
    out << line << '\n';
  };
  emit(kCacheFileMagic);
  emit(Int64ToString(static_cast<int64_t>(lru_.size())));
  // Front-to-back = most-to-least recent; LoadFromFile rebuilds in order.
  // Keys persist in their legacy string form, so the format is independent
  // of the in-memory digest scheme.
  for (const Node& node : lru_) {
    emit("K " + EscapeLine(node.legacy_key));
    emit(std::string("P ") + (node.result->passed ? "1" : "0"));
    emit("F " + EscapeLine(node.result->failure));
    emit("R " + EscapeLine(SerializeSessionReport(node.result->report)));
  }
  out << "C " << HashToHex(digest) << '\n';
  return static_cast<bool>(out);
}

// Re-derives a persisted key's digest through the same component folds the
// hot path uses (parsing the legacy exact/wildcard shape). Returns false for
// a shape SaveToFile never emits.
bool RunCache::DeriveComponentDigest(const std::string& key, Digest128* out) {
  size_t id_end = key.find('\x1f');
  size_t tail_sep = key.rfind('\x1f');
  if (id_end == std::string::npos || tail_sep == id_end) {
    return false;
  }
  const std::string test_id = key.substr(0, id_end);
  const std::string plan_text =
      key.substr(id_end + 1, tail_sep - id_end - 1);
  const std::string tail = key.substr(tail_sep + 1);
  if (tail == "*") {
    *out = WildcardRunKey(test_id, plan_text);
    return true;
  }
  int64_t trial = 0;
  if (!ParseInt64(tail, &trial) || trial < 0) {
    return false;
  }
  *out = ExactRunKey(test_id, plan_text, static_cast<uint64_t>(trial));
  return true;
}

const char* RunCache::LoadResult::reason() const {
  switch (status) {
    case LoadStatus::kLoaded:
      return "loaded";
    case LoadStatus::kMissing:
      return "missing";
    case LoadStatus::kUnsupportedVersion:
      return "unsupported version";
    case LoadStatus::kCorrupt:
      return "corrupt";
  }
  return "corrupt";
}

RunCache::LoadResult RunCache::LoadFromFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ifstream in(path);
  if (!in) {
    return {LoadStatus::kMissing};  // the normal cold start, not a failure
  }
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
  stats_.bytes = 0;

  // Any defect — bad magic, torn tail, checksum mismatch, unparseable entry,
  // hashed/legacy key divergence — lands here: the cache degrades to empty
  // (a cold start) instead of throwing or keeping a half-loaded state.
  auto reject = [this, &path](const char* why,
                               LoadStatus status = LoadStatus::kCorrupt) {
    ZLOG_WARN << "run cache: ignoring " << path << " (" << why
              << "); starting cold";
    lru_.clear();
    index_.clear();
    stats_.entries = 0;
    stats_.bytes = 0;
    ++stats_.load_failures;
    return LoadResult{status};
  };

  uint64_t digest = kFnv64Seed;
  std::string line;
  auto next_line = [&in, &line, &digest]() {
    if (!std::getline(in, line)) {
      return false;
    }
    digest = HashFnv64(line, digest);
    return true;
  };

  if (!next_line() || line != kCacheFileMagic) {
    // Same family, another format version: well-formed, but not ours.
    return line.starts_with(kCacheFileFamily)
               ? reject("unsupported version", LoadStatus::kUnsupportedVersion)
               : reject("not a run-cache file");
  }
  int64_t count = 0;
  if (!next_line() || !ParseInt64(line, &count) || count < 0) {
    return reject("corrupt entry count");
  }
  auto read_field = [&next_line, &line](char tag, std::string* value) {
    if (!next_line() || line.size() < 2 || line[0] != tag || line[1] != ' ') {
      return false;
    }
    *value = UnescapeLine(line.substr(2));
    return true;
  };
  for (int64_t i = 0; i < count; ++i) {
    std::string key;
    std::string passed;
    auto result = std::make_shared<TestResult>();
    std::string blob;
    if (!read_field('K', &key) || !read_field('P', &passed) ||
        !read_field('F', &result->failure) || !read_field('R', &blob) ||
        !DeserializeSessionReport(blob, &result->report)) {
      return reject("truncated or corrupt entry");
    }
    result->passed = passed == "1";
    // The hashed/legacy agreement gate: the digest of the whole persisted
    // string must equal the digest the hot path would fold from its
    // components. A divergence means the two lookup schemes would disagree
    // at runtime, so the file is rejected wholesale.
    const Digest128 whole_key = HashFnv128(key);
    Digest128 component_key;
    if (!DeriveComponentDigest(key, &component_key) ||
        component_key != whole_key) {
      return reject("hashed/legacy key divergence");
    }
    if (auto existing = index_.find(whole_key); existing != index_.end()) {
      if (existing->second->legacy_key == key) {
        continue;  // duplicate record; first (most recent) wins
      }
      // A 128-bit collision inside one file: drop both sides, as at insert.
      ++stats_.key_collisions;
      stats_.bytes -=
          EntryBytes(existing->second->legacy_key, *existing->second->result);
      lru_.erase(existing->second);
      index_.erase(existing);
      --stats_.entries;
      continue;
    }
    // File order is most-to-least recent; append keeps it.
    stats_.bytes += EntryBytes(key, *result);
    lru_.push_back(Node{whole_key, key, std::move(result)});
    index_[whole_key] = std::prev(lru_.end());
    ++stats_.entries;
  }
  // The checksum line covers everything above it (it is not folded into the
  // digest itself).
  uint64_t content_digest = digest;
  if (!std::getline(in, line) || line != "C " + HashToHex(content_digest)) {
    return reject("checksum mismatch (torn or tampered file)");
  }
  EnforceLimits();
  return {LoadStatus::kLoaded};
}

}  // namespace zebra

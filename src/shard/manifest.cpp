#include "shard/manifest.h"

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>

#include "common/durable_io.h"
#include "shard/shard_router.h"

namespace fdrms {

namespace {

constexpr const char* kMagic = "FDRMS-MANIFEST-v1";

std::string DirOf(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

bool ParseHex64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

// Consumes `prefix` off the front of *s; false (s untouched) on mismatch.
bool ConsumePrefix(std::string* s, const char* prefix) {
  std::size_t n = std::char_traits<char>::length(prefix);
  if (s->compare(0, n, prefix) != 0) return false;
  s->erase(0, n);
  return true;
}

// Consumes a non-empty run of digits.
bool ConsumeDigits(std::string* s) {
  std::size_t n = 0;
  while (n < s->size() && (*s)[n] >= '0' && (*s)[n] <= '9') ++n;
  if (n == 0) return false;
  s->erase(0, n);
  return true;
}

// True iff `rest` (the part after the base name) is a versioned snapshot
// suffix this layer owns: ".shard<i>.g<g>.b<b>" or ".routing.e<e>",
// optionally with a trailing ".tmp".
bool IsVersionedSuffix(std::string rest, bool* is_tmp) {
  *is_tmp = false;
  if (rest.size() > 4 && rest.compare(rest.size() - 4, 4, ".tmp") == 0) {
    *is_tmp = true;
    rest.erase(rest.size() - 4);
  }
  std::string s = rest;
  if (ConsumePrefix(&s, ".shard") && ConsumeDigits(&s) &&
      ConsumePrefix(&s, ".g") && ConsumeDigits(&s) &&
      ConsumePrefix(&s, ".b") && ConsumeDigits(&s) && s.empty()) {
    return true;
  }
  s = rest;
  return ConsumePrefix(&s, ".routing.e") && ConsumeDigits(&s) && s.empty();
}

}  // namespace

std::string EncodeManifest(const ConstellationManifest& m) {
  std::ostringstream body;
  body << kMagic << "\n"
       << "generation " << m.generation << "\n"
       << "epoch " << m.epoch << "\n"
       << "shard_count " << m.shard_count << "\n"
       << "routing " << ChecksumHex(m.routing_checksum) << " "
       << (m.routing_file.empty() ? "-" : m.routing_file.c_str()) << "\n";
  for (const ManifestShardEntry& e : m.shards) {
    body << "shard " << e.index << " " << e.gen << " " << e.batches << " "
         << ChecksumHex(e.checksum) << " "
         << (e.file.empty() ? "-" : e.file.c_str()) << "\n";
  }
  std::string text = body.str();
  // The trailer's checksum covers exactly the bytes before the trailer
  // itself (the decoder splits at the final "\nchecksum " and hashes what
  // precedes it) — compute it before appending the trailer prefix.
  const std::string cksum = ChecksumHex(Fnv1a64(text.data(), text.size()));
  text += "checksum ";
  text += cksum;
  text += "\n";
  return text;
}

Result<ConstellationManifest> DecodeManifest(const std::string& text) {
  // Split off the trailer; the checksum covers every byte before it,
  // including the preceding newline.
  std::size_t pos = text.rfind("\nchecksum ");
  if (pos == std::string::npos) {
    return Status::Internal("manifest: missing checksum trailer");
  }
  const std::string body = text.substr(0, pos + 1);
  std::string trailer = text.substr(pos + 1);
  while (!trailer.empty() &&
         (trailer.back() == '\n' || trailer.back() == '\r')) {
    trailer.pop_back();
  }
  std::uint64_t want = 0;
  if (!ConsumePrefix(&trailer, "checksum ") || !ParseHex64(trailer, &want)) {
    return Status::Internal("manifest: malformed checksum trailer");
  }
  if (Fnv1a64(body.data(), body.size()) != want) {
    return Status::Internal("manifest: body checksum mismatch (torn write?)");
  }

  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return Status::Internal("manifest: bad magic");
  }
  ConstellationManifest m;
  bool saw_generation = false, saw_epoch = false, saw_count = false,
       saw_routing = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "generation") {
      ls >> m.generation;
      saw_generation = static_cast<bool>(ls);
    } else if (key == "epoch") {
      ls >> m.epoch;
      saw_epoch = static_cast<bool>(ls);
    } else if (key == "shard_count") {
      ls >> m.shard_count;
      saw_count = static_cast<bool>(ls);
    } else if (key == "routing") {
      std::string cksum, file;
      ls >> cksum >> file;
      if (!ls || !ParseHex64(cksum, &m.routing_checksum)) {
        return Status::Internal("manifest: malformed routing row");
      }
      m.routing_file = (file == "-") ? std::string() : file;
      saw_routing = true;
    } else if (key == "shard") {
      ManifestShardEntry e;
      std::string cksum, file;
      ls >> e.index >> e.gen >> e.batches >> cksum >> file;
      if (!ls || !ParseHex64(cksum, &e.checksum)) {
        return Status::Internal("manifest: malformed shard row");
      }
      e.file = (file == "-") ? std::string() : file;
      m.shards.push_back(std::move(e));
    } else {
      return Status::Internal("manifest: unknown row '" + key + "'");
    }
  }
  if (!saw_generation || !saw_epoch || !saw_count || !saw_routing) {
    return Status::Internal("manifest: missing required row");
  }
  // Resume builds a routing table over exactly this many shards, and a
  // table spans one shard up to one shard per hash slot.
  if (m.shard_count < 1 || m.shard_count > kNumHashSlots) {
    return Status::Internal("manifest: shard_count " +
                            std::to_string(m.shard_count) + " outside [1, " +
                            std::to_string(kNumHashSlots) + "]");
  }
  if (static_cast<int>(m.shards.size()) != m.shard_count) {
    return Status::Internal("manifest: shard rows != shard_count");
  }
  for (int i = 0; i < m.shard_count; ++i) {
    if (m.shards[static_cast<std::size_t>(i)].index != i) {
      return Status::Internal("manifest: shard rows out of order");
    }
  }
  return m;
}

std::string ManifestSlotPath(const std::string& base, int slot) {
  return base + (slot == 0 ? ".manifest.a" : ".manifest.b");
}

std::string ShardSnapshotPath(const std::string& base, int index,
                              long long gen, long long batches) {
  std::ostringstream oss;
  oss << base << ".shard" << index << ".g" << gen << ".b" << batches;
  return oss.str();
}

std::string RoutingSnapshotPath(const std::string& base, long long epoch) {
  std::ostringstream oss;
  oss << base << ".routing.e" << epoch;
  return oss.str();
}

Result<LoadedManifest> LoadNewestManifest(const std::string& base) {
  LoadedManifest out;
  std::string torn_detail;
  for (int slot = 0; slot < 2; ++slot) {
    Result<std::string> text = ReadFileToString(ManifestSlotPath(base, slot));
    if (!text.ok()) {
      if (text.status().code() != StatusCode::kNotFound) {
        torn_detail += text.status().ToString() + "; ";
      }
      continue;
    }
    ++out.present_slots;
    Result<ConstellationManifest> m = DecodeManifest(text.value());
    if (!m.ok()) {
      torn_detail += ManifestSlotPath(base, slot) + ": " +
                     m.status().ToString() + "; ";
      continue;
    }
    ++out.valid_slots;
    if (!m.value().routing_file.empty()) {
      out.referenced.push_back(m.value().routing_file);
    }
    for (const ManifestShardEntry& e : m.value().shards) {
      if (!e.file.empty()) out.referenced.push_back(e.file);
    }
    if (out.slot < 0 || m.value().generation > out.manifest.generation) {
      out.manifest = std::move(m).value();
      out.slot = slot;
    }
  }
  if (out.present_slots == 0) {
    return Status::NotFound("no manifest at " + base + ".manifest.{a,b}");
  }
  if (out.valid_slots == 0) {
    return Status::Internal("manifest slots present but none valid at " +
                            base + ": " + torn_detail);
  }
  return out;
}

Status CommitManifestSlot(const std::string& base,
                          const ConstellationManifest& m) {
  const int slot = static_cast<int>(m.generation & 1);
  return WriteFileDurable(ManifestSlotPath(base, slot), EncodeManifest(m),
                          "shard.manifest");
}

std::string FileBasename(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string JoinDirOf(const std::string& base, const std::string& name) {
  const std::string dir = DirOf(base);
  if (dir == ".") return name;
  return (dir == "/") ? "/" + name : dir + "/" + name;
}

Result<std::uint64_t> ChecksumFile(const std::string& path) {
  std::string contents;
  FDRMS_ASSIGN_OR_RETURN(contents, ReadFileToString(path));
  return Fnv1a64(contents.data(), contents.size());
}

int GarbageCollectConstellationFiles(
    const std::string& base, const std::vector<std::string>& referenced,
    bool include_tmp) {
  std::set<std::string> keep;
  for (const std::string& r : referenced) {
    if (!r.empty()) keep.insert(FileBasename(r));
  }
  const std::string prefix = FileBasename(base);
  const std::filesystem::path dir(DirOf(base));
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  const std::filesystem::directory_iterator end;
  int removed = 0;
  while (!ec && it != end) {
    const std::string name = it->path().filename().string();
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      bool is_tmp = false;
      if (IsVersionedSuffix(name.substr(prefix.size()), &is_tmp) &&
          (include_tmp || !is_tmp) && keep.count(name) == 0) {
        std::error_code rm_ec;
        if (std::filesystem::remove(it->path(), rm_ec) && !rm_ec) ++removed;
      }
    }
    it.increment(ec);
  }
  return removed;
}

ConstellationFileScan ScanConstellationFiles(const std::string& base) {
  ConstellationFileScan scan;
  const std::string prefix = FileBasename(base);
  std::error_code ec;
  std::filesystem::directory_iterator it(DirOf(base), ec);
  const std::filesystem::directory_iterator end;
  while (!ec && it != end) {
    const std::string name = it->path().filename().string();
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      std::string rest = name.substr(prefix.size());
      bool is_tmp = false;
      if (IsVersionedSuffix(rest, &is_tmp)) {
        if (!is_tmp) scan.any_versioned = true;
      } else if (rest == ".routing") {
        scan.any_legacy = true;
      } else {
        std::string s = rest;
        if (ConsumePrefix(&s, ".shard") && ConsumeDigits(&s) && s.empty()) {
          scan.any_legacy = true;
        }
      }
    }
    it.increment(ec);
  }
  return scan;
}

}  // namespace fdrms

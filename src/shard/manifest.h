#ifndef FDRMS_SHARD_MANIFEST_H_
#define FDRMS_SHARD_MANIFEST_H_

/// \file manifest.h
/// The constellation manifest: one small file that makes the *set* of
/// persisted files (per-shard snapshots + routing table) atomic, even
/// though each file is written independently on its own cadence.
///
/// Format (text, checksummed):
///
///     FDRMS-MANIFEST-v1
///     generation 7
///     epoch 3
///     shard_count 2
///     routing <fnv1a64-hex> <file|->
///     shard 0 <gen> <batches> <fnv1a64-hex> <file|->
///     shard 1 <gen> <batches> <fnv1a64-hex> <file|->
///     checksum <fnv1a64-hex of everything above>
///
/// Commit protocol: the manifest alternates between two slots
/// (`<base>.manifest.a` / `<base>.manifest.b`, slot = generation & 1), each
/// written via WriteFileDurable (tmp → fsync → rename → dir fsync). A torn
/// or half-written newest slot therefore never destroys the previous
/// generation: the loader decodes both slots, verifies the body checksum,
/// and picks the highest fully-valid generation. Everything a resume needs
/// — topology size, epoch, which snapshot file is current per shard, and
/// the checksum each file must hash to — is inside the manifest, so resume
/// is self-describing: no "construct with the right shard count" contract,
/// and stale/orphaned `.tmp`/superseded snapshot files are simply never
/// referenced.
///
/// Snapshot files are immutable once referenced: shard saves go to new
/// `<base>.shard<i>.g<gen>.b<batches>` names and routing epochs to
/// `<base>.routing.e<epoch>`, so a crash mid-save can only orphan a new
/// file, never corrupt a referenced one. GarbageCollectConstellationFiles
/// unlinks versioned files no manifest generation references anymore.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fdrms {

/// One shard's row in the manifest. `file` is empty when the shard has
/// never persisted (encoded as "-"): a resume constructs it empty.
struct ManifestShardEntry {
  int index = 0;
  long long gen = 0;       ///< persist generation (filename uniqueness)
  long long batches = 0;   ///< writer batches applied at save time
  std::uint64_t checksum = 0;
  std::string file;
};

struct ConstellationManifest {
  long long generation = 0;  ///< commit counter; picks the A/B slot
  long long epoch = 0;       ///< routing epoch this manifest describes
  int shard_count = 0;
  std::uint64_t routing_checksum = 0;
  std::string routing_file;  ///< empty when no routing snapshot yet
  std::vector<ManifestShardEntry> shards;  ///< sorted by index, one per shard
};

/// Serializes to the checksummed text format above.
std::string EncodeManifest(const ConstellationManifest& m);

/// Parses + verifies. Internal on bad magic, malformed rows, a shard_count
/// outside [1, kNumHashSlots], shard-count mismatch, or checksum mismatch
/// (a torn slot decodes as Internal, which is what triggers the
/// fall-back-to-other-slot path in LoadNewestManifest).
Result<ConstellationManifest> DecodeManifest(const std::string& text);

/// `<base>.manifest.a` for slot 0, `<base>.manifest.b` for slot 1.
std::string ManifestSlotPath(const std::string& base, int slot);

/// Versioned snapshot-file names. These never collide across boots because
/// `gen` is seeded from the manifest at resume.
std::string ShardSnapshotPath(const std::string& base, int index,
                              long long gen, long long batches);
std::string RoutingSnapshotPath(const std::string& base, long long epoch);

struct LoadedManifest {
  ConstellationManifest manifest;
  int slot = -1;          ///< slot the winning generation came from
  int present_slots = 0;  ///< slot files that existed on disk
  int valid_slots = 0;    ///< slot files that decoded + checksummed clean
  /// Basenames referenced by ANY valid slot (not just the winner) — the
  /// keep-set for resume-time garbage collection, since the losing slot's
  /// files must survive until its generation is superseded on disk.
  std::vector<std::string> referenced;
};

/// Reads both slots and returns the highest fully-valid generation.
/// NotFound when neither slot file exists (fresh directory); Internal when
/// slots exist but none is valid (never silently serve a torn store).
Result<LoadedManifest> LoadNewestManifest(const std::string& base);

/// Durably writes `m` into its slot (generation & 1) via the
/// tmp/fsync/rename/dir-fsync protocol under the "shard.manifest" crash
/// prefix.
Status CommitManifestSlot(const std::string& base,
                          const ConstellationManifest& m);

/// FNV-1a of the file's bytes. NotFound / Internal from ReadFileToString.
Result<std::uint64_t> ChecksumFile(const std::string& path);

/// Path helpers. Manifest rows store basenames so a persisted directory
/// stays relocatable; JoinDirOf re-roots a stored name into the directory
/// containing `base`.
std::string FileBasename(const std::string& path);
std::string JoinDirOf(const std::string& base, const std::string& name);

/// Unlinks versioned snapshot files (`<base>.shard<i>.g<g>.b<b>`,
/// `<base>.routing.e<e>`) whose full path is not in `referenced` — i.e.
/// superseded by newer manifest generations. Never touches manifest slots
/// or non-constellation files. `.tmp` orphans of those patterns are removed
/// only when `include_tmp` is set (safe at resume, when no writer lives).
/// Best-effort: I/O errors are ignored. Returns the number unlinked.
int GarbageCollectConstellationFiles(
    const std::string& base, const std::vector<std::string>& referenced,
    bool include_tmp);

/// Scans base's directory for snapshot files this layer could own. Used at
/// resume to tell an empty store (fresh boot) from one that lost its
/// manifest — the latter must fail loudly, never be silently re-seeded.
struct ConstellationFileScan {
  bool any_versioned = false;  ///< `.shard<i>.g<g>.b<b>` / `.routing.e<e>`
  bool any_legacy = false;     ///< pre-manifest `.shard<i>` / `.routing`
};
ConstellationFileScan ScanConstellationFiles(const std::string& base);

}  // namespace fdrms

#endif  // FDRMS_SHARD_MANIFEST_H_

#ifndef FDRMS_COMMON_DURABLE_IO_H_
#define FDRMS_COMMON_DURABLE_IO_H_

/// \file durable_io.h
/// Crash-durable file replacement and the checksum it is paired with.
///
/// `WriteFileDurable` is the one primitive every persistence path in the
/// repo goes through: write `<path>.tmp` → fsync(tmp) → rename over `path`
/// → fsync(parent dir). After it returns OK the bytes are on disk under
/// `path` even across power loss; if the process dies at any interior step
/// the previous contents of `path` are intact (the tmp file may linger and
/// is ignored/garbage-collected at resume). Each step names a fault site
/// (`<crash_prefix>.tmp_written` / `.renamed` / `.dir_synced`) so a `crash`
/// armed there (common/fault_point.h) kills the protocol between any two
/// steps.
///
/// `Fnv1a64` is the manifest/snapshot checksum: not cryptographic, just a
/// cheap, dependency-free detector for torn or bit-rotted files.

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace fdrms {

/// FNV-1a 64-bit over `data`. Seed chaining: pass a previous digest as
/// `basis` to extend.
std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t basis = 0xcbf29ce484222325ull);

/// Lower-case hex of a 64-bit digest, zero-padded to 16 chars.
std::string ChecksumHex(std::uint64_t digest);

/// Atomically + durably replaces `path` with `contents` via the
/// tmp/fsync/rename/dir-fsync protocol. `crash_prefix` names the fault
/// sites compiled into the steps (e.g. "shard.manifest"); pass a distinct
/// prefix per call site so the crash matrix can target them independently.
/// Returns Internal with the failing step + errno text on any error —
/// including a failed fsync, which the caller must count as a persist
/// failure, not a success — and without touching disk once
/// FaultPoints::crashed() is set.
Status WriteFileDurable(const std::string& path, const std::string& contents,
                        const char* crash_prefix);

/// Reads all of `path`. NotFound if it does not exist, Internal on I/O
/// errors.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace fdrms

#endif  // FDRMS_COMMON_DURABLE_IO_H_

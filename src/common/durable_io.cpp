#include "common/durable_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#ifdef _WIN32
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/fault_point.h"

namespace fdrms {

std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t basis) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string ChecksumHex(std::uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

namespace {

Status IoError(const std::string& step, const std::string& path, int err) {
  std::ostringstream oss;
  oss << step << " failed for " << path;
  if (err != 0) oss << ": " << std::strerror(err);
  return Status::Internal(oss.str());
}

#ifndef _WIN32

Status SyncDirOf(const std::string& path) {
  std::string dir;
  std::size_t slash = path.find_last_of('/');
  dir = (slash == std::string::npos) ? std::string(".")
                                     : path.substr(0, slash == 0 ? 1 : slash);
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return IoError("open(dir)", dir, errno);
  int rc = ::fsync(fd);
  int err = errno;
  ::close(fd);
  if (rc != 0) return IoError("fsync(dir)", dir, err);
  return Status::OK();
}

Status WriteDurablePosix(const std::string& path, const std::string& contents,
                         const char* crash_prefix) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("open(tmp)", tmp, errno);
  const char* p = contents.data();
  std::size_t left = contents.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      std::remove(tmp.c_str());
      return IoError("write(tmp)", tmp, err);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    std::remove(tmp.c_str());
    return IoError("fsync(tmp)", tmp, err);
  }
  if (::close(fd) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    return IoError("close(tmp)", tmp, err);
  }
  if (FaultPoints::Hit(crash_prefix, "tmp_written").crash()) {
    return Status::Internal("crash injected after tmp write");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    return IoError("rename", path, err);
  }
  if (FaultPoints::Hit(crash_prefix, "renamed").crash()) {
    return Status::Internal("crash injected after rename");
  }
  FDRMS_RETURN_NOT_OK(SyncDirOf(path));
  if (FaultPoints::Hit(crash_prefix, "dir_synced").crash()) {
    return Status::Internal("crash injected after dir sync");
  }
  return Status::OK();
}

#else  // _WIN32

// No directory fsync on Windows; ofstream+flush then rename is the best
// portable approximation. The crash points keep the same names so the
// matrix still exercises the protocol ordering.
Status WriteDurablePosix(const std::string& path, const std::string& contents,
                         const char* crash_prefix) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return IoError("open(tmp)", tmp, 0);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return IoError("write(tmp)", tmp, 0);
    }
  }
  if (FaultPoints::Hit(crash_prefix, "tmp_written").crash()) {
    return Status::Internal("crash injected after tmp write");
  }
  std::remove(path.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    return IoError("rename", path, err);
  }
  if (FaultPoints::Hit(crash_prefix, "renamed").crash()) {
    return Status::Internal("crash injected after rename");
  }
  if (FaultPoints::Hit(crash_prefix, "dir_synced").crash()) {
    return Status::Internal("crash injected after dir sync");
  }
  return Status::OK();
}

#endif

}  // namespace

Status WriteFileDurable(const std::string& path, const std::string& contents,
                        const char* crash_prefix) {
  // A soft-crashed process never touches disk again: callers above us see a
  // persist failure and must not run their post-commit actions.
  if (FaultPoints::crashed()) {
    return Status::Internal("crash injected: process is dead");
  }
  return WriteDurablePosix(path, contents, crash_prefix);
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no such file: " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  if (in.bad()) return IoError("read", path, 0);
  return oss.str();
}

}  // namespace fdrms

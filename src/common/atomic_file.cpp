#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <system_error>

#include "common/check.h"
#include "common/record.h"

namespace rit {

namespace {

void create_parent_dirs(const std::string& path) {
  const std::filesystem::path p(path);
  if (!p.has_parent_path()) return;
  std::error_code ec;
  std::filesystem::create_directories(p.parent_path(), ec);
  // An existing directory is fine; a real failure surfaces on open below
  // with its own errno, which is the more actionable message.
}

std::string errno_text() {
  const int err = errno;
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

// Writes all of `content`, retrying short writes and EINTR: a partial
// write() is legal on any POSIX system and silently truncates the artifact
// unless the caller loops.
void write_all(int fd, std::string_view content, const std::string& tmp) {
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = errno_text();
      ::close(fd);
      RIT_CHECK_MSG(false, "atomic write: short write to '"
                               << tmp << "' after " << off << "/"
                               << content.size() << " bytes: " << why);
    }
    off += static_cast<std::size_t>(n);
  }
}

void fsync_dir_of(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string dir =
      p.has_parent_path() ? p.parent_path().string() : std::string(".");
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best effort: some filesystems refuse O_RDONLY dirs
  ::fsync(fd);         // ditto: the rename itself already happened
  ::close(fd);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  RIT_CHECK_MSG(!path.empty(), "atomic write: empty path");
  create_parent_dirs(path);
  // Temp name is sibling + pid so concurrent processes targeting the same
  // path never clobber each other's staging file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  RIT_CHECK_MSG(fd >= 0, "atomic write: cannot open temp file '"
                             << tmp << "': " << errno_text());
  write_all(fd, content, tmp);
  if (::fsync(fd) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    ::unlink(tmp.c_str());
    RIT_CHECK_MSG(false, "atomic write: fsync '" << tmp << "': " << why);
  }
  if (::close(fd) != 0) {
    const std::string why = errno_text();
    ::unlink(tmp.c_str());
    RIT_CHECK_MSG(false, "atomic write: close '" << tmp << "': " << why);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = errno_text();
    ::unlink(tmp.c_str());
    RIT_CHECK_MSG(false, "atomic write: rename '" << tmp << "' -> '" << path
                                                  << "': " << why);
  }
  fsync_dir_of(path);
}

void remove_stale_temps(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  // Without /proc a live writer cannot be told from a dead one.
  if (!fs::exists("/proc/self/stat", ec)) return;
  const fs::path target = fs::absolute(path, ec);
  const std::string prefix = target.filename().string() + ".tmp.";
  for (fs::directory_iterator it(target.parent_path(), ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const std::string pid = name.substr(std::min(name.size(), prefix.size()));
    if (name.rfind(prefix, 0) != 0 || pid.empty() ||
        pid.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    // /proc/<pid>/stat reads "<pid> (<comm>) <state> ...". A zombie has
    // stopped writing for good; it only waits to be reaped.
    const std::optional<std::string> stat =
        slurp_file("/proc/" + pid + "/stat");
    const std::size_t paren = stat ? stat->rfind(')') : std::string::npos;
    const char state = paren != std::string::npos && paren + 2 < stat->size()
                           ? (*stat)[paren + 2]
                           : 'X';
    std::error_code ignored;  // best effort: a racing remover is fine
    if (state == 'Z' || state == 'X') fs::remove(it->path(), ignored);
  }
}

}  // namespace rit

// Crash-safe file persistence: write-fsync-rename, the POSIX idiom that
// guarantees a reader (or a resumed process) sees either the old file or
// the complete new one, never a torn write. Every result writer in the
// tree (records, CSV, JSON exports, checkpoints) routes through here so a
// killed process cannot leave a truncated artifact behind.
#pragma once

#include <string>
#include <string_view>

namespace rit {

/// Atomically replaces `path` with `content`: writes a sibling temp file,
/// fsyncs it, renames it over the target, and fsyncs the directory. Parent
/// directories are created as needed. Throws rit::CheckFailure carrying the
/// errno context on any failure, including short writes.
void write_file_atomic(const std::string& path, std::string_view content);

/// Removes the temp files that writes of `path` staged in processes that
/// are gone (a writer killed mid-write leaves its temp behind). A running
/// writer's temp may be a write in flight, so it stays.
void remove_stale_temps(const std::string& path);

}  // namespace rit

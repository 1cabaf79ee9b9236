// Minimal leveled logger.
//
// The library itself logs nothing at Info by default; benches and examples
// raise the level for progress reporting. A global level (atomic) keeps the
// interface trivial — this is a single-process simulator, not a service.
// Each emitted line goes to stderr as "[LEVEL] message k=v ...".
#pragma once

#include <span>
#include <string>
#include <string_view>

namespace rit::log {

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the minimum level that will be emitted. Thread-safe.
void set_level(Level level);
Level level();

/// A structured key=value payload attached to a log line.
struct Field {
  std::string key;
  std::string value;
};

/// Emits `message` to stderr with a level tag if `level` is enabled.
void emit(Level level, std::string_view message);

/// Same, with structured fields rendered as trailing `key=value` pairs.
void emit(Level level, std::string_view message,
          std::span<const Field> fields);

}  // namespace rit::log

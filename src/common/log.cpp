#include "common/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace rit::log {

namespace {
std::atomic<int> g_level{static_cast<int>(Level::kWarn)};
std::mutex g_emit_mutex;

const char* tag(Level lv) {
  switch (lv) {
    case Level::kDebug:
      return "DEBUG";
    case Level::kInfo:
      return "INFO ";
    case Level::kWarn:
      return "WARN ";
    case Level::kError:
      return "ERROR";
    case Level::kOff:
      return "OFF  ";
  }
  return "?????";
}

}  // namespace

void set_level(Level level) { g_level.store(static_cast<int>(level)); }

Level level() { return static_cast<Level>(g_level.load()); }

void emit(Level lv, std::string_view message) {
  emit(lv, message, std::span<const Field>{});
}

void emit(Level lv, std::string_view message, std::span<const Field> fields) {
  if (static_cast<int>(lv) < g_level.load()) return;
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::string line(message);
  for (const Field& f : fields) line += " " + f.key + "=" + f.value;
  std::fprintf(stderr, "[%s] %s\n", tag(lv), line.c_str());
}

}  // namespace rit::log

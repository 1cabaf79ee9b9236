// Global operator-new replacement feeding the perf-counter allocation
// tally. Linked only into binaries that opt in (bench targets and the
// perf tests) — everything else keeps the default allocator untouched.
//
// Every non-aligned form is replaced, and all of them pair std::malloc
// with std::free. That matters under a sanitizer runtime, which supplies
// its own new/delete: a replaced new whose memory reaches the runtime's
// delete, or the runtime's nothrow new (std::stable_sort's temporary
// buffer) whose memory reaches a replaced delete, is an
// alloc-dealloc-mismatch. The nothrow forms count like the throwing ones,
// as the standard library's own nothrow new does by calling them. The
// aligned forms stay the library's own pair. The library is an OBJECT
// library, so these definitions are always linked in, never skipped as
// an unreferenced archive member.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "obs/perf_counters.h"

namespace {
struct AllocHookMarker {
  AllocHookMarker() { rit::obs::detail::mark_alloc_hook_linked(); }
};
AllocHookMarker g_marker;

void* counted_alloc(std::size_t bytes) {
  for (;;) {
    if (void* p = std::malloc(bytes ? bytes : 1)) {
      rit::obs::detail::note_alloc(bytes);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (!handler) throw std::bad_alloc();
    handler();
  }
}
}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(bytes);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

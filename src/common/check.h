// Precondition / invariant checking.
//
// RIT_CHECK is always on (mechanism code is not hot enough for checks to
// matter relative to sorting asks), RIT_DCHECK compiles out in release
// builds for the few O(N)-per-element loops where it would show up.
// Violations throw rit::CheckFailure so tests can assert on them; in a
// mechanism/market context silently continuing after a broken invariant
// could mis-pay a user, which is strictly worse than aborting the run.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace rit {

/// Thrown when a RIT_CHECK / RIT_DCHECK predicate fails.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

/// A usage error (a bad flag value or combination), not a broken
/// invariant: throws CheckFailure with `what` alone, no check site.
inline void require_usage(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str());
}
}  // namespace detail

}  // namespace rit

#define RIT_CHECK(expr)                                              \
  do {                                                               \
    if (!(expr)) ::rit::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define RIT_CHECK_MSG(expr, msg)                                     \
  do {                                                               \
    if (!(expr)) {                                                   \
      std::ostringstream rit_check_os;                               \
      rit_check_os << msg;                                           \
      ::rit::detail::check_failed(#expr, __FILE__, __LINE__,         \
                                  rit_check_os.str());               \
    }                                                                \
  } while (false)

#ifdef NDEBUG
#define RIT_DCHECK(expr) \
  do {                   \
  } while (false)
#else
#define RIT_DCHECK(expr) RIT_CHECK(expr)
#endif

// Lightweight runtime-check macros used across the DAOP codebase.
//
// DAOP_CHECK is always on (also in Release builds): these guards protect
// library invariants that, when violated, would otherwise surface as silent
// numerical corruption in experiment output. All failures throw
// daop::CheckError so tests can assert on them.
//
// Cold-failure contract: a check costs its condition and one predictable
// branch. Each failure branch is [[unlikely]], and everything a failure
// does — formatting the message, building the exception — happens in a
// cold, never-inlined function. Checks therefore keep the small hot helpers
// that use them (timeline scheduling, trace cells, placement lookups) small
// enough to inline. The condition is evaluated once. A DAOP_CHECK_MSG
// message is evaluated only once its check has failed, and a failed
// DAOP_CHECK_EQ..GE evaluates its operands again to print them.
#pragma once

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#if defined(__GNUC__)
#define DAOP_COLD_ __attribute__((cold, noinline))
#else
#define DAOP_COLD_
#endif

namespace daop {

/// Thrown when a DAOP_CHECK / DAOP_CHECK_* condition fails.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] DAOP_COLD_ inline void check_failed(const char* cond,
                                                 const char* file, int line,
                                                 const std::string& msg) {
  std::ostringstream os;
  os << "DAOP check failed: " << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

/// DAOP_CHECK's failure: no message.
[[noreturn]] DAOP_COLD_ inline void check_failed(const char* cond,
                                                 const char* file, int line) {
  check_failed(cond, file, line, std::string());
}

/// A failure whose message `write` streams into an ostream; one cold
/// instantiation per check site, so the message-building code the caller's
/// lambda holds lives off the hot path.
template <class Write>
[[noreturn]] DAOP_COLD_ void check_failed_with(const char* cond,
                                               const char* file, int line,
                                               const Write& write) {
  std::ostringstream os;
  write(os);
  check_failed(cond, file, line, os.str());
}

/// DAOP_CHECK_EQ..GE's failure: prints both operands. They arrive as
/// arguments, so the failing site captures nothing by reference and keeps
/// its operands in registers.
template <class A, class B>
[[noreturn]] DAOP_COLD_ void check_op_failed(const char* expr,
                                             const char* file, int line,
                                             const A& a, const B& b) {
  std::ostringstream os;
  os << "lhs=" << a << " rhs=" << b;
  check_failed(expr, file, line, os.str());
}

}  // namespace detail
}  // namespace daop

#define DAOP_CHECK(cond)                                         \
  do {                                                           \
    if (!(cond)) [[unlikely]] {                                  \
      ::daop::detail::check_failed(#cond, __FILE__, __LINE__);   \
    }                                                            \
  } while (false)

#define DAOP_CHECK_MSG(cond, msg)                                          \
  do {                                                                     \
    if (!(cond)) [[unlikely]] {                                            \
      ::daop::detail::check_failed_with(                                   \
          #cond, __FILE__, __LINE__,                                       \
          [&](std::ostream& daop_os_) { daop_os_ << msg; });               \
    }                                                                      \
  } while (false)

// Binary comparison checks that include both operand values in the message.
#define DAOP_CHECK_OP_(op, a, b)                                           \
  do {                                                                     \
    if (!((a)op(b))) [[unlikely]] {                                        \
      ::daop::detail::check_op_failed(#a " " #op " " #b, __FILE__,         \
                                      __LINE__, (a), (b));                 \
    }                                                                      \
  } while (false)

#define DAOP_CHECK_EQ(a, b) DAOP_CHECK_OP_(==, a, b)
#define DAOP_CHECK_NE(a, b) DAOP_CHECK_OP_(!=, a, b)
#define DAOP_CHECK_LT(a, b) DAOP_CHECK_OP_(<, a, b)
#define DAOP_CHECK_LE(a, b) DAOP_CHECK_OP_(<=, a, b)
#define DAOP_CHECK_GT(a, b) DAOP_CHECK_OP_(>, a, b)
#define DAOP_CHECK_GE(a, b) DAOP_CHECK_OP_(>=, a, b)

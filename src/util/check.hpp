#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace maxutil::util {

/// Error thrown when a precondition or internal invariant is violated.
///
/// The message embeds the source location of the failed check so that
/// failures surfaced from deep inside an optimizer iteration can be traced
/// without a debugger.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Builds and throws the CheckError of a failed `ensure`. Kept out of line
/// and cold, so that a passing check inlines to one compare and branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_check_failure(
    std::string_view message, const std::source_location& loc) {
  throw CheckError(std::string(loc.file_name()) + ":" +
                   std::to_string(loc.line()) + ": check failed: " +
                   std::string(message));
}

/// Throws CheckError when `condition` is false.
///
/// Used for argument validation on public APIs and for internal invariants
/// that must hold regardless of build type (unlike `assert`, this is active
/// in release builds, including inside the optimizer's per-iteration
/// sweeps).
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    throw_check_failure(message, loc);
  }
}

/// The operator-facing reason of a failed check: `message` with its
/// "<file>:<line>: check failed: " preamble removed (unchanged when it has
/// none), so text that reaches a decision log does not depend on the build
/// tree's paths.
inline std::string strip_check_preamble(std::string message) {
  constexpr std::string_view kMarker = "check failed: ";
  const std::size_t at = message.find(kMarker);
  if (at != std::string::npos) message.erase(0, at + kMarker.size());
  return message;
}

}  // namespace maxutil::util

/**
 * @file
 * Status and error reporting, following the gem5 convention:
 * panic() for internal invariant violations (library bugs), fatal() for
 * user errors that make continuing impossible, warn()/inform() for
 * non-fatal status messages.
 */

#ifndef NEUSIGHT_COMMON_LOGGING_HPP
#define NEUSIGHT_COMMON_LOGGING_HPP

#include <sstream>
#include <string>

namespace neusight {

/**
 * Abort with a message: something happened that should never happen
 * regardless of what the user does (an internal bug). Calls std::abort().
 *
 * @param message Description of the violated invariant.
 */
[[noreturn]] void panic(const std::string &message);

/**
 * Exit with a message: the run cannot continue because of a condition that
 * is the caller's fault (bad configuration, invalid arguments). Throws
 * std::runtime_error so library users can recover at an API boundary.
 *
 * @param message Description of the user error.
 */
[[noreturn]] void fatal(const std::string &message);

/**
 * Print a warning to stderr; execution continues. With
 * NEUSIGHT_LOG_TIMESTAMPS=1 in the environment (read on first use),
 * warn()/inform() lines carry an ISO-8601 UTC timestamp and a severity
 * tag ("2026-08-08T12:34:56.789Z [WARN] ..."), so server logs correlate
 * with trace spans; off by default (the bare legacy format).
 */
void warn(const std::string &message);

/** Print an informational message to stderr; execution continues. */
void inform(const std::string &message);

/** Globally silence warn()/inform() (used by tests and benches). */
void setQuiet(bool quiet);

/**
 * Assert an invariant that must hold independent of user input.
 * Active in all build types (unlike assert()).
 */
inline void
ensure(bool condition, const std::string &message)
{
    if (!condition)
        panic(message);
}

} // namespace neusight

#endif // NEUSIGHT_COMMON_LOGGING_HPP

#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <stdexcept>

namespace neusight {

namespace {

std::atomic<bool> quietFlag{false};

/** NEUSIGHT_LOG_TIMESTAMPS=1, read on first use. */
bool
timestampsEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("NEUSIGHT_LOG_TIMESTAMPS");
        return env != nullptr && env[0] == '1';
    }();
    return enabled;
}

/** "2026-08-08T12:34:56.789Z" (UTC, millisecond resolution). */
std::string
isoTimestamp()
{
    const auto now = std::chrono::system_clock::now();
    const std::time_t secs = std::chrono::system_clock::to_time_t(now);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now.time_since_epoch())
                        .count() %
                    1000;
    std::tm utc{};
#if defined(_WIN32)
    gmtime_s(&utc, &secs);
#else
    gmtime_r(&secs, &utc);
#endif
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                  utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday,
                  utc.tm_hour, utc.tm_min, utc.tm_sec,
                  static_cast<int>(ms));
    return buf;
}

void
emit(const char *legacy_prefix, const char *severity,
     const std::string &message)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    // stdio, not iostreams: the net loop warns exactly when the process
    // is out of file descriptors, and there UBSan's check of a first
    // virtual std::cerr call fails (its runtime probes memory through a
    // pipe it can no longer open).
    if (timestampsEnabled())
        std::fprintf(stderr, "%s [%s] %s\n", isoTimestamp().c_str(),
                     severity, message.c_str());
    else
        std::fprintf(stderr, "%s%s\n", legacy_prefix, message.c_str());
}

} // namespace

void
panic(const std::string &message)
{
    std::cerr << "panic: " << message << std::endl;
    std::abort();
}

void
fatal(const std::string &message)
{
    throw std::runtime_error("fatal: " + message);
}

void
warn(const std::string &message)
{
    emit("warn: ", "WARN", message);
}

void
inform(const std::string &message)
{
    emit("info: ", "INFO", message);
}

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

} // namespace neusight

// Minimal leveled logger. Off by default so simulations stay fast; examples
// turn on Info/Debug to narrate protocol progress.
#pragma once

#include <cstdio>
#include <string>

namespace ren {

enum class LogLevel : int { None = 0, Error = 1, Info = 2, Debug = 3, Trace = 4 };

/// Global log level (not thread-local, not atomic). Set it before a run:
/// the parallel simulator's shard workers read it concurrently, so changing
/// it while a multi-shard simulation runs is a data race.
LogLevel log_level();
void set_log_level(LogLevel level);

namespace detail {
void vlog(LogLevel level, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;
}  // namespace detail

#define REN_LOG(level, ...)                                        \
  do {                                                             \
    if (static_cast<int>(::ren::log_level()) >=                    \
        static_cast<int>(::ren::LogLevel::level))                  \
      ::ren::detail::vlog(::ren::LogLevel::level, __VA_ARGS__);    \
  } while (0)

}  // namespace ren

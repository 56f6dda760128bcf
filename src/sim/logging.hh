/**
 * @file
 * gem5-style status and error reporting: panic/fatal/warn/inform.
 *
 * panic() flags a simulator bug (aborts); fatal() flags a user/config error
 * (throws FatalError so tests and embedding applications can recover);
 * warn()/inform() report conditions without stopping the simulation.
 */

#ifndef KVMARM_SIM_LOGGING_HH
#define KVMARM_SIM_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace kvmarm {

/** Thrown by fatal(): the simulation cannot continue due to a usage error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what) : std::runtime_error(what) {}
};

/** Format a printf-style message into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list ap);

/** Format a printf-style message into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report a simulator bug and abort. Never returns. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a usage/configuration error. Throws FatalError. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report suspect but non-stopping behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable or disable inform() output (benches silence it). */
void setInformEnabled(bool enabled);

} // namespace kvmarm

#endif // KVMARM_SIM_LOGGING_HH

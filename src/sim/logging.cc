#include "sim/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sim/thread_annotations.hh"

namespace kvmarm {

namespace {

std::atomic<bool> informEnabled{true};

/**
 * Serializes the actual stream writes. Machines running on fleet worker
 * threads share stderr/stdout; each message is formatted into one string
 * first (outside the lock) and emitted under the mutex so lines from
 * different VMs never interleave mid-line. The annotated Mutex keeps the
 * acquire/release pairing visible to clang's thread-safety analysis.
 */
Mutex &
writerMutex()
{
    static Mutex m;
    return m;
}

} // namespace

std::string
vstrfmt(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    {
        MutexLock lock(writerMutex());
        std::fprintf(stderr, "panic: %s\n", msg.c_str());
    }
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    MutexLock lock(writerMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (!informEnabled.load(std::memory_order_relaxed))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    MutexLock lock(writerMutex());
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setInformEnabled(bool enabled)
{
    informEnabled.store(enabled, std::memory_order_relaxed);
}

} // namespace kvmarm

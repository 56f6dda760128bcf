#include "host/timers.hh"

#include "sim/cpu_base.hh"
#include "sim/logging.hh"
#include "sim/machine_base.hh"

namespace kvmarm::host {

std::uint64_t
SoftTimers::start(CpuId cpu, Cycles when, Callback cb)
{
    std::uint64_t id = nextId_++;
    std::uint64_t event = machine_.cpuBase(cpu).events().schedule(
        when, [this, id, cb = std::move(cb)] {
            live_.erase(id);
            cb();
        });
    live_[id] = {cpu, event};
    return id;
}

bool
SoftTimers::cancel(std::uint64_t id)
{
    auto it = live_.find(id);
    if (it == live_.end())
        return false;
    machine_.cpuBase(it->second.cpu).events().cancel(it->second.eventId);
    live_.erase(it);
    return true;
}

void
SoftTimers::rehydrate(std::uint64_t id, Callback cb)
{
    auto it = live_.find(id);
    if (it == live_.end())
        fatal("SoftTimers::rehydrate: timer %llu not live",
              static_cast<unsigned long long>(id));
    // claim() is fatal if the event already has a callback, so a timer
    // started after the restore or rehydrated twice is rejected there.
    machine_.cpuBase(it->second.cpu)
        .events()
        .claim(it->second.eventId, [this, id, cb = std::move(cb)] {
            live_.erase(id);
            cb();
        });
}

} // namespace kvmarm::host

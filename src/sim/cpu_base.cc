#include "sim/cpu_base.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/machine_base.hh"

namespace kvmarm {

CpuBase::CpuBase(CpuId id, MachineBase &machine)
    : Snapshottable(&machine, "cpu" + std::to_string(id)), id_(id),
      machine_(machine)
{
    events_.onSchedule = [this](Cycles when) {
        machine_.noteEventScheduled(*this, when);
    };
}

void
CpuBase::addCycles(Cycles c)
{
    now_ += c;
    drain();
    if (now_ >= yieldThreshold_ && Fiber::current()) {
        ++interleaves_;
        Fiber::yield();
        // Another CPU ran; cross-CPU events may now be due on our queue.
        drain();
    }
}

void
CpuBase::advanceTo(Cycles t)
{
    if (t > now_)
        now_ = t;
    drain();
}

void
CpuBase::drain()
{
    while (events_.mayHaveDue(now_) && events_.runDue(now_))
        ++interleaves_;
    serviceInterrupts();
}

void
CpuBase::waitUntil(const std::function<bool()> &pred)
{
    drain();
    while (!pred()) {
        waiting_ = true;
        ++interleaves_;
        Fiber::yield();
        waiting_ = false;
        // The scheduler advanced our clock to the next event time.
        drain();
    }
    waiting_ = false;
}

void
CpuBase::kickAt(Cycles when)
{
    events_.schedule(when, [] {}, EventQueue::Kind::Kick);
}

void
CpuBase::setEntry(std::function<void()> fn)
{
    entry_ = std::move(fn);
    fiber_.reset();
}

bool
CpuBase::fiberFinished() const
{
    return fiber_ && fiber_->finished();
}

Cycles
CpuBase::effectiveClock() const
{
    if (!waiting_)
        return now_;
    Cycles t = events_.nextEventTime();
    if (t == kNoDeadline)
        return kNoDeadline;
    return std::max(now_, t);
}

void
CpuBase::checkQuiesced() const
{
    if (fiber_ && !fiber_->finished())
        fatal("cpu%u: cannot snapshot while its fiber is suspended mid-run; "
              "snapshot after machine.run() returns",
              id_);
}

void
CpuBase::resumeFiber()
{
    if (!entry_)
        panic("CpuBase::resumeFiber: cpu%u has no entry", id_);
    if (!fiber_)
        fiber_ = std::make_unique<Fiber>(entry_);
    if (waiting_) {
        Cycles eff = effectiveClock();
        if (eff != kNoDeadline && eff > now_) {
            idleCycles_ += eff - now_;
            now_ = eff;
        }
    }
    fiber_->resume();
}

} // namespace kvmarm

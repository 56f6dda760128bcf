/**
 * @file
 * Deterministic cross-machine message channel + conservative pacer.
 *
 * A RingChannel connects two machines (one Endpoint each). Messages are
 * cycle-stamped at the sender and delivered at send_cycle + latency; the
 * channel never invents ordering — delivery order is (deliver_cycle, send
 * seq), both of which are pure functions of simulated execution.
 *
 * RingPacer turns that into a conservative time-window protocol (DESIGN.md
 * §4.10): each machine advances in fixed windows of W = min attached
 * latency. Before executing window [h, h+W) it requires every open peer's
 * committed horizon to satisfy peer_h + latency >= h+W — which guarantees
 * every message deliverable inside the window has already been sent — then
 * pulls exactly that window's deliveries, runs the machine to h+W, and
 * publishes the new horizon. A blocked pacer names the peer horizon it
 * needs, and only the publish that reaches it wakes the pacer's job.
 * Because the pacer pauses at every boundary unconditionally, a blocked
 * ("parked") step differs from an unblocked one only in wall-clock time,
 * never in simulated behaviour: two communicating machines on different
 * fleet workers stay bit-identical to serial round-robin execution.
 *
 * All Endpoint/pacer machine-side calls happen on whichever host thread is
 * currently running that machine's job (machines stay single-threaded by
 * construction); the channel's shared state is the one mutexed crossing
 * point between the two machines' threads.
 */

#ifndef KVMARM_SIM_RING_CHANNEL_HH
#define KVMARM_SIM_RING_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/thread_annotations.hh"
#include "sim/types.hh"

namespace kvmarm {

class MachineBase;

/** One cycle-stamped payload crossing a RingChannel. */
struct RingMessage
{
    Cycles sendCycle;
    Cycles deliverCycle; //!< sendCycle + channel latency
    std::uint64_t seq;   //!< per-direction send order, from 0
    std::vector<std::uint8_t> payload;
};

/**
 * Bidirectional channel between two machines with a fixed delivery
 * latency (the conservative lookahead). Thread-safe: the two sides may be
 * driven from different host threads.
 */
class RingChannel
{
  public:
    /** fatal() if @p latency is zero — zero lookahead admits no window in
     *  which the peers can run concurrently, so the config is rejected
     *  outright rather than silently serializing. */
    RingChannel(std::string name, Cycles latency);
    RingChannel(const RingChannel &) = delete;
    RingChannel &operator=(const RingChannel &) = delete;

    const std::string &name() const { return name_; }
    Cycles latency() const { return latency_; }

    /** What a pacer needs to know about its peer, read atomically. */
    struct PeerView
    {
        Cycles horizon = 0;       //!< peer's committed send horizon
        bool closed = false;      //!< peer finished cleanly
        bool aborted = false;     //!< peer terminated abnormally
        bool idleForever = false; //!< peer idle with no pending events
        bool inboundPending = false;  //!< undelivered peer->us messages
        bool outboundPending = false; //!< undelivered us->peer messages
        std::string abortReason;
    };

    /** One machine's attachment point. Obtain via end(0) / end(1). */
    class Endpoint
    {
      public:
        /**
         * Send @p payload from this side at cycle @p now (machine
         * context). Returns the per-direction sequence number. fatal() if
         * the peer endpoint is closed or aborted — a doorbell rung at a
         * torn-down peer is a protocol error, never a silent drop.
         */
        std::uint64_t send(Cycles now, std::vector<std::uint8_t> payload);

        /** Delivery callback, invoked once per message in (deliverCycle,
         *  seq) order during the owning pacer's window pulls. The
         *  receiver may move from the message; the channel drops it
         *  after the call. */
        void setReceiver(std::function<void(RingMessage &)> rx);

        /** Invoked (without the channel lock) when the peer publishes a
         *  horizon that reaches this side's awaitHorizon() need, closes,
         *  or aborts — the fleet wake hook. */
        void setWakeHook(std::function<void()> wake);

        RingChannel &channel() { return *ch_; }
        unsigned side() const { return side_; }

      private:
        friend class RingChannel;
        RingChannel *ch_ = nullptr;
        unsigned side_ = 0;
    };

    Endpoint &end(unsigned side);

    /// @name Pacer protocol (any thread)
    /// @{

    /** Commit that @p side will never again send below @p horizon, and
     *  whether its machine is idle with no pending events. Wakes the
     *  peer if @p horizon reaches the need it is waiting for, and clears
     *  that need. */
    void publish(unsigned side, Cycles horizon, bool idleForever);

    /**
     * Park @p side until its peer's horizon reaches @p need: record the
     * need, so the peer's publish() that reaches it fires this side's
     * wake hook. Returns false, recording nothing, if the peer already
     * reached @p need or is closed or aborted — the caller must then
     * re-check instead of parking, since no wake would come.
     */
    bool awaitHorizon(unsigned side, Cycles need);

    /** Deliver every message destined for @p side with deliverCycle in
     *  [from, to) to its receiver, in (deliverCycle, seq) order. fatal()
     *  if a message below @p from is found (window protocol violation). */
    void pull(unsigned side, Cycles from, Cycles to);

    /** Atomically observe the peer of @p side. */
    PeerView peerView(unsigned side) const;

    /** Mark @p side finished cleanly; wakes the peer. Idempotent. */
    void close(unsigned side);

    /** Mark @p side terminated abnormally with @p reason; wakes the peer.
     *  No-op after close() — a cleanly finished side stays clean. */
    void abort(unsigned side, std::string reason);
    /// @}

    /** Messages sent by @p side so far (monotonic; for tests/benches). */
    std::uint64_t messagesSent(unsigned side) const;

  private:
    struct Side
    {
        Cycles horizon = 0;
        bool closed = false;
        bool aborted = false;
        bool idleForever = false;
        /** Peer horizon this side is parked on (kNoDeadline: none). */
        Cycles want = kNoDeadline;
        std::string abortReason;
        std::uint64_t sendSeq = 0;
        /** Messages sent by this side, sorted by (deliverCycle, seq). */
        std::deque<RingMessage> outbox;
        std::function<void(RingMessage &)> receiver;
        std::function<void()> wake;
    };

    std::uint64_t sendFrom(unsigned side, Cycles now,
                           std::vector<std::uint8_t> payload);

    std::string name_;
    Cycles latency_;
    Endpoint ends_[2];
    mutable Mutex mutex_;
    Side sides_[2] KVMARM_GUARDED_BY(mutex_);
    /** Each side's pull buffer, reused across pulls. Only pull(side)
     *  touches pulled_[side], on the thread running that side's machine,
     *  so it needs no lock. */
    std::vector<RingMessage> pulled_[2];
};

/**
 * Drives one machine through the conservative window protocol. Resumable:
 * step() advances the machine window by window until the machine finishes
 * (Done) or a peer's horizon blocks the next window (Blocked — re-step
 * after a wake hook fires). Designed as a Fleet resumable job body.
 *
 * While any endpoint is attached the machine carries a snapshot blocker:
 * in-flight channel messages live outside the machine's snapshottable
 * component set, so takeSnapshot() fatals with a ring diagnostic instead
 * of silently dropping them.
 */
class RingPacer
{
  public:
    enum class Step
    {
        Done,
        Blocked,
    };

    RingPacer(MachineBase &machine, std::string name);
    ~RingPacer();
    RingPacer(const RingPacer &) = delete;
    RingPacer &operator=(const RingPacer &) = delete;

    /** Attach a channel endpoint this pacer paces. All endpoints must be
     *  attached before the first step(). */
    void attach(RingChannel::Endpoint &ep);

    /** Forwarded to every attached endpoint (peer-progress wake). */
    void setWakeHook(std::function<void()> wake);

    /**
     * Advance until blocked or done. On machine completion, closes every
     * endpoint. On abnormal termination (exception out of the machine, a
     * peer abort, or rendezvous deadlock) aborts every endpoint so peers
     * unblock with an error, then rethrows/fatals.
     */
    Step step();

    /** Committed horizon (cycles) of this pacer's machine. */
    Cycles horizon() const { return horizon_; }

    /** Windows executed so far (for tests). */
    std::uint64_t windowsRun() const { return windowsRun_; }

  private:
    void closeAll();
    void abortAll(const std::string &reason);

    MachineBase &machine_;
    std::string name_;
    std::vector<RingChannel::Endpoint *> eps_;
    std::vector<std::uint64_t> blockerTokens_;
    Cycles window_ = 0;
    Cycles horizon_ = 0;
    std::uint64_t windowsRun_ = 0;
    bool done_ = false;
};

} // namespace kvmarm

#endif // KVMARM_SIM_RING_CHANNEL_HH

/**
 * @file
 * Virtio-style shared-memory inter-VM ring device (DESIGN.md §4.10).
 *
 * A VringDevice pairs one VM with a RingChannel endpoint. The guest owns a
 * TX descriptor ring in its RAM; posting a message is: fill a descriptor +
 * payload, bump the avail index, then ring the MMIO doorbell — a Stage-2
 * trap to user space, exactly the paper's trap → Stage-2 → MMIO-emulation
 * path. The device DMAs the payload out of guest memory, cycle-stamps it
 * into the channel, writes back the used index and injects a TX-complete
 * SPI through the vGIC. Deliveries arrive from the channel at
 * send_cycle + latency: the device DMAs the payload into the guest's RX
 * ring, bumps the used index and injects the RX SPI — so every message
 * exercises the full paper path on both machines.
 *
 * All guest-visible effects (ring indices, IRQ injection cycles, payload
 * bytes) are pure functions of simulated execution; the device keeps
 * FNV-1a digests of everything sent and delivered so benches can assert
 * bit-identical message logs across host-thread counts.
 */

#ifndef KVMARM_VDEV_VRING_HH
#define KVMARM_VDEV_VRING_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/kvm.hh"
#include "sim/ring_channel.hh"

namespace kvmarm::vdev {

/** Guest-visible vring layout and register map, shared with the guest
 *  driver (workload layer). All ring structures live in guest RAM. */
namespace vringdev {

/** MMIO register block (one 4 KiB page). */
inline constexpr Addr kMmioBase = 0x0C000000;
inline constexpr Addr kMmioSize = 0x1000;

/// Register offsets within the MMIO page.
inline constexpr Addr DOORBELL = 0x00; //!< W: new TX avail index
inline constexpr Addr RX_ACK = 0x08;   //!< W: RX used index consumed
inline constexpr Addr TX_USED = 0x10;  //!< R: TX used (accepted) index
inline constexpr Addr RX_USED = 0x18;  //!< R: RX used (delivered) index
inline constexpr Addr RING_SIZE = 0x20; //!< R: entries per ring

/** Ring header (at the ring's base IPA): size, avail, used, pad (u32s). */
inline constexpr Addr kHdrAvail = 4;
inline constexpr Addr kHdrUsed = 8;
inline constexpr Addr kHdrBytes = 16;
/** Descriptor i at base + kHdrBytes + i*kDescBytes: u64 addr, u32 len,
 *  u32 flags. */
inline constexpr Addr kDescBytes = 16;
/** Payload buffers by convention start one page into the ring region. */
inline constexpr Addr kPayloadOff = 0x1000;

/** Default ring placement (IPA offsets from the RAM base). */
inline constexpr Addr kTxRingOff = 0x40000;
inline constexpr Addr kRxRingOff = 0x60000;

/** Guest SPIs (SPI range is 32..): TX complete and RX delivery. */
inline constexpr IrqId kTxSpi = 56;
inline constexpr IrqId kRxSpi = 57;

/** User-space emulation cost per vring MMIO access. */
inline constexpr Cycles kMmioWork = 500;

} // namespace vringdev

/** One VM's attachment to a shared-memory inter-VM ring. */
class VringDevice
{
  public:
    struct Config
    {
        unsigned entries = 64;       //!< descriptors per ring direction
        std::uint32_t bufBytes = 256; //!< max payload bytes per message
        Addr mmioBase = vringdev::kMmioBase;
        IrqId txSpi = vringdev::kTxSpi;
        IrqId rxSpi = vringdev::kRxSpi;
    };

    /**
     * Installs itself as @p vm's user-space MMIO handler and as the
     * receiver of @p ep. Adds a snapshot blocker on the machine: ring
     * state (in-flight messages, ring progress counters) lives outside
     * the machine's snapshottable component set.
     */
    VringDevice(core::Kvm &kvm, core::Vm &vm, RingChannel::Endpoint &ep,
                const Config &cfg);
    VringDevice(core::Kvm &kvm, core::Vm &vm, RingChannel::Endpoint &ep);
    ~VringDevice();

    VringDevice(const VringDevice &) = delete;
    VringDevice &operator=(const VringDevice &) = delete;

    /** Messages accepted from the guest's TX ring so far. */
    std::uint64_t txCount() const { return txUsed_; }
    /** Messages delivered into the guest's RX ring so far. */
    std::uint64_t rxCount() const { return rxUsed_; }

    /** FNV-1a digest over every (cycle, seq, payload) sent + delivered;
     *  bit-identical runs produce bit-identical digests. */
    std::uint64_t digest() const;

  private:
    void handleMmio(arm::ArmCpu &cpu, core::VCpu &vcpu,
                    core::MmioExit &exit);
    void handleDoorbell(arm::ArmCpu &cpu, std::uint32_t availIdx);
    /** Deliver the oldest pulled message (one event per message). */
    void deliver();

    std::uint64_t dmaRead(Addr ipa, unsigned len);
    void dmaWrite(Addr ipa, std::uint64_t value, unsigned len);
    /** Copy @p len bytes between guest memory at @p ipa and @p buf,
     *  resolving each guest page once. */
    void dmaReadBlock(Addr ipa, std::uint8_t *buf, std::size_t len);
    void dmaWriteBlock(Addr ipa, const std::uint8_t *buf, std::size_t len);
    /** The host PA of @p ipa, faulting its page in first. */
    Addr dmaResolve(Addr ipa, const char *what);

    core::Kvm &kvm_;
    core::Vm &vm_;
    RingChannel::Endpoint &ep_;
    Config cfg_;
    Addr txRing_; //!< TX ring base IPA
    Addr rxRing_; //!< RX ring base IPA
    std::uint64_t txUsed_ = 0;  //!< TX descriptors consumed (== sends)
    std::uint64_t rxUsed_ = 0;  //!< RX deliveries completed
    std::uint64_t rxAcked_ = 0; //!< RX deliveries the guest consumed
    std::uint64_t txDigest_ = 0x811c9dc5;
    std::uint64_t rxDigest_ = 0x811c9dc5;
    std::uint64_t blockerToken_ = 0;
    /** Pulled messages awaiting their delivery event, in pull order.
     *  Deliveries are scheduled in (deliverCycle, seq) order and the
     *  event queue is FIFO-stable at equal cycles, so each delivery
     *  event takes the front. */
    std::deque<RingMessage> inbox_;
};

} // namespace kvmarm::vdev

#endif // KVMARM_VDEV_VRING_HH

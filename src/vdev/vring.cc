#include "vdev/vring.hh"

#include <algorithm>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/vm.hh"
#include "sim/logging.hh"

namespace kvmarm::vdev {

using arm::ArmMachine;

namespace {

/** FNV-1a folds; the digest is a pure function of simulated execution. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xFF;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
foldBytes(std::uint64_t h, const std::vector<std::uint8_t> &bytes)
{
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

VringDevice::VringDevice(core::Kvm &kvm, core::Vm &vm,
                         RingChannel::Endpoint &ep, const Config &cfg)
    : kvm_(kvm), vm_(vm), ep_(ep), cfg_(cfg),
      txRing_(ArmMachine::kRamBase + vringdev::kTxRingOff),
      rxRing_(ArmMachine::kRamBase + vringdev::kRxRingOff)
{
    if (cfg_.entries == 0)
        fatal("VringDevice('%s'): zero-entry ring",
              ep_.channel().name().c_str());
    vm_.setUserMmioHandler(
        [this](arm::ArmCpu &cpu, core::VCpu &vcpu, core::MmioExit &exit) {
            handleMmio(cpu, vcpu, exit);
        });
    // Deliveries arrive at window pulls (machine quiesced) and become
    // ordinary events at their protocol delivery cycle, so the guest sees
    // them through the same event drain as every other device.
    ep_.setReceiver([this](RingMessage &msg) {
        const Cycles at = msg.deliverCycle;
        inbox_.push_back(std::move(msg));
        kvm_.machine().cpu(0).events().schedule(at,
                                                [this] { deliver(); });
    });
    blockerToken_ = kvm_.machine().addSnapshotBlocker(
        "vring device on ring '" + ep_.channel().name() +
        "' holds live inter-VM ring state (progress counters and "
        "possibly in-flight messages) that a snapshot cannot capture");
}

VringDevice::VringDevice(core::Kvm &kvm, core::Vm &vm,
                         RingChannel::Endpoint &ep)
    : VringDevice(kvm, vm, ep, Config{})
{
}

VringDevice::~VringDevice()
{
    kvm_.machine().removeSnapshotBlocker(blockerToken_);
}

std::uint64_t
VringDevice::digest() const
{
    return fold(txDigest_, rxDigest_);
}

Addr
VringDevice::dmaResolve(Addr ipa, const char *what)
{
    vm_.stage2().handleRamFault(ipa);
    auto pa = vm_.stage2().ipaToPa(ipa);
    if (!pa)
        fatal("VringDevice('%s'): DMA %s at unmapped IPA 0x%llx",
              ep_.channel().name().c_str(), what,
              static_cast<unsigned long long>(ipa));
    return *pa;
}

std::uint64_t
VringDevice::dmaRead(Addr ipa, unsigned len)
{
    return kvm_.machine().ram().read(dmaResolve(ipa, "read"), len);
}

void
VringDevice::dmaWrite(Addr ipa, std::uint64_t value, unsigned len)
{
    kvm_.machine().ram().write(dmaResolve(ipa, "write"), value, len);
}

void
VringDevice::dmaReadBlock(Addr ipa, std::uint8_t *buf, std::size_t len)
{
    while (len > 0) {
        const std::size_t chunk =
            std::min<std::size_t>(len, kPageSize - (ipa & (kPageSize - 1)));
        kvm_.machine().ram().readBlock(dmaResolve(ipa, "read"), buf, chunk);
        ipa += chunk;
        buf += chunk;
        len -= chunk;
    }
}

void
VringDevice::dmaWriteBlock(Addr ipa, const std::uint8_t *buf,
                           std::size_t len)
{
    while (len > 0) {
        const std::size_t chunk =
            std::min<std::size_t>(len, kPageSize - (ipa & (kPageSize - 1)));
        kvm_.machine().ram().writeBlock(dmaResolve(ipa, "write"), buf,
                                        chunk);
        ipa += chunk;
        buf += chunk;
        len -= chunk;
    }
}

void
VringDevice::handleMmio(arm::ArmCpu &cpu, core::VCpu &vcpu,
                        core::MmioExit &exit)
{
    (void)vcpu;
    if (exit.ipa < cfg_.mmioBase ||
        exit.ipa >= cfg_.mmioBase + vringdev::kMmioSize) {
        exit.handled = false;
        return;
    }
    cpu.compute(vringdev::kMmioWork);
    Addr off = exit.ipa - cfg_.mmioBase;
    if (exit.isWrite) {
        switch (off) {
          case vringdev::DOORBELL:
            handleDoorbell(cpu, static_cast<std::uint32_t>(exit.data));
            break;
          case vringdev::RX_ACK: {
            std::uint64_t acked = exit.data;
            if (acked < rxAcked_ || acked > rxUsed_)
                fatal("VringDevice('%s'): RX_ACK %llu outside [%llu, %llu]",
                      ep_.channel().name().c_str(),
                      static_cast<unsigned long long>(acked),
                      static_cast<unsigned long long>(rxAcked_),
                      static_cast<unsigned long long>(rxUsed_));
            rxAcked_ = acked;
            break;
          }
          default:
            exit.handled = false;
            return;
        }
    } else {
        switch (off) {
          case vringdev::TX_USED:
            exit.data = txUsed_;
            break;
          case vringdev::RX_USED:
            exit.data = rxUsed_;
            break;
          case vringdev::RING_SIZE:
            exit.data = cfg_.entries;
            break;
          default:
            exit.handled = false;
            return;
        }
    }
    exit.handled = true;
}

void
VringDevice::handleDoorbell(arm::ArmCpu &cpu, std::uint32_t availIdx)
{
    const char *ring = ep_.channel().name().c_str();
    if (availIdx < txUsed_ || availIdx - txUsed_ > cfg_.entries)
        fatal("VringDevice('%s'): doorbell avail index %u with used %llu "
              "(ring holds %u entries)",
              ring, availIdx, static_cast<unsigned long long>(txUsed_),
              cfg_.entries);
    while (txUsed_ < availIdx) {
        std::uint64_t seq = txUsed_;
        unsigned slot = static_cast<unsigned>(seq % cfg_.entries);
        Addr desc = txRing_ + vringdev::kHdrBytes +
                    slot * vringdev::kDescBytes;
        Addr addr = dmaRead(desc, 8);
        std::uint32_t len =
            static_cast<std::uint32_t>(dmaRead(desc + 8, 4));
        if (len == 0 || len > cfg_.bufBytes)
            fatal("VringDevice('%s'): TX descriptor %u has payload length "
                  "%u (buffer holds %u)",
                  ring, slot, len, cfg_.bufBytes);
        std::vector<std::uint8_t> payload(len);
        dmaReadBlock(addr, payload.data(), len);

        txDigest_ = fold(txDigest_, cpu.now());
        txDigest_ = fold(txDigest_, seq);
        txDigest_ = foldBytes(txDigest_, payload);

        std::uint64_t sent = ep_.send(cpu.now(), std::move(payload));
        if (sent != seq)
            fatal("VringDevice('%s'): channel send seq %llu but ring seq "
                  "%llu — another sender is sharing this endpoint",
                  ring, static_cast<unsigned long long>(sent),
                  static_cast<unsigned long long>(seq));

        ++txUsed_;
        dmaWrite(txRing_ + vringdev::kHdrUsed, txUsed_ & 0xFFFFFFFF, 4);
        KVMARM_CHECK_ON(kvm_.machine().checkEngine(),
                        ringDoorbell(&kvm_.machine(), cpu.id(), ring, seq,
                                     cpu.now(),
                                     static_cast<std::uint32_t>(txUsed_)));
    }
    // TX completion interrupt: the KVM_IRQ_LINE path through the vGIC.
    vm_.irqLine(cpu, cfg_.txSpi);
}

void
VringDevice::deliver()
{
    const RingMessage msg = std::move(inbox_.front());
    inbox_.pop_front();
    const char *ring = ep_.channel().name().c_str();
    if (rxUsed_ - rxAcked_ >= cfg_.entries)
        fatal("VringDevice('%s'): RX ring overrun — %llu deliveries "
              "outstanding, guest acked %llu, ring holds %u",
              ring, static_cast<unsigned long long>(rxUsed_),
              static_cast<unsigned long long>(rxAcked_), cfg_.entries);
    unsigned slot = static_cast<unsigned>(rxUsed_ % cfg_.entries);
    Addr payloadIpa =
        rxRing_ + vringdev::kPayloadOff + slot * cfg_.bufBytes;
    std::uint32_t len = static_cast<std::uint32_t>(msg.payload.size());
    dmaWriteBlock(payloadIpa, msg.payload.data(), len);

    Addr desc =
        rxRing_ + vringdev::kHdrBytes + slot * vringdev::kDescBytes;
    dmaWrite(desc, payloadIpa, 8);
    dmaWrite(desc + 8, len, 4);

    rxDigest_ = fold(rxDigest_, msg.deliverCycle);
    rxDigest_ = fold(rxDigest_, msg.seq);
    rxDigest_ = foldBytes(rxDigest_, msg.payload);

    ++rxUsed_;
    dmaWrite(rxRing_ + vringdev::kHdrUsed, rxUsed_ & 0xFFFFFFFF, 4);

    arm::ArmCpu &cpu = kvm_.machine().cpu(0);
    KVMARM_CHECK_ON(kvm_.machine().checkEngine(),
                    ringDeliver(&kvm_.machine(), cpu.id(), ring, msg.seq,
                                msg.deliverCycle,
                                static_cast<std::uint32_t>(rxUsed_)));
    // RX interrupt: same KVM_IRQ_LINE/vGIC injection as a physical
    // device completion.
    vm_.irqLine(cpu, cfg_.rxSpi);
}

} // namespace kvmarm::vdev

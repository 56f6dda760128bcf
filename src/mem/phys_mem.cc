#include "mem/phys_mem.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace kvmarm {

PhysMem::PhysMem(Addr base, Addr size, MachineBase *machine)
    : Snapshottable(machine, "ram"), base_(base), size_(size),
      pages_(size >> kPageShift)
{
    if (!isPageAligned(base) || !isPageAligned(size) || size == 0)
        fatal("PhysMem: base/size must be nonzero and page aligned");
}

bool
PhysMem::contains(Addr pa, unsigned len) const
{
    return pa >= base_ && pa + len <= base_ + size_ && pa + len > pa;
}

void
PhysMem::checkRange(Addr pa, Addr len) const
{
    if (!contains(pa, static_cast<unsigned>(len)))
        panic("PhysMem: access [%#llx,+%llu) outside RAM [%#llx,+%llu)",
              static_cast<unsigned long long>(pa), static_cast<unsigned long long>(len),
              static_cast<unsigned long long>(base_), static_cast<unsigned long long>(size_));
}

void
PhysMem::cachePrivate(Addr frame, Page *pg) const
{
    cachedFrame_ = frame;
    cachedPage_ = pg;
    // Keep the read cache coherent: it may still point at the shared image
    // copy of this frame, which just became stale for this machine.
    readFrame_ = frame;
    readPage_ = pg;
}

void
PhysMem::invalidateCaches() const
{
    cachedFrame_ = ~static_cast<Addr>(0);
    cachedPage_ = nullptr;
    readFrame_ = ~static_cast<Addr>(0);
    readPage_ = nullptr;
}

PhysMem::Page &
PhysMem::pageFor(Addr pa)
{
    Addr frame = pageAlignDown(pa);
    if (frame == cachedFrame_)
        return *cachedPage_;
    std::size_t i = frameIndex(frame);
    std::unique_ptr<Page> &slot = pages_.at(i);
    if (!slot) {
        slot = std::make_unique_for_overwrite<Page>();
        ++privatePages_;
        const std::shared_ptr<const Page> *shared =
            image_ ? image_->pages.find(i) : nullptr;
        if (shared && *shared) {
            // COW fault: first write to a page still shared with the
            // snapshot image; copy it into a machine-private page.
            *slot = **shared;
            ++cowFaults_;
        } else {
            slot->fill(0);
        }
    }
    cachePrivate(frame, slot.get());
    return *slot;
}

PhysMem::Page &
PhysMem::pageForZero(Addr pa)
{
    // Like pageFor, but the caller is about to zero the whole page, so a
    // shared image page is *not* copied first.
    Addr frame = pageAlignDown(pa);
    if (frame == cachedFrame_)
        return *cachedPage_;
    std::unique_ptr<Page> &slot = pages_.at(frameIndex(frame));
    if (!slot) {
        slot = std::make_unique_for_overwrite<Page>();
        ++privatePages_;
    }
    cachePrivate(frame, slot.get());
    return *slot;
}

const PhysMem::Page *
PhysMem::pageForRead(Addr pa) const
{
    Addr frame = pageAlignDown(pa);
    if (frame == readFrame_)
        return readPage_;
    std::size_t i = frameIndex(frame);
    const Page *pg = nullptr;
    if (const std::unique_ptr<Page> *own = pages_.find(i); own && *own)
        pg = own->get();
    else if (image_) {
        if (const std::shared_ptr<const Page> *shared = image_->pages.find(i))
            pg = shared->get();
    }
    if (pg) {
        readFrame_ = frame;
        readPage_ = pg;
    }
    return pg;
}

std::uint64_t
PhysMem::read(Addr pa, unsigned len) const
{
    checkRange(pa, len);
    std::uint64_t v = 0;
    if ((pa & (len - 1)) == 0) {
        // Naturally aligned: cannot cross a page, skip the block loop.
        if (const Page *pg = pageForRead(pa))
            std::memcpy(&v, pg->data() + (pa & (kPageSize - 1)), len);
        return v;
    }
    readBlock(pa, &v, len);
    return v;
}

void
PhysMem::write(Addr pa, std::uint64_t value, unsigned len)
{
    checkRange(pa, len);
    if ((pa & (len - 1)) == 0) {
        std::memcpy(pageFor(pa).data() + (pa & (kPageSize - 1)), &value, len);
        return;
    }
    writeBlock(pa, &value, len);
}

void
PhysMem::readBlock(Addr pa, void *dst, Addr len) const
{
    checkRange(pa, len);
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        Addr off = pa & (kPageSize - 1);
        Addr chunk = std::min<Addr>(len, kPageSize - off);
        const Page *pg = pageForRead(pa);
        if (pg)
            std::memcpy(out, pg->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        pa += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
PhysMem::writeBlock(Addr pa, const void *src, Addr len)
{
    checkRange(pa, len);
    auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        Addr off = pa & (kPageSize - 1);
        Addr chunk = std::min<Addr>(len, kPageSize - off);
        std::memcpy(pageFor(pa).data() + off, in, chunk);
        pa += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
PhysMem::zeroPage(Addr pa)
{
    checkRange(pa, kPageSize);
    if (!isPageAligned(pa))
        panic("PhysMem::zeroPage: unaligned %#llx", static_cast<unsigned long long>(pa));
    pageForZero(pa).fill(0);
}

std::size_t
PhysMem::touchedPages() const
{
    std::size_t n = privatePages_;
    if (image_) {
        image_->pages.forEach([&](std::size_t i, const auto &) {
            const std::unique_ptr<Page> *own = pages_.find(i);
            if (!own || !*own)
                ++n;
        });
    }
    return n;
}

void
PhysMem::snapshotSave(SnapshotWriter &w)
{
    // Publish every page this machine can currently see into one immutable
    // image: the previous image's pages (clone-of-clone chains flatten
    // here) overlaid with this machine's private pages, in ascending frame
    // order. The private pages move into the image without copying bytes,
    // and this PhysMem becomes a COW client of the new image — symmetric
    // with every clone, so the origin and its clones fault identically
    // from here on.
    auto img = image_ ? std::make_shared<SnapshotImage>(*image_)
                      : std::make_shared<SnapshotImage>(size_ >> kPageShift);
    pages_.forEach([&](std::size_t i, std::unique_ptr<Page> &pg) {
        std::shared_ptr<const Page> &slot = img->pages.at(i);
        if (!slot)
            ++img->count;
        slot = std::shared_ptr<const Page>(pg.release());
    });
    pages_.clear();
    privatePages_ = 0;
    image_ = img;
    invalidateCaches();

    visit(w);
    w.attach(std::static_pointer_cast<const void>(
        std::shared_ptr<const SnapshotImage>(img)));
}

void
PhysMem::snapshotLoad(SnapshotReader &r)
{
    visit(r);
    auto img = std::static_pointer_cast<const SnapshotImage>(r.attachment());
    if (!img)
        fatal("PhysMem::snapshotLoad: record carries no page image");
    image_ = std::move(img);
    // Whatever this machine wrote before the restore (boot-time page-table
    // scribbles from its own construction) is superseded by the image.
    pages_.clear();
    privatePages_ = 0;
    invalidateCaches();
}

} // namespace kvmarm

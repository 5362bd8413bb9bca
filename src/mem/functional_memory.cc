#include "mem/functional_memory.hh"

#include "sim/logging.hh"

namespace grp
{

namespace
{

Addr
alignUp(Addr addr, uint64_t align)
{
    return (addr + align - 1) & ~(align - 1);
}

} // namespace

Addr
FunctionalMemory::heapAlloc(uint64_t bytes, uint64_t align)
{
    fatal_if(bytes == 0, "zero-byte heap allocation");
    fatal_if(!isPowerOfTwo(align), "alignment must be a power of two");
    const Addr base = alignUp(heapBrk_, align);
    heapBrk_ = base + bytes;
    fatal_if(heapBrk_ > kHeapBase + kSegmentCapacity,
             "simulated heap exhausted");
    return base;
}

Addr
FunctionalMemory::staticAlloc(uint64_t bytes, uint64_t align)
{
    fatal_if(bytes == 0, "zero-byte static allocation");
    fatal_if(!isPowerOfTwo(align), "alignment must be a power of two");
    const Addr base = alignUp(staticBrk_, align);
    staticBrk_ = base + bytes;
    fatal_if(staticBrk_ > kStaticBase + kSegmentCapacity,
             "simulated static segment exhausted");
    return base;
}

FunctionalMemory::Page &
FunctionalMemory::pageFor(Addr addr)
{
    const Addr page_addr = addr >> kPageShift;
    auto &slot = pages_[page_addr];
    if (!slot)
        slot = std::make_unique<Page>(); // Value-initialized: zeroed in place.
    return *slot;
}

const FunctionalMemory::Page *
FunctionalMemory::pageForConst(Addr addr) const
{
    auto it = pages_.find(addr >> kPageShift);
    return it == pages_.end() ? nullptr : it->second.get();
}

uint64_t
FunctionalMemory::read64(Addr addr) const
{
    panic_if(addr & 7, "unaligned 64-bit read at %#llx",
             (unsigned long long)addr);
    const Page *page = pageForConst(addr);
    if (!page)
        return 0;
    return (*page)[(addr & (kPageBytes - 1)) >> 3];
}

void
FunctionalMemory::write64(Addr addr, uint64_t value)
{
    panic_if(addr & 7, "unaligned 64-bit write at %#llx",
             (unsigned long long)addr);
    pageFor(addr)[(addr & (kPageBytes - 1)) >> 3] = value;
}

uint32_t
FunctionalMemory::read32(Addr addr) const
{
    panic_if(addr & 3, "unaligned 32-bit read at %#llx",
             (unsigned long long)addr);
    const uint64_t word = read64(addr & ~7ull);
    return (addr & 4) ? static_cast<uint32_t>(word >> 32)
                      : static_cast<uint32_t>(word);
}

void
FunctionalMemory::write32(Addr addr, uint32_t value)
{
    panic_if(addr & 3, "unaligned 32-bit write at %#llx",
             (unsigned long long)addr);
    const Addr word_addr = addr & ~7ull;
    uint64_t word = read64(word_addr);
    if (addr & 4) {
        word = (word & 0x0000'0000'ffff'ffffull) |
               (static_cast<uint64_t>(value) << 32);
    } else {
        word = (word & 0xffff'ffff'0000'0000ull) | value;
    }
    write64(word_addr, word);
}

void
FunctionalMemory::readBlock(Addr addr, std::array<uint64_t, 8> &out) const
{
    const Addr base = blockAlign(addr);
    for (unsigned i = 0; i < 8; ++i)
        out[i] = read64(base + 8ull * i);
}

} // namespace grp

/**
 * @file
 * Unit tests for the memory-system building blocks: set-associative
 * cache, the three directory schemes, DRAM controller, sparse main
 * memory, and the target memory manager.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <random>

#include "common/log.h"
#include "mem/address_space.h"
#include "mem/cache.h"
#include "mem/directory.h"
#include "mem/dram_controller.h"
#include "mem/main_memory.h"
#include "network/global_progress.h"

namespace graphite
{
namespace
{

/** A replaced line, its bytes copied out before the fill reused them. */
struct Victim
{
    addr_t lineAddr;
    bool dirty;
    std::vector<std::uint8_t> bytes;
};

/** Insert @p line_addr and fill all its bytes with @p fill. */
std::optional<Victim>
put(Cache& c, addr_t line_addr, CacheState state, std::uint8_t fill)
{
    Insertion ins = c.insert(line_addr, state);
    EXPECT_EQ(ins.data.size(), c.lineSize());
    std::optional<Victim> v;
    if (ins.victim)
        v = Victim{ins.victim->lineAddr, ins.victim->dirty,
                   {ins.victim->data.begin(), ins.victim->data.end()}};
    std::ranges::fill(ins.data, fill);
    return v;
}

/** Resident set size of this process in bytes (/proc/self/statm). */
std::int64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::int64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * sysconf(_SC_PAGESIZE);
}

// ------------------------------------------------------------------- Cache

TEST(Cache, HitAfterInsert)
{
    Cache c("t", 1024, 2, 64);
    EXPECT_EQ(c.access(0x100, false), nullptr); // miss
    put(c, 0x100, CacheState::Shared, 7);
    CacheLine* line = c.access(0x104, false); // same line, offset 4
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(c.data(*line)[4], 7);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, WriteProbeNeedsModified)
{
    Cache c("t", 1024, 2, 64);
    put(c, 0x100, CacheState::Shared, 1);
    EXPECT_EQ(c.access(0x100, /*is_write=*/true), nullptr); // S, no M
    c.invalidate(0x100);
    put(c, 0x100, CacheState::Modified, 1);
    EXPECT_NE(c.access(0x100, true), nullptr);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, 64B lines, 2 sets => set stride 128.
    Cache c("t", 256, 2, 64);
    put(c, 0x000, CacheState::Shared, 1);
    put(c, 0x100, CacheState::Shared, 2); // same set 0
    c.access(0x000, false);               // touch 0x000
    auto ev = put(c, 0x200, CacheState::Shared, 3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x100u); // LRU victim
    EXPECT_FALSE(ev->dirty);
}

TEST(Cache, DirtyEvictionCarriesData)
{
    Cache c("t", 128, 1, 64); // direct-mapped, 2 sets
    put(c, 0x000, CacheState::Modified, 9);
    auto ev = put(c, 0x100, CacheState::Shared, 1);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->bytes, std::vector<std::uint8_t>(64, 9));
}

TEST(Cache, InvalidateReturnsData)
{
    Cache c("t", 1024, 2, 64);
    put(c, 0x40, CacheState::Modified, 5);
    auto ev = c.invalidate(0x40);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_TRUE(std::ranges::equal(ev->data,
                                   std::vector<std::uint8_t>(64, 5)));
    EXPECT_EQ(c.find(0x40), nullptr);
    EXPECT_FALSE(c.invalidate(0x40).has_value()); // already gone
}

TEST(Cache, DowngradeKeepsSharedCopy)
{
    Cache c("t", 1024, 2, 64);
    put(c, 0x80, CacheState::Modified, 3);
    auto data = c.downgrade(0x80);
    EXPECT_TRUE(
        std::ranges::equal(data, std::vector<std::uint8_t>(64, 3)));
    EXPECT_EQ(c.find(0x80)->state, CacheState::Shared);
    EXPECT_TRUE(std::ranges::equal(c.data(*c.find(0x80)), data));
    EXPECT_TRUE(c.downgrade(0x80).empty()); // already S
}

TEST(Cache, DataRoundTripsThroughEveryWay)
{
    // 4 ways x 4 sets of 32-byte lines; set stride is 128 bytes.
    Cache c("t", 512, 4, 32);
    auto pattern = [](addr_t a, std::uint64_t i) {
        return static_cast<std::uint8_t>(a / 32 * 7 + i);
    };
    std::vector<addr_t> lines;
    for (addr_t set = 0; set < 4; ++set)
        for (addr_t way = 0; way < 4; ++way)
            lines.push_back(set * 32 + way * 128);
    for (addr_t a : lines) {
        Insertion ins = c.insert(a, CacheState::Modified);
        EXPECT_FALSE(ins.victim.has_value());
        for (std::uint64_t i = 0; i < 32; ++i)
            ins.data[i] = pattern(a, i);
    }
    // Every way of every set reads back its own bytes.
    for (addr_t a : lines) {
        const CacheLine* line = c.find(a);
        ASSERT_NE(line, nullptr);
        for (std::uint64_t i = 0; i < 32; ++i)
            ASSERT_EQ(c.data(*line)[i], pattern(a, i)) << a << "+" << i;
    }
    EXPECT_EQ(c.validLines().size(), 16u);
}

TEST(Cache, EvictInvalidateAndDowngradeReturnTheVictimsBytes)
{
    Cache c("t", 512, 4, 32);
    auto expect_bytes = [](std::span<const std::uint8_t> got,
                           std::uint8_t fill) {
        EXPECT_TRUE(
            std::ranges::equal(got, std::vector<std::uint8_t>(32, fill)));
    };
    // Fill set 0's four ways, each with its own byte.
    for (std::uint8_t w = 0; w < 4; ++w)
        put(c, w * 128, CacheState::Modified, 0x10 + w);

    // Way 1 is downgraded (keeps its bytes), way 2 invalidated.
    expect_bytes(c.downgrade(128), 0x11);
    auto inv = c.invalidate(256);
    ASSERT_TRUE(inv.has_value());
    expect_bytes(inv->data, 0x12);

    // The freed way is reused without an eviction ...
    EXPECT_FALSE(put(c, 4 * 128, CacheState::Shared, 0x14).has_value());
    // ... then the LRU line (way 0) is evicted with its bytes.
    auto ev = put(c, 5 * 128, CacheState::Shared, 0x15);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0u);
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->bytes, std::vector<std::uint8_t>(32, 0x10));
    // A clean victim hands over its bytes too.
    ev = put(c, 6 * 128, CacheState::Shared, 0x16);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 128u);
    EXPECT_FALSE(ev->dirty);
    EXPECT_EQ(ev->bytes, std::vector<std::uint8_t>(32, 0x11));
}

TEST(Cache, LruVictimsMatchAReferenceModel)
{
    // Reference: per set, lines ordered least- to most-recently used.
    constexpr int kSets = 4, kWays = 3;
    std::mt19937_64 rng(12345);
    for (int round = 0; round < 20; ++round) {
        Cache c("t", kSets * kWays * 64, kWays, 64);
        std::vector<std::vector<addr_t>> ref(kSets);
        for (int op = 0; op < 400; ++op) {
            addr_t a = (rng() % 40) * 64;
            auto& set = ref[(a / 64) % kSets];
            auto it = std::ranges::find(set, a);
            if (it != set.end()) {
                ASSERT_NE(c.access(a, false), nullptr);
                set.erase(it);
                set.push_back(a);
                continue;
            }
            std::optional<addr_t> want;
            if (set.size() == kWays) {
                want = set.front();
                set.erase(set.begin());
            }
            ASSERT_EQ(c.peekVictim(a), want);
            auto ev = put(c, a, CacheState::Shared,
                          static_cast<std::uint8_t>(a / 64));
            ASSERT_EQ(ev.has_value(), want.has_value());
            if (ev) {
                EXPECT_EQ(ev->lineAddr, *want);
                EXPECT_EQ(ev->bytes, std::vector<std::uint8_t>(
                                         64, static_cast<std::uint8_t>(
                                                 *want / 64)));
            }
            set.push_back(a);
        }
    }
}

TEST(Cache, BuildingALargeCacheTouchesNoMemory)
{
    // A paper-sized L2 (3 MB, 24-way): its tags and data slab are
    // mapped, not initialised, so construction adds almost nothing to
    // the resident set; a sparse fill touches only what it writes.
    const std::int64_t before = residentBytes();
    Cache l2("l2", 3 << 20, 24, 64);
    EXPECT_LT(residentBytes() - before, 1 << 20);
    for (addr_t a = 0; a < 64 * 64; a += 64)
        put(l2, a, CacheState::Shared, 1);
    EXPECT_LT(residentBytes() - before, 1 << 20);
    // One line in every set: all 1.2 MB of tags, but only way 0's
    // 128 KB of the way-major slab (a set-major slab would be 3 MB).
    for (addr_t a = 0; a < l2.numSets() * 64; a += 64)
        if (l2.find(a) == nullptr)
            put(l2, a, CacheState::Shared, 1);
    EXPECT_LT(residentBytes() - before, 2 << 20);
}

TEST(Cache, BadGeometryIsFatal)
{
    EXPECT_THROW(Cache("t", 1000, 3, 60), FatalError);  // line not pow2
    EXPECT_THROW(Cache("t", 100, 2, 64), FatalError);   // size mismatch
}

// --------------------------------------------------------------- Directory

TEST(Directory, FullMapTracksAllSharers)
{
    Directory dir(DirectoryType::FullMap, 0, 64, 0);
    DirectoryEntry& e = dir.entry(0x1000);
    for (tile_id_t t = 0; t < 64; ++t) {
        AddSharerResult r = e.addSharer(t);
        EXPECT_FALSE(r.evicted.has_value());
        EXPECT_EQ(r.extraLatency, 0u);
    }
    EXPECT_EQ(e.numSharers(), 64u);
    e.removeSharer(5);
    EXPECT_FALSE(e.isSharer(5));
    EXPECT_EQ(e.numSharers(), 63u);
    e.clearSharers();
    EXPECT_EQ(e.numSharers(), 0u);
}

TEST(Directory, LimitedEvictsBeyondPointerCount)
{
    // Dir_4NB: the 5th sharer displaces the oldest pointer (§4.4).
    Directory dir(DirectoryType::LimitedNoBroadcast, 4, 32, 0);
    DirectoryEntry& e = dir.entry(0);
    for (tile_id_t t = 0; t < 4; ++t)
        EXPECT_FALSE(e.addSharer(t).evicted.has_value());
    AddSharerResult r = e.addSharer(4);
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_EQ(*r.evicted, 0); // FIFO victim
    EXPECT_EQ(e.numSharers(), 4u);
    EXPECT_FALSE(e.isSharer(0));
    EXPECT_TRUE(e.isSharer(4));
    EXPECT_EQ(dir.pointerEvictions(), 1u);
}

TEST(Directory, LimitedReaddIsIdempotent)
{
    Directory dir(DirectoryType::LimitedNoBroadcast, 2, 8, 0);
    DirectoryEntry& e = dir.entry(0);
    e.addSharer(1);
    e.addSharer(1);
    EXPECT_EQ(e.numSharers(), 1u);
}

TEST(Directory, LimitlessTrapsInsteadOfEvicting)
{
    // LimitLESS(2): overflow sharers kept in software at a trap cost.
    Directory dir(DirectoryType::Limitless, 2, 32, 100);
    DirectoryEntry& e = dir.entry(0);
    EXPECT_EQ(e.addSharer(0).extraLatency, 0u);
    EXPECT_EQ(e.addSharer(1).extraLatency, 0u);
    AddSharerResult r = e.addSharer(2);
    EXPECT_FALSE(r.evicted.has_value()); // nobody evicted
    EXPECT_EQ(r.extraLatency, 100u);     // software trap
    EXPECT_EQ(e.numSharers(), 3u);
    EXPECT_EQ(dir.softwareTraps(), 1u);
    // Removing a hardware pointer promotes a software sharer.
    e.removeSharer(0);
    EXPECT_EQ(e.numSharers(), 2u);
    EXPECT_TRUE(e.isSharer(2));
}

TEST(Directory, ParseTypeNames)
{
    EXPECT_EQ(parseDirectoryType("full_map"), DirectoryType::FullMap);
    EXPECT_EQ(parseDirectoryType("limited_no_broadcast"),
              DirectoryType::LimitedNoBroadcast);
    EXPECT_EQ(parseDirectoryType("limitless"), DirectoryType::Limitless);
    EXPECT_THROW(parseDirectoryType("snoopy"), FatalError);
}

TEST(Directory, EntriesCreatedOnDemand)
{
    Directory dir(DirectoryType::FullMap, 0, 4, 0);
    EXPECT_EQ(dir.peek(0x40), nullptr);
    dir.entry(0x40).setState(DirectoryState::Shared);
    EXPECT_NE(dir.peek(0x40), nullptr);
    EXPECT_EQ(dir.size(), 1u);
}

// ---------------------------------------------------------- DramController

TEST(Dram, LatencyIncludesServiceTime)
{
    DramController dram(100, /*bytes_per_cycle=*/1.0, nullptr);
    // 64 bytes at 1 B/cycle: 100 + 64.
    EXPECT_EQ(dram.access(0, 64), 164u);
    EXPECT_EQ(dram.accesses(), 1u);
}

TEST(Dram, QueueingDelaysBursts)
{
    GlobalProgress gp(8);
    gp.observe(1000);
    DramController dram(100, 0.5, &gp);
    cycle_t first = dram.access(1000, 64);
    cycle_t second = dram.access(1000, 64); // backlogged
    EXPECT_GT(second, first);
    EXPECT_GT(dram.totalQueueDelay(), 0u);
}

TEST(Dram, BandwidthSplitRaisesServiceTime)
{
    // §4.4: splitting total bandwidth across more controllers raises
    // per-access service time.
    DramController wide(100, 5.13, nullptr);         // 1-tile share
    DramController narrow(100, 5.13 / 256, nullptr); // 256-tile share
    EXPECT_LT(wide.access(0, 64), narrow.access(0, 64));
}

TEST(Dram, ZeroBandwidthIsFatal)
{
    EXPECT_THROW(DramController(100, 0.0, nullptr), FatalError);
}

// ------------------------------------------------------------- MainMemory

TEST(MainMemory, UntouchedReadsAsZero)
{
    MainMemory mem;
    std::uint64_t v = 123;
    mem.read(0x5000, &v, 8);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(mem.pagesAllocated(), 0u); // reads do not materialize
}

TEST(MainMemory, WriteReadRoundTrip)
{
    MainMemory mem;
    std::uint64_t v = 0xDEADBEEFCAFEull;
    mem.write(0x1234, &v, 8);
    std::uint64_t back = 0;
    mem.read(0x1234, &back, 8);
    EXPECT_EQ(back, v);
    EXPECT_EQ(mem.pagesAllocated(), 1u);
}

TEST(MainMemory, CrossPageAccess)
{
    MainMemory mem;
    std::vector<std::uint8_t> data(8192, 0xAB);
    mem.write(MainMemory::PAGE_SIZE - 100, data.data(), data.size());
    std::vector<std::uint8_t> back(8192, 0);
    mem.read(MainMemory::PAGE_SIZE - 100, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(mem.pagesAllocated(), 3u);
}

// ---------------------------------------------------------- MemoryManager

TEST(MemoryManager, AllocateIsAlignedAndDisjoint)
{
    MemoryManager mm(4, 1 << 20);
    addr_t a = mm.allocate(10);
    addr_t b = mm.allocate(100);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GE(b, a + 16);
    EXPECT_EQ(mm.allocationCount(), 2u);
}

TEST(MemoryManager, FreeListReusesAndCoalesces)
{
    MemoryManager mm(1, 1 << 20);
    addr_t a = mm.allocate(64);
    addr_t b = mm.allocate(64);
    addr_t c = mm.allocate(64);
    mm.deallocate(a);
    mm.deallocate(b); // coalesces with a
    (void)c;
    addr_t big = mm.allocate(128); // fits in the coalesced hole
    EXPECT_EQ(big, a);
}

TEST(MemoryManager, DoubleFreeIsFatal)
{
    MemoryManager mm(1, 1 << 20);
    addr_t a = mm.allocate(8);
    mm.deallocate(a);
    EXPECT_THROW(mm.deallocate(a), FatalError);
}

TEST(MemoryManager, BrkSemantics)
{
    MemoryManager mm(1, 1 << 20);
    addr_t base = mm.brk(0);
    EXPECT_EQ(base, AddressSpaceLayout::HEAP_BASE);
    addr_t grown = mm.brk(base + 4096);
    EXPECT_EQ(grown, base + 4096);
    // Out-of-segment request fails by returning the old break.
    EXPECT_EQ(mm.brk(1), grown);
}

TEST(MemoryManager, MmapMunmap)
{
    MemoryManager mm(1, 1 << 20);
    addr_t r = mm.mmap(100);
    EXPECT_EQ(r % 4096, 0u);
    EXPECT_GE(r, AddressSpaceLayout::MMAP_BASE);
    mm.munmap(r, 100);
    EXPECT_THROW(mm.munmap(r, 100), FatalError); // already unmapped
}

TEST(MemoryManager, StacksPartitionedPerTile)
{
    MemoryManager mm(8, 1 << 20);
    for (tile_id_t t = 0; t + 1 < 8; ++t)
        EXPECT_EQ(mm.stackBase(t + 1) - mm.stackBase(t), 1u << 20);
    EXPECT_GE(mm.stackBase(0), AddressSpaceLayout::STACK_BASE);
}

TEST(AddressSpaceLayout, SegmentNames)
{
    EXPECT_STREQ(AddressSpaceLayout::segmentName(0x2000), "code");
    EXPECT_STREQ(
        AddressSpaceLayout::segmentName(AddressSpaceLayout::HEAP_BASE),
        "heap");
    EXPECT_STREQ(
        AddressSpaceLayout::segmentName(AddressSpaceLayout::STACK_BASE),
        "stack");
    EXPECT_STREQ(AddressSpaceLayout::segmentName(0xFFFF'FFFF'0000ull),
                 "unmapped");
}

} // namespace
} // namespace graphite

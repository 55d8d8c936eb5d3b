/**
 * @file
 * Set-associative cache with functional data storage.
 *
 * Graphite's memory system deliberately fuses function and modeling
 * (paper §3.2): "Graphite addresses this problem by modifying the software
 * data structures used for ensuring functional correctness to operate
 * similar to the memory architecture of the target machine... this
 * strategy automatically helps verify the correctness of complex
 * hierarchies and protocols". Accordingly each cache line here holds the
 * actual bytes of the simulated address space; a coherence bug corrupts
 * application results, making the protocol self-verifying.
 *
 * Storage layout: each cache owns two flat blocks, both mapped as
 * zero-on-demand pages (common/zero_array.h), so building a cache runs
 * no per-line constructor and touches no memory:
 *
 *  - a tag/state/LRU array of CacheLine, set-major (a set's ways are
 *    adjacent, so a lookup reads one contiguous run);
 *  - a data slab of numSets * associativity * lineSize bytes, way-major:
 *    line (set, way) lives at byte (way * numSets + set) * lineSize.
 *
 * The slab is way-major because insert() fills the lowest free way
 * first: a cache that holds few lines per set touches only the pages of
 * its first ways, so resident memory follows the working set rather than
 * the configured capacity. A set-major slab would put every set's ways
 * on one page, so a sparse fill would touch every page.
 *
 * Line bytes never leave the slab: insert(), invalidate(), downgrade()
 * and evictions hand out spans into it, so a coherence miss makes no
 * heap allocation.
 *
 * Thread-safety: all mutation happens under the owning tile's lock
 * (MemorySystem's two-level locking scheme; see DESIGN.md
 * §"Coherence-transaction serialization"); Cache itself is not
 * internally locked. The statistic
 * counters are OwnedStats, written under that lock, so gauges and the
 * interval metrics sampler can read them while other threads mutate.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"
#include "common/zero_array.h"

namespace graphite
{

namespace snapshot
{
class SnapshotWriter;
class SnapshotReader;
} // namespace snapshot

/** Coherence line states (MSI, plus Exclusive when MESI is enabled). */
enum class CacheState : std::uint8_t
{
    Invalid = 0,
    Shared,
    /** Sole clean copy (MESI only); writes upgrade silently. */
    Exclusive,
    Modified
};

/** Why a line left the cache — input to the miss classifier. */
enum class EvictReason : std::uint8_t
{
    None = 0,    ///< line was never evicted
    Replacement, ///< capacity/conflict victim
    Invalidation,///< coherence invalidation by a remote writer
    Downgrade    ///< lost write permission but stayed Shared
};

/**
 * One cache line's tag, state and LRU stamp. Its bytes live in the
 * owning Cache's data slab (Cache::data()). All-zero is the Invalid
 * line, so a zero-filled array is a valid empty cache.
 */
struct CacheLine
{
    addr_t lineAddr = 0; ///< address of first byte, line-aligned
    std::uint64_t lruStamp = 0;
    CacheState state = CacheState::Invalid;
    /** way * numSets + set: the line's index in the slab (set on fill). */
    std::uint32_t slot = 0;

    bool valid() const { return state != CacheState::Invalid; }
};

/**
 * A line that left the cache: its identity and a view of its bytes in
 * the slab. The view stays valid until that way is filled again.
 */
struct Eviction
{
    addr_t lineAddr = 0;
    bool dirty = false;
    std::span<const std::uint8_t> data;
};

/** A way claimed by Cache::insert(). */
struct Insertion
{
    /** The new line's lineSize() bytes, for the caller to fill. */
    std::span<std::uint8_t> data;
    /**
     * The valid line this insertion replaced. Its bytes are still in
     * @c data: read them before filling.
     */
    std::optional<Eviction> victim;
};

/** Outcome of a side-effect-free permission probe (see Cache::probe). */
enum class CacheProbe : std::uint8_t
{
    Miss,        ///< line absent: a full coherence transaction is needed
    Hit,         ///< present with sufficient permission: no transaction
    NeedsUpgrade ///< present Shared, write wanted: upgrade transaction
};

/**
 * A single cache level (used for L1I, L1D and L2), LRU replacement,
 * configurable size / associativity / line size.
 */
class Cache
{
  public:
    /**
     * @param name          stats label ("l1_dcache", ...)
     * @param size_bytes    total capacity
     * @param associativity ways per set
     * @param line_size     bytes per line (power of two)
     */
    Cache(std::string name, std::uint64_t size_bytes, int associativity,
          std::uint64_t line_size);

    /** Line-align an address. */
    addr_t lineAlign(addr_t a) const { return a & ~(lineSize_ - 1); }

    /** @return the line holding @p addr, or nullptr on miss. */
    CacheLine* find(addr_t addr);
    const CacheLine* find(addr_t addr) const;

    /**
     * Probe for statistics: records a hit or miss.
     * @return the line on hit, nullptr on miss.
     */
    CacheLine* access(addr_t addr, bool is_write);

    /**
     * Permission probe with no side effects (no stats, no LRU touch, no
     * MESI silent upgrade): distinguishes "hit with sufficient state"
     * from "needs a coherence transaction". Exclusive counts as
     * sufficient for writes (the silent-upgrade privilege).
     */
    CacheProbe probe(addr_t addr, bool is_write) const;

    /**
     * @return true when @p line (possibly nullptr) grants the access
     * without a coherence transaction — any valid state for reads,
     * Modified or Exclusive for writes.
     */
    static bool sufficient(const CacheLine* line, bool is_write);

    /**
     * The line insert(@p line_addr, ...) would evict right now, or
     * nullopt when a free way exists (or the line is already present).
     * Used to pre-compute the victim's home shard before a transaction
     * acquires its locks; must mirror insert()'s victim choice exactly.
     */
    std::optional<addr_t> peekVictim(addr_t line_addr) const;

    /**
     * Claim a way for a line that is not present: the lowest free way
     * of its set, else the LRU victim. The caller fills the returned
     * bytes (after reading the victim's, which share them).
     * @param line_addr line-aligned address
     * @param state     initial MSI state
     */
    Insertion insert(addr_t line_addr, CacheState state);

    /**
     * Remove the line (coherence invalidation).
     * @return the line's bytes and dirtiness if it was present.
     */
    std::optional<Eviction> invalidate(addr_t line_addr);

    /**
     * Downgrade Modified/Exclusive -> Shared.
     * @return the line's bytes if it held ownership, else empty.
     */
    std::span<const std::uint8_t> downgrade(addr_t line_addr);

    /** The bytes of a valid line of this cache. */
    std::span<std::uint8_t>
    data(const CacheLine& line)
    {
        return {slab_.data() + (std::size_t{line.slot} << lineShift_),
                lineSize_};
    }
    std::span<const std::uint8_t>
    data(const CacheLine& line) const
    {
        return {slab_.data() + (std::size_t{line.slot} << lineShift_),
                lineSize_};
    }

    /** @name Geometry @{ */
    std::uint64_t lineSize() const { return lineSize_; }
    std::uint64_t numSets() const { return numSets_; }
    int associativity() const { return assoc_; }
    std::uint64_t capacity() const { return capacity_; }
    /** @} */

    /** @name Statistics (readable concurrently with mutation) @{ */
    const std::string& name() const { return name_; }
    stat_t accesses() const { return accesses_; }
    stat_t misses() const { return misses_; }
    stat_t hits() const { return accesses() - misses(); }
    stat_t evictions() const { return evictions_; }
    stat_t invalidations() const { return invalidations_; }
    double missRate() const;
    /** @} */

    /**
     * Enumerate valid lines in set-major order (for invariant checks).
     * Reads only the sets that have ever held a line.
     */
    std::vector<const CacheLine*> validLines() const;

    /** @name Checkpoint serialization (caller holds the tile lock) @{ */
    void saveState(snapshot::SnapshotWriter& w) const;
    /** @throws snapshot::SnapshotError on geometry mismatch. */
    void loadState(snapshot::SnapshotReader& r);
    /** @} */

  private:
    /** Shift and mask rather than divide when numSets_ is a power of 2. */
    std::uint64_t
    setIndex(addr_t line_addr) const
    {
        const std::uint64_t block = line_addr >> lineShift_;
        return setsPow2_ ? block & (numSets_ - 1) : block % numSets_;
    }
    CacheLine* lookup(addr_t line_addr);
    const CacheLine* lookup(addr_t line_addr) const;
    void markFilled(std::uint64_t set);

    std::string name_;
    std::uint64_t capacity_;
    int assoc_;
    std::uint64_t lineSize_;
    int lineShift_;
    std::uint64_t numSets_;
    bool setsPow2_;
    ZeroArray<CacheLine> lines_;   ///< numSets_ * assoc_, set-major
    ZeroArray<std::uint8_t> slab_; ///< capacity_ bytes, way-major
    /** One bit per set that has ever held a line (see validLines()). */
    std::vector<std::uint64_t> filledSets_;
    std::uint64_t lruCounter_ = 0;

    OwnedStat accesses_;
    OwnedStat misses_;
    OwnedStat evictions_;
    OwnedStat invalidations_;
};

} // namespace graphite

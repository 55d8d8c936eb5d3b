/**
 * @file
 * The memory system: functional + timing model of the target cache
 * hierarchy and directory-based MSI coherence (paper §3.2).
 *
 * Functional role: maintains the single target address space. Every
 * application memory reference is redirected here; data actually lives in
 * the modeled cache lines and the backing MainMemory, so "the correct
 * operation [of the coherence protocol] is essential for the completion
 * of simulation" — the protocol is self-verifying.
 *
 * Timing role: the latency of an access is assembled from L1/L2 access
 * costs, directory access cost, network-model latencies of every
 * coherence message (requests, invalidations, recalls, data replies), and
 * DRAM controller latency including lax-compatible queueing delay.
 *
 * Concurrency: two-level locking mirrors the paper's per-home-tile MME
 * servers. A per-tile lock guards each TileMemory (L1/L2 arrays, local
 * stats, miss-classification state), so hits on lines the tile already
 * holds with sufficient permission complete without touching any shared
 * state. Per-home-tile shard locks guard the directory slice, the DRAM
 * controller, and the word-version shard homed at each tile. Reads,
 * writes, fetches and atomics all run one transaction loop: plan under
 * the tile lock, lock the shards it needs and then the requester and
 * every current holder (each set in ascending id order), revalidate,
 * and commit. Callers differ only in the hit action and in whether the
 * L1 is looked up. See DESIGN.md §"Coherence-transaction
 * serialization: the shard scheme" for the full lock order.
 *
 * Statistics follow the same partition: every counter, the latency
 * histogram and the lock-contention counts live with the tile or
 * shard whose lock guards their writes, and whole-system values are
 * summed or merged when read. The access path writes no word shared
 * by all tiles.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"
#include "mem/address_space.h"
#include "mem/cache.h"
#include "mem/directory.h"
#include "mem/dram_controller.h"
#include "mem/main_memory.h"
#include "network/network.h"
#include "obs/accuracy/accuracy.h"

namespace graphite
{

class Config;

namespace obs
{
enum class SpanKind : std::uint8_t;
} // namespace obs

namespace snapshot
{
class SnapshotWriter;
class SnapshotReader;
} // namespace snapshot

/** Kind of memory reference. */
enum class MemAccessType : std::uint8_t
{
    Read = 0,
    Write,
    Fetch ///< instruction fetch (L1I path)
};

/** Classification of an L2 miss (paper §4.4 / Woo et al.). */
enum class MissClass : std::uint8_t
{
    None = 0,     ///< not a miss / classification disabled
    Cold,         ///< first reference to the line by this tile
    Capacity,     ///< line lost to replacement
    TrueSharing,  ///< line lost to coherence; the accessed word changed
    FalseSharing, ///< line lost to coherence; only other words changed
    Upgrade       ///< write-permission miss (data was present in S)
};

/** Result of one application memory access. */
struct AccessResult
{
    cycle_t latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    MissClass missClass = MissClass::None;
};

/**
 * Per-tile memory statistics beyond the raw cache counters. Written
 * under the tile's lock, readable from any thread.
 */
struct TileMemoryStats
{
    OwnedStat totalAccesses;
    OwnedStat totalLatency;
    OwnedStat l2ColdMisses;
    OwnedStat l2CapacityMisses;
    OwnedStat l2TrueSharingMisses;
    OwnedStat l2FalseSharingMisses;
    OwnedStat l2UpgradeMisses;
    OwnedStat invalidationsSent;
    OwnedStat recalls;
    OwnedStat writebacks;
};

/**
 * Contention counters of one lock level (shard or tile), summed over
 * its instances. Host-side wall-clock artifacts, not simulated state.
 */
struct LockTotals
{
    stat_t acquisitions = 0;
    stat_t contended = 0; ///< try-lock lost a real race
    stat_t waitNs = 0;    ///< time spent blocked after losing
};

/**
 * Simulation-wide memory system. One instance owns the per-tile cache
 * hierarchies, directory slices, DRAM controllers, the backing store,
 * and the target memory manager.
 */
class MemorySystem
{
  public:
    MemorySystem(const ClusterTopology& topo, NetworkFabric& fabric,
                 const Config& cfg);
    ~MemorySystem();

    MemorySystem(const MemorySystem&) = delete;
    MemorySystem& operator=(const MemorySystem&) = delete;

    /**
     * Perform one application memory access on behalf of @p tile.
     * For reads/fetches @p buf receives the data; for writes @p buf
     * supplies it. Accesses may span line boundaries (split internally).
     *
     * Safe to call concurrently from any number of host threads; an
     * access is atomic at cache-line granularity.
     *
     * @param start_time the requesting core's clock at issue
     * @return aggregate timing and classification of the access
     */
    AccessResult access(tile_id_t tile, MemAccessType type, addr_t addr,
                        void* buf, size_t size, cycle_t start_time);

    /** Result of an atomic read-modify-write. */
    struct AtomicResult
    {
        std::uint64_t oldValue = 0;
        cycle_t latency = 0;
    };

    /**
     * Atomically apply @p op to the @p size-byte (4 or 8) integer at
     * @p addr with write semantics (line acquired Modified). The entire
     * RMW is one coherence transaction. @p op runs with the requester's
     * tile lock held and must not re-enter the memory system.
     */
    AtomicResult atomicRmw(tile_id_t tile, addr_t addr, size_t size,
                           const std::function<std::uint64_t(
                               std::uint64_t)>& op,
                           cycle_t start_time);

    /**
     * @name Untimed coherent access (syscall emulation, loaders)
     * Reads observe the newest value regardless of where it is cached;
     * writes invalidate stale cached copies first. No latency is modeled
     * (kernel accesses are outside the target's timing domain).
     * @{
     */
    void readCoherent(addr_t addr, void* buf, size_t size);
    void writeCoherent(addr_t addr, const void* buf, size_t size);
    /** @} */

    /** @name Component access (stats, tests) @{ */
    Cache* l1i(tile_id_t tile);
    Cache* l1d(tile_id_t tile);
    Cache& l2(tile_id_t tile);
    Directory& directory(tile_id_t tile);
    DramController& dram(tile_id_t tile);
    const TileMemoryStats& stats(tile_id_t tile) const;
    MemoryManager& manager() { return *manager_; }
    MainMemory& backing() { return backing_; }

    /**
     * Tile @p tile's share of the end-to-end application access-latency
     * distribution (one sample per finished line access).
     */
    const HistogramStat& accessLatencyHistogram(tile_id_t tile) const;
    /** The whole distribution: a fresh merge of every tile's share. */
    HistogramStat accessLatencyHistogram() const;
    /** @} */

    /**
     * @name Whole-system totals, summed over tiles or shards on read
     * Every hot statistic lives with the tile or shard whose lock
     * guards its writes, so the access path writes no process-wide
     * word; these read-side sums are what reports and gauges use, and
     * are safe to call while the simulation runs. The lock totals
     * count with try-lock-then-block, so "contended" means a real lost
     * race: the shard level measures the per-home shard mutexes
     * (fast-path hits never touch them), the tile level the level-1
     * tile mutexes, which every access takes.
     * @{
     */
    stat_t totalAccesses() const;
    stat_t l2Misses() const;
    stat_t writebacks() const;
    LockTotals shardLockTotals() const;
    LockTotals tileLockTotals() const;
    /** @} */

    /**
     * Hold @p tile's level-1 lock for @p ns nanoseconds from another
     * host thread, so tests can plant tile-lock contention
     * deterministically regardless of host CPU count. Sets @p held
     * (when non-null) once the lock is acquired, so the test can issue
     * the colliding access strictly inside the hold window.
     */
    void holdTileLockForTest(tile_id_t tile, std::uint64_t ns,
                             std::atomic<bool>* held = nullptr);

    /** Same, for the shard lock homed at @p tile. */
    void holdShardLockForTest(tile_id_t tile, std::uint64_t ns,
                              std::atomic<bool>* held = nullptr);

    /** Home tile of the line containing @p addr. */
    tile_id_t homeTile(addr_t addr) const;

    /** Cache line size in bytes. */
    std::uint64_t lineSize() const { return lineSize_; }

    /** Whether L2 misses are classified (mem/miss_classification). */
    bool classifiesMisses() const { return classify_; }

    /**
     * Check every coherence invariant (single writer, inclusion,
     * directory/cache agreement, data agreement for shared lines).
     * Quiesces the whole system: acquires every shard and tile lock.
     * @return empty string when consistent, else a description of the
     * first violation. For tests.
     */
    std::string validateCoherence();

    /**
     * @name Checkpoint serialization (all application threads stopped)
     * Saves the full functional+timing state: caches with target data,
     * directory slices, DRAM controllers and queue clocks, word
     * versions, miss-classification tracking, the backing store, the
     * target memory manager, and all architectural counters. Host-side
     * lock-contention counters are wall-clock artifacts and restart at
     * zero.
     * @{
     */
    void saveState(snapshot::SnapshotWriter& w);
    void loadState(snapshot::SnapshotReader& r);
    /** @} */

    /**
     * @name Fast-forward (functional-only warmup)
     * While enabled, accesses stay functionally exact but bypass the
     * timing model entirely: a line's cached copies are demoted to
     * the backing store on its first warmup touch, and from then on
     * reads/writes are plain memory copies under the home shard lock
     * — no cache, directory-protocol, network or DRAM modeling, so
     * warmup runs at near-native memory speed. Detailed simulation
     * resumes with cold caches (the documented warmup caveat: use a
     * checkpoint of a detailed run for warm-cache studies). Toggled
     * at ROI markers or a cycle threshold.
     * @{
     */
    void setFastForward(bool on)
    {
        fastForward_.store(on, std::memory_order_relaxed);
    }
    bool fastForward() const
    {
        return fastForward_.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    /** State one tile lost a line with, for miss classification. */
    struct LostLine
    {
        EvictReason reason = EvictReason::None;
        /** Per-word version snapshot at loss time. */
        std::vector<std::uint32_t> versions;
    };

    /** Contention counters of one lock, written while holding it. */
    struct LockStats
    {
        OwnedStat acquisitions;
        OwnedStat contended;
        OwnedStat waitNs;
    };

    /**
     * Everything guarded by one tile's lock. Cache-line aligned so that
     * neighbouring tiles' hot fields never share a line.
     */
    struct alignas(64) TileMemory
    {
        /** Level-1 lock: caches, stats, and classification state. */
        lockdep::OrderedMutex mutex{lockdep::LockClass::mem_tile};
        /** Beside the mutex: both are written on every acquisition. */
        LockStats lockStats;
        std::unique_ptr<Cache> l1i;
        std::unique_ptr<Cache> l1d;
        std::unique_ptr<Cache> l2;
        TileMemoryStats stats;
        /** This tile's share of the access-latency distribution. */
        HistogramStat accessLatency;
        /** Lines ever present in this tile's L2 (cold-miss tracking). */
        std::unordered_set<addr_t> everCached;
        /** How lines were lost, for coherence-miss classification. */
        std::unordered_map<addr_t, LostLine> lostLines;
    };

    /**
     * Everything homed at one tile, guarded by the level-2 shard lock:
     * the directory slice and the memory controller — the paper's MME
     * server state. Holding a line's home shard freezes the line's
     * holder set (every holder-set mutation goes through the home).
     */
    struct alignas(64) Shard
    {
        lockdep::OrderedMutex mutex{lockdep::LockClass::mem_shard};
        LockStats lockStats;
        std::unique_ptr<Directory> directory;
        std::unique_ptr<DramController> dram;
        /** Leaf lock for the word-version shard (classification). */
        lockdep::OrderedMutex versionMutex{lockdep::LockClass::mem_version};
        /** Per-line, per-word write version counters, lines homed here. */
        std::unordered_map<addr_t, std::vector<std::uint32_t>>
            wordVersions;
    };

    static constexpr size_t CTRL_BYTES = 8;
    static constexpr std::uint32_t WORD_BYTES = 4;

    addr_t lineAlign(addr_t a) const { return a & ~(lineSize_ - 1); }

    /**
     * Acquire @p owner's mutex (a TileMemory or a Shard), recording
     * contention in its lockStats once the lock is held (try-lock
     * first; only a lost race counts as contended).
     */
    template <class Owner>
    lockdep::UniqueLock lockCounted(Owner& owner,
                                    const char* file = __builtin_FILE(),
                                    int line = __builtin_LINE());

    /**
     * Model one coherence message; returns its network latency. When
     * @p bd is non-null the latency decomposition is reported through
     * it (span-stage attribution; same totals either way). @p point
     * names the protocol leg for the accuracy observatory's causality
     * check at the modeled completion time.
     */
    cycle_t msg(tile_id_t src, tile_id_t dst, size_t payload_bytes,
                cycle_t send_time, NetBreakdown* bd = nullptr,
                obs::accuracy::ViolationPoint point =
                    obs::accuracy::ViolationPoint::MemRequest);

    /** One-line access; addr..addr+size must stay within a line. */
    AccessResult accessLine(tile_id_t tile, MemAccessType type,
                            addr_t addr, void* buf, size_t size,
                            cycle_t start_time);

    /**
     * The coherence transaction every timed access runs: plan under the
     * tile lock, lock the shards and holders, revalidate, commit.
     * @p commit(std::span<std::uint8_t>) is the hit action, applied to
     * the bytes of a line held with enough permission; @p l1 is the L1
     * looked up first (nullptr to bypass it, as atomics do); @p kind
     * labels the miss span.
     */
    template <class Commit>
    AccessResult transact(tile_id_t tile, Cache* l1, bool is_write,
                          addr_t addr, size_t size, cycle_t start_time,
                          obs::SpanKind kind, Commit&& commit);

    /**
     * Fast-forward line access: demote the line to the backing store,
     * run @p op against backing with zero modeled latency (no cache,
     * directory-protocol, network or DRAM work), and count the access.
     */
    template <class Op>
    AccessResult accessBacking(tile_id_t tile, addr_t addr, Op&& op);

    /**
     * Lock @p line_addr's home shard, invalidate every cached copy
     * (merging a Modified owner's data into backing) and reset the
     * directory entry to Uncached.
     * @return the held home-shard lock.
     */
    lockdep::UniqueLock lockHomeAndDemote(addr_t line_addr);

    /** Append the line's owner and sharers to @p ids. */
    static void appendHolders(const DirectoryEntry& entry,
                              std::vector<tile_id_t>& ids);

    /** Commit stats for one finished line access. Tile lock held. */
    void finishAccess(TileMemory& tm, const AccessResult& res);

    /**
     * Acquire the line into @p tile's L2 with read or write permission,
     * running the full directory transaction. On return the L2 holds the
     * line in Shared (read) or Modified (write) state.
     *
     * Caller holds: the line's home shard, the victim's home shard when
     * an L2 eviction is pending, the requester tile lock, and every
     * current holder's tile lock.
     *
     * @param addr,size the bytes the triggering access touches (miss
     *                  classification compares exactly these words)
     * @return added latency.
     */
    cycle_t fetchLineLocked(tile_id_t tile, addr_t line_addr,
                            bool for_write, addr_t addr, size_t size,
                            cycle_t now, MissClass& miss_class);

    /**
     * Invalidate every cached copy at @p holder (L2 + L1s).
     * @return the L2 copy's bytes (still in its slab), empty if absent.
     */
    std::span<const std::uint8_t> invalidateTile(tile_id_t holder,
                                                 addr_t line_addr,
                                                 bool coherence);

    /** Handle an L2 victim: writeback + directory update (off path). */
    void handleL2Eviction(tile_id_t tile, const Eviction& ev,
                          cycle_t now);

    /** Classify an L2 data miss for @p tile (before state changes). */
    MissClass classifyMiss(tile_id_t tile, addr_t line_addr, addr_t addr,
                           size_t size);

    void recordMiss(tile_id_t tile, TileMemory& tm, MissClass mc,
                    cycle_t time);

    /** Bump per-word versions for a write of [addr, addr+size). */
    void bumpVersions(addr_t addr, size_t size);

    /** Snapshot versions for a lost line. */
    void snapshotLoss(tile_id_t tile, addr_t line_addr,
                      EvictReason reason);

    /**
     * Keep a write-through L1 in step with its L2 line after an access
     * to [@p addr, +@p size): allocate a Shared copy when absent, or
     * copy a write's bytes into the present one. @p l2data is the L2
     * line's bytes.
     */
    void refreshL1(Cache* l1, std::span<const std::uint8_t> l2data,
                   bool is_write, addr_t addr, size_t size);

    ClusterTopology topo_;
    NetworkFabric& fabric_;
    std::uint64_t lineSize_;
    cycle_t l1Latency_;
    cycle_t l2Latency_;
    cycle_t dirLatency_;
    bool classify_;
    bool mesi_ = false;
    std::atomic<bool> fastForward_{false};
    std::vector<TileMemory> tiles_;
    std::vector<Shard> shards_;
    MainMemory backing_;
    std::unique_ptr<MemoryManager> manager_;
};

} // namespace graphite

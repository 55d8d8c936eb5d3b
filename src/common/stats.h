/**
 * @file
 * Named-statistics registry: counters, gauges, and histograms.
 *
 * Models register statistics per tile under hierarchical names
 * ("tile.3.l2_cache.misses"). Three kinds are supported:
 *
 *  - counters:   plain 64-bit values owned by the registering model; the
 *    registry only stores (name -> pointer) so increments are free of
 *    any locking on the hot path.
 *  - gauges:     callbacks evaluated at read time, for values derived
 *    from model state (atomic clocks, sums over components). Gauges make
 *    interval snapshotting possible without invading every model.
 *  - histograms: power-of-two-bucketed distributions (HistogramStat)
 *    for latency-style values where a single counter hides the shape.
 *    One name may cover several parts (per-tile shards of one
 *    distribution); readers get their merge, computed at read time.
 *
 * Hot counters are sharded, not shared: each owner (a tile, a shard)
 * keeps its own OwnedStat or HistogramStat, written only under its own
 * lock, or its own ShardedCounters block when writers share no lock,
 * and readers sum or merge the parts. Aggregation helpers sum
 * statistics across tiles at reporting time; snapshot() flattens
 * everything to (name, value) pairs for the obs-layer interval sampler.
 */

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>
#include "common/lockdep.h"

namespace graphite
{

namespace snapshot
{
class SnapshotWriter;
class SnapshotReader;
} // namespace snapshot

/** One statistic: a 64-bit counter with atomic-free single-writer usage. */
using stat_t = std::uint64_t;

/**
 * A shared statistic: incremented (relaxed) by concurrent writers,
 * readable at any time without tearing. Used for aggregates that many
 * application threads bump from the memory-system hot path.
 */
using atomic_stat_t = std::atomic<stat_t>;

/**
 * Add @p n to a counter that one thread writes at a time (its owner's
 * lock held) while any thread may read it: a relaxed load and store,
 * not a locked read-modify-write, so it costs what a plain add does and
 * readers never see a torn value.
 */
inline void
addOwned(atomic_stat_t& c, stat_t n)
{
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

/** A counter updated with addOwned: one writer, any reader. */
class OwnedStat
{
  public:
    OwnedStat& operator+=(stat_t n)
    {
        addOwned(v_, n);
        return *this;
    }
    OwnedStat& operator++() { return *this += 1; }
    OwnedStat& operator=(stat_t v)
    {
        v_.store(v, std::memory_order_relaxed);
        return *this;
    }
    operator stat_t() const { return v_.load(std::memory_order_relaxed); }

  private:
    atomic_stat_t v_{0};
};

/**
 * @p N counters kept once per shard (a source tile), each shard's block
 * on its own cache line: writers on different shards never share a
 * line, and readers sum the shards. For counters several threads may
 * bump for one shard at once (so add() is a relaxed fetch_add), where
 * OwnedStat's single-writer rule does not hold.
 */
template <std::size_t N>
class ShardedCounters
{
  public:
    explicit ShardedCounters(std::size_t shards)
        : blocks_(std::max<std::size_t>(shards, 1))
    {
    }

    void
    add(std::size_t shard, std::size_t i, stat_t n)
    {
        blocks_[shard].v[i].fetch_add(n, std::memory_order_relaxed);
    }

    /** Counter @p i summed over all shards. */
    stat_t
    sum(std::size_t i) const
    {
        stat_t total = 0;
        for (const Block& b : blocks_)
            total += b.v[i].load(std::memory_order_relaxed);
        return total;
    }

    /**
     * Set counter @p i's total (snapshot restore): shard 0 takes it and
     * the others are zeroed. Not concurrent with add().
     */
    void
    assign(std::size_t i, stat_t total)
    {
        for (Block& b : blocks_)
            b.v[i].store(0, std::memory_order_relaxed);
        blocks_[0].v[i].store(total, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Block
    {
        std::array<atomic_stat_t, N> v{};
    };
    std::vector<Block> blocks_;
};

/** A gauge: evaluated at read time. Must be safe to call concurrently. */
using gauge_fn = std::function<stat_t()>;

/**
 * Power-of-two-bucketed histogram of 64-bit samples.
 *
 * Thread-safe: record() may be called from any number of threads
 * concurrently (relaxed atomics); readers tolerate slightly stale
 * values. Bucket i counts samples whose value has bit-width i, i.e.
 * v in [2^(i-1), 2^i) for i >= 1 and v == 0 for bucket 0.
 */
class HistogramStat
{
  public:
    static constexpr int NUM_BUCKETS = 65; ///< bit widths 0..64

    HistogramStat() = default;
    /** A copy is a relaxed snapshot of @p other. */
    HistogramStat(const HistogramStat& other) { merge(other); }

    /** Record one sample. Safe to call from multiple threads. */
    void record(stat_t value);

    /**
     * Record one sample into a histogram that only the caller writes
     * (its owner's lock held), with addOwned: no locked
     * read-modify-write, and readers stay race-free.
     */
    void recordOwned(stat_t value)
    {
        addOwned(buckets_[std::bit_width(value)], 1);
        addOwned(count_, 1);
        addOwned(sum_, value);
        if (value < min_.load(std::memory_order_relaxed))
            min_.store(value, std::memory_order_relaxed);
        if (value > max_.load(std::memory_order_relaxed))
            max_.store(value, std::memory_order_relaxed);
    }

    /**
     * Add @p other's samples to this one: counts, sums and buckets
     * add, min and max combine. Only the caller writes this histogram
     * meanwhile; @p other may be recording.
     */
    void merge(const HistogramStat& other);

    /** @name Summary statistics @{ */
    stat_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    stat_t sum() const { return sum_.load(std::memory_order_relaxed); }
    stat_t min() const
    {
        return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
    }
    stat_t max() const { return max_.load(std::memory_order_relaxed); }
    double mean() const;
    /** @} */

    /** Count of samples in bucket @p i (bit-width i). */
    stat_t bucket(int i) const;

    /**
     * Approximate @p p quantile (0..1): the upper bound of the bucket
     * containing the p-th sample. Exact to within a factor of 2.
     */
    stat_t percentileApprox(double p) const;

    /** One-line summary for reports. */
    std::string summary() const;

    /** Zero everything. Not safe concurrently with record(). */
    void reset();

    /** @name Checkpoint serialization (not concurrent with record) @{ */
    void saveState(snapshot::SnapshotWriter& w) const;
    void loadState(snapshot::SnapshotReader& r);
    /** @} */

  private:
    std::array<atomic_stat_t, NUM_BUCKETS> buckets_{};
    atomic_stat_t count_{0};
    atomic_stat_t sum_{0};
    atomic_stat_t min_{~stat_t{0}};
    atomic_stat_t max_{0};
};

/** How aggregation helpers treat an empty match set. */
enum class MatchMode
{
    Lenient, ///< no matching statistic -> 0
    Strict   ///< no matching statistic -> fatal (catches renamed stats)
};

/**
 * Registry of named statistics.
 *
 * Thread-safety: registration is mutex-protected (cold path); reads used
 * for reporting take the same mutex. Counter increments touch only the
 * owner's memory. Gauge callbacks are invoked with the registry mutex
 * held and must not call back into the registry. A histogram is read
 * as a fresh merge of its parts, so no reader holds a view that can
 * go stale.
 */
class StatsRegistry
{
  public:
    /**
     * Register a counter. The pointed-to storage must outlive the
     * registry or be unregistered via clear().
     */
    void registerCounter(const std::string& name, const stat_t* counter);

    /**
     * Register a shared (atomic) counter: incremented concurrently by
     * many threads, read race-free at snapshot time. Same lifetime
     * contract as the plain-counter overload.
     */
    void registerCounter(const std::string& name,
                         const atomic_stat_t* counter);

    /** Register a gauge evaluated at each read. */
    void registerGauge(const std::string& name, gauge_fn fn);

    /**
     * Register a histogram made of one or more @p parts (e.g. one per
     * tile), merged whenever it is read. Its ".count" and ".sum"
     * projections appear in snapshot() so interval samplers can delta
     * them. The parts must outlive the registration.
     */
    void registerHistogram(const std::string& name,
                           std::vector<const HistogramStat*> parts);

    /** @return value of a named counter or gauge; fatal if unknown. */
    stat_t get(const std::string& name) const;

    /** @return true if a statistic of any kind exists under the name. */
    bool has(const std::string& name) const;

    /** @return the merge of a registered histogram's parts, or nullopt. */
    std::optional<HistogramStat> histogram(const std::string& name) const;

    /**
     * Sum all counters/gauges whose name matches "prefix<id>suffix" over
     * ids — e.g. sumMatching("tile.", ".l2.misses") adds
     * tile.0.l2.misses, tile.1.l2.misses, ...
     *
     * With MatchMode::Lenient (the default) an empty match set sums to
     * zero — convenient for optional components, but silent when a stat
     * was renamed. MatchMode::Strict makes an empty match set fatal.
     */
    stat_t sumMatching(const std::string& prefix,
                       const std::string& suffix,
                       MatchMode mode = MatchMode::Lenient) const;

    /** All registered names (all kinds), sorted. */
    std::vector<std::string> names() const;

    /** Names of registered histograms, sorted (Prometheus export). */
    std::vector<std::string> histogramNames() const;

    /**
     * Flatten counters, gauges, and histogram count/sum projections to
     * sorted (name, value) pairs — the interval sampler's input.
     */
    std::vector<std::pair<std::string, stat_t>> snapshot() const;

    /** Render "name = value" lines for every statistic. */
    std::string dump() const;

    /** Drop all registrations. */
    void clear();

  private:
    void checkNewName(const std::string& name) const;

    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::stats_registry};
    std::map<std::string, const stat_t*> counters_;
    std::map<std::string, const atomic_stat_t*> atomicCounters_;
    std::map<std::string, gauge_fn> gauges_;
    std::map<std::string, std::vector<const HistogramStat*>> histograms_;
};

} // namespace graphite

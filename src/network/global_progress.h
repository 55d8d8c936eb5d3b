/**
 * @file
 * Windowed estimate of global simulation progress (paper §3.6.1).
 *
 * Under lax synchronization there is no global cycle count, yet shared
 * resources (DRAM controllers, mesh links) need a notion of "now" to model
 * queueing — especially on tiles with no active thread, whose local clocks
 * never advance. Graphite's solution: "packet time-stamps [are used] to
 * build an approximation of global progress. A window of the most
 * recently-seen time-stamps is kept, on the order of the number of tiles
 * in the simulation. The average of these time stamps gives an
 * approximation of global progress."
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"

namespace graphite
{

namespace snapshot
{
class SnapshotWriter;
class SnapshotReader;
} // namespace snapshot

/**
 * Sliding-window average of recently observed message timestamps.
 * Thread-safe; observe() is called once per modeled message and hands
 * back the estimate the message's queues clamp against, so a packet
 * takes this lock exactly once however many links it crosses.
 */
class GlobalProgress
{
  public:
    /** @param window_size number of samples retained (>= 1). */
    explicit GlobalProgress(size_t window_size);

    /**
     * Record a message timestamp.
     * @return the estimate including it: the mean of the window after
     *         the sample went in, read under the same lock.
     */
    cycle_t observe(cycle_t timestamp);

    /**
     * @return current estimate of global progress, or nothing before
     *         the first sample (a queue then trusts raw arrivals).
     */
    std::optional<cycle_t> estimate() const;

    /** @name Checkpoint serialization @{ */
    void saveState(snapshot::SnapshotWriter& w) const;
    void loadState(snapshot::SnapshotReader& r);
    /** @} */

  private:
    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::global_progress};
    std::vector<cycle_t> window_;
    size_t next_ = 0;
    size_t count_ = 0;
    /** Running sum of the samples currently in the window. */
    unsigned __int128 sum_ = 0;
};

} // namespace graphite

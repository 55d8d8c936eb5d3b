/**
 * @file
 * Network component: shared fabric (models + accounting) and per-tile
 * endpoints (paper §3.3).
 *
 * "The network provides common functionality, such as the bundling of
 * packets, multiplexing of messages, high-level interface to the rest of
 * the system, and internal interface to the transport layer."
 *
 * Functionality/modeling split:
 *  - NetworkFabric owns one NetworkModel per packet type (selected by
 *    config), the global-progress estimator, and traffic accounting used
 *    by the host model. Timing for *any* message — whether or not it is
 *    physically transported — goes through NetworkFabric::model().
 *  - Network is a tile's endpoint: it physically sends/receives packets
 *    over the transport and demultiplexes arrivals by packet type.
 *    "Regardless of the time-stamp of a packet, the network forwards
 *    messages immediately and delivers them in the order they are
 *    received" — lax semantics.
 */

#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/zero_array.h"
#include "network/global_progress.h"
#include "network/net_packet.h"
#include "network/network_model.h"
#include "transport/transport.h"

namespace graphite
{

class Config;

namespace snapshot
{
class SnapshotWriter;
class SnapshotReader;
} // namespace snapshot

/**
 * Simulation-wide network state: the swappable models and the traffic
 * accounting consumed by the host cluster model.
 */
class NetworkFabric
{
  public:
    /**
     * Build models from config keys network/app_model,
     * network/memory_model, network/system_model.
     */
    NetworkFabric(const ClusterTopology& topo, const Config& cfg);

    /**
     * Model one message and account for it.
     * @return modeled network latency in cycles.
     */
    cycle_t model(PacketType type, tile_id_t src, tile_id_t dst,
                  size_t bytes, cycle_t send_time);

    /**
     * Like model() but reporting the latency decomposition (the span
     * engine's attribution input). Identical accounting and totals.
     */
    NetBreakdown modelEx(PacketType type, tile_id_t src, tile_id_t dst,
                         size_t bytes, cycle_t send_time);

    /**
     * @name In-flight application packets
     * Sent via a tile endpoint but not yet pulled off the transport
     * by the receiver. Sampled as the net.inflight_packets gauge so
     * span queueing attribution can be cross-checked coarsely.
     * @{
     */
    void noteAppSend() { inflightApp_.fetch_add(1, std::memory_order_relaxed); }
    void noteAppDelivered() { inflightApp_.fetch_sub(1, std::memory_order_relaxed); }
    stat_t
    inflightAppPackets() const
    {
        std::int64_t v = inflightApp_.load(std::memory_order_relaxed);
        return v > 0 ? static_cast<stat_t>(v) : 0;
    }
    /** @} */

    /** The model serving @p type (for stats inspection). */
    NetworkModel& modelFor(PacketType type);
    const NetworkModel& modelFor(PacketType type) const;

    GlobalProgress& progress() { return progress_; }
    const ClusterTopology& topology() const { return topo_; }

    /** @name Locality accounting per packet type (host model input). @{ */
    stat_t intraProcessMessages(PacketType type) const;
    stat_t interProcessMessages(PacketType type) const;
    stat_t intraProcessBytes(PacketType type) const;
    stat_t interProcessBytes(PacketType type) const;
    /** @} */

    /**
     * @name Tile-pair traffic matrix
     * Message/byte counts per (src, dst) tile pair across App + Memory
     * traffic. The host cluster model uses this to recompute message
     * locality for *hypothetical* process/machine layouts (the
     * functional run's striping need not match the modeled one).
     * Enabled by config network/record_traffic_matrix (default true).
     * @{
     */
    bool trafficMatrixEnabled() const { return !msgMatrix_.empty(); }
    stat_t pairMessages(tile_id_t src, tile_id_t dst) const;
    stat_t pairBytes(tile_id_t src, tile_id_t dst) const;
    /** @} */

    /** @name Checkpoint serialization (at quiescence only) @{ */
    void saveState(snapshot::SnapshotWriter& w) const;
    void loadState(snapshot::SnapshotReader& r);
    /** @} */

  private:
    /** Locality counters of one packet type, at 4 * type + kind. */
    enum Locality : std::size_t
    {
        INTRA_MSGS,
        INTER_MSGS,
        INTRA_BYTES,
        INTER_BYTES,
        NUM_LOCALITY
    };
    static std::size_t
    localityIndex(PacketType type, Locality kind)
    {
        return static_cast<std::size_t>(type) * NUM_LOCALITY + kind;
    }

    /** Traffic-matrix entry (src, dst), viewed atomically. */
    std::atomic_ref<stat_t>
    cell(const ZeroArray<stat_t>& m, tile_id_t src, tile_id_t dst) const
    {
        // The pages are always writable; const only marks the readers.
        return std::atomic_ref<stat_t>(const_cast<stat_t&>(
            m[static_cast<std::size_t>(src) * topo_.totalTiles() + dst]));
    }

    ClusterTopology topo_;
    GlobalProgress progress_;
    std::atomic<std::int64_t> inflightApp_{0};
    std::array<std::unique_ptr<NetworkModel>, NUM_PACKET_TYPES> models_;
    /** Sharded by source tile. */
    ShardedCounters<NUM_LOCALITY * NUM_PACKET_TYPES> locality_;
    /**
     * N*N counters, src-major, updated through std::atomic_ref; empty
     * when recording is disabled. Zero-on-demand pages, so only the
     * rows of tiles that send cost memory.
     */
    ZeroArray<stat_t> msgMatrix_;
    ZeroArray<stat_t> byteMatrix_;
};

/**
 * A tile's network endpoint. One logical receiver (the tile's thread);
 * any thread may send.
 */
class Network
{
  public:
    Network(tile_id_t tile, NetworkFabric& fabric, Transport& transport);

    /**
     * Model, stamp, and physically send a packet. The packet's arrival
     * time is send_time + modeled latency.
     */
    void send(PacketType type, tile_id_t dst,
              std::vector<std::uint8_t> payload, cycle_t send_time);

    /**
     * Blocking receive of the next packet of @p type. Packets of other
     * types arriving meanwhile are queued for their own receivers.
     */
    NetPacket recv(PacketType type);

    /** Non-blocking variant of recv(). */
    bool tryRecv(PacketType type, NetPacket& out);

    tile_id_t tileId() const { return tile_; }
    NetworkFabric& fabric() { return fabric_; }

  private:
    bool popPending(PacketType type, NetPacket& out);

    tile_id_t tile_;
    NetworkFabric& fabric_;
    Transport& transport_;
    /** Per-type stash for packets received while waiting on another type. */
    lockdep::OrderedMutex stashMutex_{lockdep::LockClass::network_stash};
    std::array<std::deque<NetPacket>, NUM_PACKET_TYPES> stash_;
};

} // namespace graphite

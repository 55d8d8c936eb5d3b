/**
 * @file
 * Unit tests for the network component: packet serialization, global
 * progress, the lax-compatible queue model, mesh geometry, the three
 * network models, and the fabric/endpoint layer.
 */

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "network/global_progress.h"
#include "network/network.h"
#include "network/network_model.h"
#include "network/queue_model.h"

namespace graphite
{
namespace
{

/** splitmix64: a fixed, platform-independent script generator. */
struct ScriptRng
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/** FNV-1a over 64-bit words: folds a result sequence into one golden. */
struct Fnv64
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

// -------------------------------------------------------------- NetPacket

TEST(NetPacket, SerializeRoundTrip)
{
    NetPacket pkt;
    pkt.type = PacketType::Memory;
    pkt.sender = 3;
    pkt.receiver = 7;
    pkt.time = 123456789ull;
    pkt.payload = {1, 2, 3, 4, 5};
    NetPacket back = NetPacket::deserialize(pkt.serialize());
    EXPECT_EQ(back.type, PacketType::Memory);
    EXPECT_EQ(back.sender, 3);
    EXPECT_EQ(back.receiver, 7);
    EXPECT_EQ(back.time, 123456789ull);
    EXPECT_EQ(back.payload, pkt.payload);
}

TEST(NetPacket, EmptyPayloadRoundTrip)
{
    NetPacket pkt;
    pkt.type = PacketType::System;
    NetPacket back = NetPacket::deserialize(pkt.serialize());
    EXPECT_TRUE(back.payload.empty());
    EXPECT_EQ(back.modeledBytes(), NetPacket::HEADER_BYTES);
}

// --------------------------------------------------------- GlobalProgress

TEST(GlobalProgress, AveragesWindow)
{
    GlobalProgress gp(4);
    EXPECT_FALSE(gp.estimate().has_value());
    EXPECT_EQ(gp.observe(100), 100u);
    EXPECT_EQ(gp.observe(200), 150u);
    EXPECT_EQ(gp.estimate(), std::optional<cycle_t>(150));
}

TEST(GlobalProgress, OldSamplesAgeOut)
{
    GlobalProgress gp(2);
    gp.observe(10);
    gp.observe(20);
    EXPECT_EQ(gp.observe(30), 25u); // evicts 10
    EXPECT_EQ(gp.estimate(), std::optional<cycle_t>(25));
}

TEST(GlobalProgress, ObserveReturnsWhatEstimateReadsAfterIt)
{
    // observe() hands back the window mean under its own lock; it must
    // equal the separate observe-then-estimate() reading, and both must
    // equal a reference mean, across window wraps and near the top of
    // the u64 range, where the window sum needs more than 64 bits.
    const cycle_t TOP = ~cycle_t{0};
    std::vector<cycle_t> script;
    for (cycle_t i = 0; i < 12; ++i)
        script.push_back(1000 + 37 * i);
    for (cycle_t i = 0; i < 12; ++i)
        script.push_back(TOP - 3 * i); // window sum far above 2^64
    for (cycle_t i = 0; i < 12; ++i)
        script.push_back(i % 2 ? TOP - i : i); // mixed extremes
    for (cycle_t i = 0; i < 12; ++i)
        script.push_back(500 + i);

    GlobalProgress returning(5);
    GlobalProgress reading(5);
    std::deque<cycle_t> window;
    for (cycle_t ts : script) {
        window.push_back(ts);
        if (window.size() > 5)
            window.pop_front();
        unsigned __int128 sum = 0;
        for (cycle_t w : window)
            sum += w;
        auto want = static_cast<cycle_t>(sum / window.size());

        EXPECT_EQ(returning.observe(ts), want) << "timestamp " << ts;
        reading.observe(ts);
        EXPECT_EQ(reading.estimate(), std::optional<cycle_t>(want));
    }
}

TEST(GlobalProgress, LargeWindowResistsOutliers)
{
    // Paper §3.6.1: "The large window is necessary to eliminate
    // outliers from overly influencing the result."
    GlobalProgress gp(100);
    for (int i = 0; i < 99; ++i)
        gp.observe(1000);
    gp.observe(1000000); // one outlier
    EXPECT_LT(gp.estimate(), 12000u);
}

// -------------------------------------------------------------- QueueModel

TEST(QueueModel, NoDelayWhenIdle)
{
    QueueModel q;
    EXPECT_EQ(q.enqueue(100, 10), 0u);
    EXPECT_EQ(q.queueClock(), 110u);
}

TEST(QueueModel, BackToBackPacketsQueue)
{
    // Paper §3.6.1: delay is the difference between the queue clock and
    // the arrival; the queue clock advances by the processing time.
    QueueModel q;
    EXPECT_EQ(q.enqueue(100, 10), 0u);
    EXPECT_EQ(q.enqueue(100, 10), 10u);
    EXPECT_EQ(q.enqueue(100, 10), 20u);
    EXPECT_EQ(q.totalQueueDelay(), 30u);
    EXPECT_EQ(q.totalRequests(), 3u);
}

TEST(QueueModel, IdleGapDrainsQueue)
{
    QueueModel q;
    q.enqueue(0, 10);
    EXPECT_EQ(q.enqueue(1000, 10), 0u); // long gap: no backlog
}

TEST(QueueModel, OutlierArrivalsClampToProgress)
{
    QueueModel q(/*outlier_window=*/1000);
    // Arrival absurdly in the past is clamped near the reference clock.
    q.enqueue(5, 10, cycle_t{1000000});
    EXPECT_GE(q.queueClock(), 999000u);
}

TEST(QueueModel, BacklogIsBounded)
{
    // Finite-buffer back-pressure: a dense burst cannot grow the delay
    // without bound (the saturation-spiral guard).
    QueueModel q(100000, /*max_backlog=*/500);
    for (int i = 0; i < 1000; ++i)
        q.enqueue(0, 100);
    EXPECT_LE(q.enqueue(0, 100), 600u);
    EXPECT_GT(q.saturations(), 0u);
}

TEST(QueueModel, EmptyHistoryWindowTrustsArrivals)
{
    // A progress estimator with no samples yet must not clamp: before
    // any thread reports, the raw arrival timestamp is the only truth.
    GlobalProgress gp(4);
    QueueModel q(/*outlier_window=*/10);
    EXPECT_EQ(q.enqueue(5000000, 10, gp.estimate()), 0u);
    EXPECT_EQ(q.queueClock(), 5000010u);
    EXPECT_EQ(q.clampedArrivals(), 0u);
}

TEST(QueueModel, CycleWraparoundSaturates)
{
    // Arrivals near the top of the u64 cycle range: the queue clock and
    // the backlog bound must saturate instead of wrapping to small
    // values (which would read as a huge spurious backlog or none).
    const cycle_t NEAR_MAX = ~cycle_t{0} - 50;
    QueueModel q(100000, 10000);
    EXPECT_EQ(q.enqueue(NEAR_MAX, 200), 0u);
    EXPECT_EQ(q.queueClock(), ~cycle_t{0});
    // A later arrival sees a small, sane delay, not wrapped garbage.
    EXPECT_EQ(q.enqueue(NEAR_MAX + 10, 1), 40u);
    EXPECT_EQ(q.queueClock(), ~cycle_t{0});
}

TEST(QueueModel, WraparoundProgressEstimateSaturatesClampWindow)
{
    GlobalProgress gp(2);
    gp.observe(~cycle_t{0} - 5);
    cycle_t now = gp.observe(~cycle_t{0} - 5);
    QueueModel q(/*outlier_window=*/1000);
    // hi = estimate + window saturates; an arrival at the very top is
    // inside the window and must pass through unclamped.
    q.enqueue(~cycle_t{0} - 2, 1, now);
    EXPECT_EQ(q.clampedArrivals(), 0u);
}

TEST(QueueModel, CallerClockReproducesGoldenScript)
{
    // A fixed script of arrivals (bursts, far-behind and far-ahead
    // outliers) against a progress window that gets its first sample
    // only at step 20. The golden values were recorded when the queue
    // read the estimate itself; handing it the caller's reading must
    // give the same delays, clamp and saturation counts.
    GlobalProgress gp(8);
    QueueModel q(/*outlier_window=*/500, /*max_backlog=*/200);
    ScriptRng rng{7};
    cycle_t base = 10000;
    Fnv64 delays;
    for (int i = 0; i < 400; ++i) {
        std::optional<cycle_t> now = gp.estimate();
        if (i >= 20 && rng.next() % 4 != 0)
            now = gp.observe(base + rng.next() % 400);
        std::uint64_t kind = rng.next() % 16;
        cycle_t arrival = base + rng.next() % 100;
        if (kind == 0)
            arrival = base - 5000;
        else if (kind == 1)
            arrival = base + 50000;
        cycle_t service = 1 + rng.next() % 40;
        delays.add(q.enqueue(arrival, service, now));
        if (i == 19) { // no samples yet: nothing may have been clamped
            EXPECT_EQ(q.clampedArrivals(), 0u);
        }
        base += rng.next() % 30;
    }
    EXPECT_EQ(delays.h, 0x1b8a01cf308a80fbull);
    EXPECT_EQ(q.totalQueueDelay(), 41606u);
    EXPECT_EQ(q.clampedArrivals(), 33u);
    EXPECT_EQ(q.saturations(), 97u);
    EXPECT_EQ(q.queueClock(), 16130u);
    EXPECT_EQ(q.totalRequests(), 400u);
}

// --------------------------------------------------------------- MeshShape

TEST(MeshShape, NearSquareDimensions)
{
    MeshShape m16(16);
    EXPECT_EQ(m16.width(), 4);
    EXPECT_EQ(m16.height(), 4);
    MeshShape m10(10);
    EXPECT_EQ(m10.width(), 4);
    EXPECT_EQ(m10.height(), 3);
    MeshShape m1(1);
    EXPECT_EQ(m1.width(), 1);
}

TEST(MeshShape, ManhattanHops)
{
    MeshShape m(16); // 4x4
    EXPECT_EQ(m.hops(0, 0), 0);
    EXPECT_EQ(m.hops(0, 3), 3);
    EXPECT_EQ(m.hops(0, 15), 6);
    EXPECT_EQ(m.hops(5, 6), 1);
}

/** The XY route as a list, built the straightforward way. */
std::vector<int>
referenceRoute(const MeshShape& m, tile_id_t src, tile_id_t dst)
{
    std::vector<int> links;
    int x = m.xOf(src), y = m.yOf(src);
    const int dx = m.xOf(dst), dy = m.yOf(dst);
    while (x != dx) {
        links.push_back((y * m.width() + x) * 4 + ((dx > x) ? 0 : 1));
        x += (dx > x) ? 1 : -1;
    }
    while (y != dy) {
        links.push_back((y * m.width() + x) * 4 + ((dy > y) ? 3 : 2));
        y += (dy > y) ? 1 : -1;
    }
    return links;
}

TEST(MeshShape, RouteWalkMatchesReferenceForEveryPair)
{
    for (tile_id_t tiles : {10, 16, 64, 1024}) {
        MeshShape m(tiles);
        std::vector<int> walked;
        for (tile_id_t s = 0; s < tiles; ++s) {
            for (tile_id_t d = 0; d < tiles; ++d) {
                walked.clear();
                m.forEachLink(s, d, [&](int l) { walked.push_back(l); });
                if (walked != referenceRoute(m, s, d) ||
                    static_cast<int>(walked.size()) != m.hops(s, d)) {
                    ADD_FAILURE() << tiles << " tiles: route " << s
                                  << " -> " << d << " differs";
                    return;
                }
            }
        }
    }
}

// ----------------------------------------------------------- NetworkModels

TEST(NetworkModel, MagicIsFree)
{
    MagicNetworkModel magic(16);
    EXPECT_EQ(magic.computeLatency(0, 5, 100, 42), 0u);
    EXPECT_EQ(magic.packetsRouted(), 1u);
}

TEST(NetworkModel, HopModelScalesWithDistance)
{
    EMeshHopNetworkModel model(16, /*hop=*/2, /*bw=*/8);
    cycle_t near = model.computeLatency(0, 1, 64, 0);
    cycle_t far = model.computeLatency(0, 15, 64, 0);
    EXPECT_EQ(near, 2u + 8u);  // 1 hop + 64/8 serialization
    EXPECT_EQ(far, 12u + 8u);  // 6 hops
    EXPECT_GT(far, near);
}

TEST(NetworkModel, ContentionAddsUnderLoad)
{
    GlobalProgress gp(64);
    EMeshContentionNetworkModel model(16, 2, 8, &gp);
    // Same route, same time: later packets see queueing delay.
    cycle_t first = model.computeLatency(0, 3, 64, 1000);
    cycle_t burst = first;
    for (int i = 0; i < 20; ++i)
        burst = model.computeLatency(0, 3, 64, 1000);
    EXPECT_GT(burst, first);
    EXPECT_GT(model.totalContentionDelay(), 0u);
}

TEST(NetworkModel, ContentionGoldenSequence)
{
    // 1,000 packets on an 8x8 mesh: a hot destination, header-only and
    // line-sized packets, and send times far ahead of and behind the
    // window. The golden was recorded when every link read the global
    // progress estimate itself; reading it once at injection must not
    // move a single latency.
    GlobalProgress gp(64);
    EMeshContentionNetworkModel model(64, 2, 8, &gp,
                                      /*outlier_window=*/3000,
                                      /*max_backlog=*/400);
    ScriptRng rng{42};
    cycle_t t = 1000;
    Fnv64 seq;
    stat_t sum_total = 0, sum_queue = 0;
    for (int i = 0; i < 1000; ++i) {
        auto src = static_cast<tile_id_t>(rng.next() % 64);
        auto dst = static_cast<tile_id_t>(rng.next() % 64);
        if (rng.next() % 3 == 0)
            dst = 27;
        size_t bytes = rng.next() % 2 ? 72 : 8;
        cycle_t send = t + rng.next() % 200;
        std::uint64_t kind = rng.next() % 25;
        if (kind == 0)
            send = t + 20000;
        else if (kind == 1)
            send = t / 2;
        t += rng.next() % 50;
        NetBreakdown bd = model.computeLatencyEx(src, dst, bytes, send);
        ASSERT_EQ(bd.total, bd.hop + bd.queue + bd.serialization);
        seq.add(bd.total);
        seq.add(bd.queue);
        seq.add(bd.hop);
        seq.add(bd.serialization);
        seq.add(static_cast<std::uint64_t>(bd.hops));
        sum_total += bd.total;
        sum_queue += bd.queue;
    }
    EXPECT_EQ(seq.h, 0x2aa5c0014e3ea3bfull);
    EXPECT_EQ(sum_total, 182966u);
    EXPECT_EQ(sum_queue, 168176u);
    EXPECT_EQ(model.totalContentionDelay(), 168176u);
    EXPECT_EQ(model.totalLatency(), 182966u);
    EXPECT_EQ(model.totalHops(), 4839u);
    EXPECT_EQ(model.packetsRouted(), 1000u);
}

TEST(NetworkModel, FactoryRejectsUnknownType)
{
    Config cfg;
    EXPECT_THROW(NetworkModel::create("bogus", 4, cfg, nullptr),
                 FatalError);
}

// ------------------------------------------------------- Fabric + Network

TEST(NetworkFabric, SelectsModelsPerPacketType)
{
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(16, 2);
    NetworkFabric fabric(topo, cfg);
    EXPECT_EQ(fabric.modelFor(PacketType::System).name(), "magic");
    EXPECT_EQ(fabric.modelFor(PacketType::Memory).name(),
              "emesh_contention");
    EXPECT_EQ(fabric.modelFor(PacketType::App).name(),
              "emesh_contention");
}

TEST(NetworkFabric, AccountsLocalityAndMatrix)
{
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(4, 2);
    NetworkFabric fabric(topo, cfg);
    fabric.model(PacketType::Memory, 0, 2, 80, 10); // same proc
    fabric.model(PacketType::Memory, 0, 1, 80, 10); // cross proc
    EXPECT_EQ(fabric.intraProcessMessages(PacketType::Memory), 1u);
    EXPECT_EQ(fabric.interProcessMessages(PacketType::Memory), 1u);
    EXPECT_EQ(fabric.pairMessages(0, 2), 1u);
    EXPECT_EQ(fabric.pairBytes(0, 1), 80u);
    EXPECT_EQ(fabric.pairMessages(1, 0), 0u);
}

TEST(Network, SendRecvAcrossEndpoints)
{
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(4, 1);
    InProcessTransport transport(topo);
    NetworkFabric fabric(topo, cfg);
    Network n0(0, fabric, transport);
    Network n1(1, fabric, transport);

    n0.send(PacketType::App, 1, {7, 8}, /*send_time=*/100);
    NetPacket pkt = n1.recv(PacketType::App);
    EXPECT_EQ(pkt.sender, 0);
    EXPECT_EQ(pkt.payload.size(), 2u);
    // Arrival time = send time + modeled latency (> 0 on a mesh).
    EXPECT_GT(pkt.time, 100u);
}

TEST(Network, DemultiplexesByType)
{
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(2, 1);
    InProcessTransport transport(topo);
    NetworkFabric fabric(topo, cfg);
    Network n0(0, fabric, transport);
    Network n1(1, fabric, transport);

    n0.send(PacketType::System, 1, {1}, 0);
    n0.send(PacketType::App, 1, {2}, 0);
    // Requesting App first must stash the System packet, not drop it.
    NetPacket app = n1.recv(PacketType::App);
    EXPECT_EQ(app.payload[0], 2);
    NetPacket sys;
    EXPECT_TRUE(n1.tryRecv(PacketType::System, sys));
    EXPECT_EQ(sys.payload[0], 1);
}

} // namespace
} // namespace graphite

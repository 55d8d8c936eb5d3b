#include "common/lockdep.h"
#include "network/network.h"

#include <algorithm>

#include "check/fault.h"
#include "common/config.h"
#include "common/log.h"
#include "common/strfmt.h"
#include "obs/accuracy/accuracy.h"
#include "obs/span/span.h"
#include "snapshot/snapshot.h"
#include "obs/span/span_sink.h"
#include "obs/trace_event.h"

namespace graphite
{

namespace
{

/** Map a packet type onto its accuracy-observatory violation point. */
obs::accuracy::ViolationPoint
recvPoint(PacketType type)
{
    switch (type) {
      case PacketType::App: return obs::accuracy::ViolationPoint::NetApp;
      case PacketType::Memory:
        return obs::accuracy::ViolationPoint::NetMemory;
      default: return obs::accuracy::ViolationPoint::NetSystem;
    }
}

/**
 * Causality check at the delivery demux: a packet whose timestamp is
 * already in the receiving tile's past is a lax-sync violation. Pure
 * observation — reads clocks, bumps observatory atomics, never touches
 * the packet (see DESIGN.md "Accuracy observatory").
 */
void
observeDelivery(const NetPacket& pkt, tile_id_t receiver)
{
    if (!obs::accuracy::AccuracyObservatory::armed())
        return;
    if (pkt.sender == INVALID_TILE_ID)
        return; // transport shutdown marker, not a modeled event
    obs::accuracy::AccuracyObservatory::instance().onDelivery(
        recvPoint(pkt.type), pkt.sender, receiver, pkt.time);
}

} // namespace

// ------------------------------------------------------------ NetworkFabric

NetworkFabric::NetworkFabric(const ClusterTopology& topo,
                             const Config& cfg)
    : topo_(topo),
      progress_(std::max<size_t>(
          cfg.getInt("network/queue_model_window", 64),
          static_cast<size_t>(topo.totalTiles()))),
      locality_(static_cast<std::size_t>(topo.totalTiles()))
{
    auto make = [&](const char* key, const char* dflt) {
        return NetworkModel::create(cfg.getString(key, dflt),
                                    topo_.totalTiles(), cfg, &progress_);
    };
    models_[static_cast<int>(PacketType::App)] =
        make("network/app_model", "emesh_contention");
    models_[static_cast<int>(PacketType::Memory)] =
        make("network/memory_model", "emesh_contention");
    models_[static_cast<int>(PacketType::System)] =
        make("network/system_model", "magic");

    if (cfg.getBool("network/record_traffic_matrix", true)) {
        size_t n = static_cast<size_t>(topo_.totalTiles()) *
                   static_cast<size_t>(topo_.totalTiles());
        msgMatrix_ = ZeroArray<stat_t>(n);
        byteMatrix_ = ZeroArray<stat_t>(n);
    }
}

cycle_t
NetworkFabric::model(PacketType type, tile_id_t src, tile_id_t dst,
                     size_t bytes, cycle_t send_time)
{
    return modelEx(type, src, dst, bytes, send_time).total;
}

NetBreakdown
NetworkFabric::modelEx(PacketType type, tile_id_t src, tile_id_t dst,
                       size_t bytes, cycle_t send_time)
{
    if (!msgMatrix_.empty() && type != PacketType::System) {
        cell(msgMatrix_, src, dst).fetch_add(1, std::memory_order_relaxed);
        cell(byteMatrix_, src, dst)
            .fetch_add(bytes, std::memory_order_relaxed);
    }
    const auto shard = static_cast<std::size_t>(src);
    const bool intra = topo_.sameProcess(src, dst);
    locality_.add(shard,
                  localityIndex(type, intra ? INTRA_MSGS : INTER_MSGS), 1);
    locality_.add(shard,
                  localityIndex(type, intra ? INTRA_BYTES : INTER_BYTES),
                  bytes);
    return modelFor(type).computeLatencyEx(src, dst, bytes, send_time);
}

NetworkModel&
NetworkFabric::modelFor(PacketType type)
{
    int idx = static_cast<int>(type);
    GRAPHITE_ASSERT(idx >= 0 && idx < NUM_PACKET_TYPES);
    return *models_[idx];
}

const NetworkModel&
NetworkFabric::modelFor(PacketType type) const
{
    int idx = static_cast<int>(type);
    GRAPHITE_ASSERT(idx >= 0 && idx < NUM_PACKET_TYPES);
    return *models_[idx];
}

stat_t
NetworkFabric::intraProcessMessages(PacketType type) const
{
    return locality_.sum(localityIndex(type, INTRA_MSGS));
}

stat_t
NetworkFabric::interProcessMessages(PacketType type) const
{
    return locality_.sum(localityIndex(type, INTER_MSGS));
}

stat_t
NetworkFabric::intraProcessBytes(PacketType type) const
{
    return locality_.sum(localityIndex(type, INTRA_BYTES));
}

stat_t
NetworkFabric::interProcessBytes(PacketType type) const
{
    return locality_.sum(localityIndex(type, INTER_BYTES));
}

stat_t
NetworkFabric::pairMessages(tile_id_t src, tile_id_t dst) const
{
    GRAPHITE_ASSERT(!msgMatrix_.empty());
    return cell(msgMatrix_, src, dst).load(std::memory_order_relaxed);
}

stat_t
NetworkFabric::pairBytes(tile_id_t src, tile_id_t dst) const
{
    GRAPHITE_ASSERT(!byteMatrix_.empty());
    return cell(byteMatrix_, src, dst).load(std::memory_order_relaxed);
}

void
NetworkFabric::saveState(snapshot::SnapshotWriter& w) const
{
    progress_.saveState(w);
    for (const auto& model : models_) {
        w.str(model->name());
        model->saveState(w);
    }
    // Totals only: the per-tile split is not part of the state.
    for (std::size_t i = 0; i < NUM_LOCALITY * NUM_PACKET_TYPES; ++i)
        w.u64(locality_.sum(i));
    // Saved at quiescence, so plain reads of the matrices are safe.
    w.u64(static_cast<std::uint64_t>(msgMatrix_.size()));
    for (stat_t v : msgMatrix_)
        w.u64(v);
    for (stat_t v : byteMatrix_)
        w.u64(v);
}

void
NetworkFabric::loadState(snapshot::SnapshotReader& r)
{
    progress_.loadState(r);
    for (const auto& model : models_) {
        std::string name = r.str();
        if (name != model->name())
            throw snapshot::SnapshotError(
                strfmt("snapshot: network model mismatch (snapshot "
                       "'{}', configured '{}')",
                       name, model->name()));
        model->loadState(r);
    }
    for (std::size_t i = 0; i < NUM_LOCALITY * NUM_PACKET_TYPES; ++i)
        locality_.assign(i, r.u64());
    std::uint64_t matrix = r.u64();
    if (matrix != msgMatrix_.size())
        throw snapshot::SnapshotError(
            strfmt("snapshot: traffic-matrix size mismatch "
                   "(snapshot {}, configured {})",
                   matrix, msgMatrix_.size()));
    // Zero entries are only written over a nonzero one, so a restored
    // matrix stays lazily backed.
    auto restore = [&](stat_t& v) {
        if (stat_t x = r.u64(); x != 0 || v != 0)
            v = x;
    };
    std::ranges::for_each(msgMatrix_, restore);
    std::ranges::for_each(byteMatrix_, restore);
}

// ------------------------------------------------------------------ Network

Network::Network(tile_id_t tile, NetworkFabric& fabric,
                 Transport& transport)
    : tile_(tile), fabric_(fabric), transport_(transport)
{
}

void
Network::send(PacketType type, tile_id_t dst,
              std::vector<std::uint8_t> payload, cycle_t send_time)
{
    NetPacket pkt;
    pkt.type = type;
    pkt.sender = tile_;
    pkt.receiver = dst;
    pkt.payload = std::move(payload);
    size_t bytes = pkt.modeledBytes();
    NetBreakdown bd = fabric_.modelEx(type, tile_, dst, bytes, send_time);
    cycle_t latency = bd.total;
    pkt.time = send_time + latency;
    if (obs::accuracy::AccuracyObservatory::armed())
        obs::accuracy::AccuracyObservatory::instance().onNetLatency(
            static_cast<int>(type), latency);
    // Planted causality violation: stamp the packet with its *send*
    // time, as if the network delivered it with zero modeled latency.
    // Timing-only — payload and delivery order are untouched — so the
    // differential fingerprint stays clean while the accuracy
    // observatory must flag the receiver-past timestamp.
    if (check::FaultPlan::armed() &&
        check::FaultPlan::instance().shouldFire(
            check::FaultMode::LateDelivery,
            static_cast<addr_t>(dst)))
        pkt.time = send_time;
    if (type == PacketType::App) {
        fabric_.noteAppSend();
        if (obs::SpanSink::enabled()) {
            // The arrival time is fully determined at send under lax
            // delivery, so the whole span — including the receive-side
            // flow step — is emitted here; nothing dangles if the
            // receiver never drains it.
            obs::SpanBuilder span(obs::SpanKind::AppMsg, tile_, dst,
                                  send_time);
            span.add(obs::SpanStage::ReqSer, send_time,
                     bd.serialization);
            span.add(obs::SpanStage::ReqQueue,
                     send_time + bd.serialization, bd.queue);
            span.add(obs::SpanStage::ReqHop,
                     send_time + bd.serialization + bd.queue, bd.hop);
            span.finish(send_time + latency);
            pkt.traceId = span.traceId();
            pkt.spanId = span.spanId();
        }
    }
    obs::TraceSink::complete(static_cast<std::uint32_t>(tile_),
                             "net.send", send_time, latency, "bytes",
                             static_cast<std::int64_t>(bytes));
    transport_.send(fabric_.topology().tileEndpoint(tile_),
                    fabric_.topology().tileEndpoint(dst),
                    pkt.serialize());
}

bool
Network::popPending(PacketType type, NetPacket& out)
{
    lockdep::Guard lock(stashMutex_);
    auto& q = stash_[static_cast<int>(type)];
    if (q.empty())
        return false;
    out = std::move(q.front());
    q.pop_front();
    return true;
}

NetPacket
Network::recv(PacketType type)
{
    NetPacket out;
    if (popPending(type, out)) {
        observeDelivery(out, tile_);
        obs::TraceSink::instant(static_cast<std::uint32_t>(tile_),
                                "net.recv", out.time);
        return out;
    }
    while (true) {
        TransportBuffer buf = transport_.recv(
            fabric_.topology().tileEndpoint(tile_));
        if (buf.src < 0) {
            // Transport shut down; return an empty packet so blocked
            // receivers can unwind at simulation teardown.
            out = NetPacket{};
            out.sender = INVALID_TILE_ID;
            return out;
        }
        NetPacket pkt = NetPacket::deserialize(buf.data);
        if (pkt.type == PacketType::App)
            fabric_.noteAppDelivered();
        if (pkt.type == type) {
            observeDelivery(pkt, tile_);
            obs::TraceSink::instant(static_cast<std::uint32_t>(tile_),
                                    "net.recv", pkt.time);
            return pkt;
        }
        lockdep::Guard lock(stashMutex_);
        stash_[static_cast<int>(pkt.type)].push_back(std::move(pkt));
    }
}

bool
Network::tryRecv(PacketType type, NetPacket& out)
{
    if (popPending(type, out)) {
        observeDelivery(out, tile_);
        return true;
    }
    TransportBuffer buf;
    while (transport_.tryRecv(fabric_.topology().tileEndpoint(tile_),
                              buf)) {
        NetPacket pkt = NetPacket::deserialize(buf.data);
        if (pkt.type == PacketType::App)
            fabric_.noteAppDelivered();
        if (pkt.type == type) {
            observeDelivery(pkt, tile_);
            out = std::move(pkt);
            return true;
        }
        lockdep::Guard lock(stashMutex_);
        stash_[static_cast<int>(pkt.type)].push_back(std::move(pkt));
    }
    return false;
}

} // namespace graphite

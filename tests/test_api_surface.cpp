/**
 * @file
 * Focused tests of remaining target-API surface: identity, atomics,
 * condvar broadcast, file seek, and the instruction-event interface —
 * everything an application author can reach that the system tests do
 * not already pin down.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/config.h"
#include "core/api.h"
#include "core/simulator.h"

namespace graphite
{
namespace
{

/** Run @p body as the application main of a tiny simulation. */
void
runApp(thread_func_t body, void* arg, int tiles = 4, int procs = 1)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", tiles);
    cfg.setInt("general/num_processes", procs);
    Simulator sim(cfg);
    sim.run(body, arg);
}

struct Out
{
    std::uint64_t u64[8] = {};
    std::int64_t i64[4] = {};
    double d[2] = {};
};

void
identityMain(void* p)
{
    auto* out = static_cast<Out*>(p);
    out->u64[0] = static_cast<std::uint64_t>(api::tileId());
    out->u64[1] = static_cast<std::uint64_t>(api::numTiles());
    out->u64[2] = api::cycle();
    api::exec(InstrClass::IntDiv, 10);
    out->u64[3] = api::cycle();
}

TEST(ApiSurface, IdentityAndClock)
{
    Out out;
    runApp(&identityMain, &out);
    EXPECT_EQ(out.u64[0], 0u); // main runs on tile 0
    EXPECT_EQ(out.u64[1], 4u);
    // 10 integer divides at 18 cycles each.
    EXPECT_EQ(out.u64[3] - out.u64[2], 180u);
}

void
atomicsMain(void* p)
{
    auto* out = static_cast<Out*>(p);
    addr_t w32 = api::malloc(4);
    addr_t w64 = api::malloc(8);
    api::write<std::uint32_t>(w32, 10);
    api::write<std::uint64_t>(w64, 1ull << 40);

    out->u64[0] = api::atomicCas32(w32, 10, 20);   // succeeds -> old 10
    out->u64[1] = api::atomicCas32(w32, 10, 30);   // fails -> old 20
    out->u64[2] = api::read<std::uint32_t>(w32);   // 20
    out->u64[3] = api::atomicExchange32(w32, 99);  // old 20
    out->u64[4] = api::atomicAdd32(w32, -9);       // old 99
    out->u64[5] = api::read<std::uint32_t>(w32);   // 90
    out->u64[6] = api::atomicAdd64(w64, 5);        // old 2^40
    out->u64[7] = api::read<std::uint64_t>(w64);   // 2^40 + 5
    api::free(w32);
    api::free(w64);
}

TEST(ApiSurface, AtomicsSemantics)
{
    Out out;
    runApp(&atomicsMain, &out);
    EXPECT_EQ(out.u64[0], 10u);
    EXPECT_EQ(out.u64[1], 20u);
    EXPECT_EQ(out.u64[2], 20u);
    EXPECT_EQ(out.u64[3], 20u);
    EXPECT_EQ(out.u64[4], 99u);
    EXPECT_EQ(out.u64[5], 90u);
    EXPECT_EQ(out.u64[6], 1ull << 40);
    EXPECT_EQ(out.u64[7], (1ull << 40) + 5);
}

struct BroadcastProbe
{
    addr_t mutex = 0, cond = 0, ready = 0, acks = 0;
    int waiters = 3;
};

void
broadcastWaiter(void* p)
{
    auto* probe = static_cast<BroadcastProbe*>(p);
    api::mutexLock(probe->mutex);
    while (api::read<std::uint32_t>(probe->ready) == 0)
        api::condWait(probe->cond, probe->mutex);
    api::mutexUnlock(probe->mutex);
    api::atomicAdd32(probe->acks, 1);
}

void
broadcastMain(void* p)
{
    auto* probe = static_cast<BroadcastProbe*>(p);
    probe->mutex = api::malloc(api::MUTEX_BYTES);
    probe->cond = api::malloc(api::COND_BYTES);
    probe->ready = api::malloc(4);
    probe->acks = api::malloc(4);
    api::mutexInit(probe->mutex);
    api::condInit(probe->cond);
    api::write<std::uint32_t>(probe->ready, 0);
    api::write<std::uint32_t>(probe->acks, 0);

    std::vector<tile_id_t> tids;
    for (int i = 0; i < probe->waiters; ++i)
        tids.push_back(api::threadSpawn(&broadcastWaiter, probe));

    api::mutexLock(probe->mutex);
    api::write<std::uint32_t>(probe->ready, 1);
    api::condBroadcast(probe->cond);
    api::mutexUnlock(probe->mutex);

    for (tile_id_t t : tids)
        api::threadJoin(t);
    // Reuse ready as result slot for the ack count.
    api::write<std::uint32_t>(probe->ready,
                              api::read<std::uint32_t>(probe->acks));
}

TEST(ApiSurface, CondBroadcastWakesAllWaiters)
{
    BroadcastProbe probe;
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    Simulator sim(cfg);
    sim.run(&broadcastMain, &probe);
    std::uint32_t acks = 0;
    sim.memory().readCoherent(probe.ready, &acks, 4);
    EXPECT_EQ(acks, 3u);
}

struct SeekProbe
{
    std::string path;
    std::int64_t seekPos = -1;
    std::uint32_t wordAt8 = 0;
};

void
seekMain(void* p)
{
    auto* probe = static_cast<SeekProbe*>(p);
    addr_t buf = api::malloc(16);
    for (std::uint32_t i = 0; i < 4; ++i)
        api::write<std::uint32_t>(buf + 4 * i, 100 + i);

    int fd = api::fileOpen(probe->path.c_str(), 1);
    api::fileWrite(fd, buf, 16);
    api::fileClose(fd);

    fd = api::fileOpen(probe->path.c_str(), 0);
    probe->seekPos = api::fileSeek(fd, 8, SEEK_SET);
    addr_t rbuf = api::malloc(4);
    api::fileRead(fd, rbuf, 4);
    probe->wordAt8 = api::read<std::uint32_t>(rbuf);
    api::fileClose(fd);
    api::free(buf);
    api::free(rbuf);
}

TEST(ApiSurface, FileSeekReadsAtOffset)
{
    SeekProbe probe;
    probe.path = "/tmp/graphite_seek_test_" + std::to_string(::getpid()) +
                 ".bin";
    runApp(&seekMain, &probe, 4, 2);
    EXPECT_EQ(probe.seekPos, 8);
    EXPECT_EQ(probe.wordAt8, 102u); // third word
    std::remove(probe.path.c_str());
}

void
branchMain(void* p)
{
    auto* out = static_cast<Out*>(p);
    cycle_t before = api::cycle();
    // Alternating branch at one site defeats the two-bit predictor
    // roughly half the time; a monotone branch trains perfectly.
    for (int i = 0; i < 100; ++i)
        api::branch(0xAAAA, true);
    cycle_t trained = api::cycle();
    for (int i = 0; i < 100; ++i)
        api::branch(0xBBBB, i % 2 == 0);
    cycle_t alternating = api::cycle();
    out->u64[0] = trained - before;
    out->u64[1] = alternating - trained;
}

TEST(ApiSurface, BranchModelChargesMispredicts)
{
    Out out;
    runApp(&branchMain, &out);
    // Trained loop: ~1 cycle/branch. Alternating: half mispredict at
    // 14-cycle penalty => much more expensive.
    EXPECT_LT(out.u64[0], 150u);
    EXPECT_GT(out.u64[1], 500u);
}

void
largeCopyMain(void* p)
{
    auto* out = static_cast<Out*>(p);
    // Bulk readMem/writeMem crossing many lines and a page boundary.
    addr_t src = api::malloc(10000);
    addr_t dst = api::malloc(10000);
    std::vector<std::uint8_t> host(10000);
    for (size_t i = 0; i < host.size(); ++i)
        host[i] = static_cast<std::uint8_t>(i * 7);
    api::writeMem(src, host.data(), host.size());

    std::vector<std::uint8_t> tmp(10000);
    api::readMem(src, tmp.data(), tmp.size());
    api::writeMem(dst, tmp.data(), tmp.size());

    std::vector<std::uint8_t> back(10000);
    api::readMem(dst, back.data(), back.size());
    out->u64[0] = back == host ? 1 : 0;
    api::free(src);
    api::free(dst);
}

TEST(ApiSurface, BulkTransfersSpanLinesAndPages)
{
    Out out;
    runApp(&largeCopyMain, &out);
    EXPECT_EQ(out.u64[0], 1u);
}

} // namespace
} // namespace graphite

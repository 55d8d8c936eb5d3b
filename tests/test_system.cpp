/**
 * @file
 * System-level tests of the threading infrastructure and the consistent
 * OS interface: spawn/join through the MCP, the thread-per-tile limit,
 * futex semantics, condition variables, file I/O executed at the MCP,
 * dynamic memory syscalls, and user-level messaging — all exercised from
 * real application threads.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/config.h"
#include "core/api.h"
#include "core/simulator.h"

namespace graphite
{
namespace
{

Config
smallConfig(int tiles = 4, int procs = 1)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", tiles);
    cfg.setInt("general/num_processes", procs);
    return cfg;
}

// -------------------------------------------------------------- spawn/join

struct SpawnProbe
{
    std::atomic<int> started{0};
    tile_id_t childTile = INVALID_TILE_ID;
    cycle_t childClock = 0;
    cycle_t parentAtJoin = 0;
};

void
probeChild(void* p)
{
    auto* probe = static_cast<SpawnProbe*>(p);
    probe->started.fetch_add(1);
    probe->childTile = api::tileId();
    api::exec(InstrClass::IntAlu, 5000);
    probe->childClock = api::cycle();
}

void
probeMain(void* p)
{
    auto* probe = static_cast<SpawnProbe*>(p);
    tile_id_t t = api::threadSpawn(&probeChild, p);
    api::threadJoin(t);
    probe->parentAtJoin = api::cycle();
}

TEST(Threading, SpawnAssignsFreeTileAndJoinForwardsClock)
{
    Config cfg = smallConfig(4);
    Simulator sim(cfg);
    SpawnProbe probe;
    sim.run(&probeMain, &probe);
    EXPECT_EQ(probe.started.load(), 1);
    EXPECT_EQ(probe.childTile, 1); // lowest free tile after main's 0
    // Lax rule: joining forwards the parent's clock to the child exit.
    EXPECT_GE(probe.parentAtJoin, probe.childClock);
    EXPECT_EQ(sim.threadManager().threadsSpawned(), 1u);
}

void
idleWorker(void*)
{
    api::exec(InstrClass::IntAlu, 10);
}

struct OverflowProbe
{
    addr_t gate = 0;
    bool failed = false;
};

void
gatedWorker(void* p)
{
    auto* probe = static_cast<OverflowProbe*>(p);
    // Hold the tile until main releases the gate.
    while (api::read<std::uint32_t>(probe->gate) == 0)
        api::futexWait(probe->gate, 0);
}

void
overflowMain(void* p)
{
    auto* probe = static_cast<OverflowProbe*>(p);
    probe->gate = api::malloc(4);
    api::write<std::uint32_t>(probe->gate, 0);
    std::vector<tile_id_t> tids;
    for (int i = 0; i < 3; ++i)
        tids.push_back(api::threadSpawn(&gatedWorker, p));
    // All 4 tiles busy (workers parked on the gate): the next spawn
    // must be rejected (paper §3.5: threads may not exceed the number
    // of tiles).
    try {
        api::threadSpawn(&gatedWorker, p);
    } catch (const FatalError&) {
        probe->failed = true;
    }
    api::write<std::uint32_t>(probe->gate, 1);
    api::futexWake(probe->gate, 8);
    for (tile_id_t t : tids)
        api::threadJoin(t);
    api::free(probe->gate);
}

TEST(Threading, SpawnBeyondTileCountIsFatal)
{
    Config cfg = smallConfig(4);
    Simulator sim(cfg);
    OverflowProbe probe;
    sim.run(&overflowMain, &probe);
    EXPECT_TRUE(probe.failed);
}

void
reuseMain(void*)
{
    // Tiles are recycled after exit: spawning tiles sequentially more
    // times than the tile count must succeed when each is joined first.
    for (int i = 0; i < 10; ++i) {
        tile_id_t t = api::threadSpawn(&idleWorker, nullptr);
        api::threadJoin(t);
    }
}

TEST(Threading, TilesAreReusedAfterExit)
{
    Config cfg = smallConfig(2); // just main + one worker tile
    Simulator sim(cfg);
    sim.run(&reuseMain, nullptr);
    EXPECT_EQ(sim.threadManager().threadsSpawned(), 10u);
}

// ------------------------------------------------------------------- futex

struct FutexProbe
{
    addr_t word = 0;
    int wakeResult = -1;
    int mismatch = 0;
};

void
futexMain(void* p)
{
    auto* probe = static_cast<FutexProbe*>(p);
    probe->word = api::malloc(4);
    api::write<std::uint32_t>(probe->word, 7);
    // Value mismatch returns immediately with -1 (EWOULDBLOCK).
    probe->mismatch = api::futexWait(probe->word, 99);
    // Waking with no waiters wakes zero threads.
    probe->wakeResult = static_cast<int>(api::futexWake(probe->word, 8));
    api::free(probe->word);
}

TEST(Futex, ValueMismatchAndEmptyWake)
{
    Config cfg = smallConfig(2);
    Simulator sim(cfg);
    FutexProbe probe;
    sim.run(&futexMain, &probe);
    EXPECT_EQ(probe.mismatch, -1);
    EXPECT_EQ(probe.wakeResult, 0);
}

struct HandoffProbe
{
    addr_t flag = 0;
    cycle_t wakerClock = 0;
    cycle_t waiterAfter = 0;
    bool woken = false;
};

void
handoffWaker(void* p)
{
    auto* probe = static_cast<HandoffProbe*>(p);
    api::exec(InstrClass::IntAlu, 50000); // run ahead in simulated time
    api::write<std::uint32_t>(probe->flag, 1);
    probe->wakerClock = api::cycle();
    api::futexWake(probe->flag, 1);
}

void
handoffMain(void* p)
{
    auto* probe = static_cast<HandoffProbe*>(p);
    probe->flag = api::malloc(4);
    api::write<std::uint32_t>(probe->flag, 0);
    tile_id_t t = api::threadSpawn(&handoffWaker, p);
    while (api::read<std::uint32_t>(probe->flag) == 0) {
        if (api::futexWait(probe->flag, 0) == 0) {
            probe->woken = true;
            break;
        }
    }
    probe->waiterAfter = api::cycle();
    api::threadJoin(t);
    api::free(probe->flag);
}

TEST(Futex, WakeForwardsWaiterClock)
{
    Config cfg = smallConfig(2);
    Simulator sim(cfg);
    HandoffProbe probe;
    sim.run(&handoffMain, &probe);
    // Only an actual futex wakeup is a synchronization event; if the
    // waiter saw the flag before sleeping (legal lax interleaving),
    // there is nothing to forward.
    if (probe.woken)
        EXPECT_GE(probe.waiterAfter, probe.wakerClock);
    else
        GTEST_SKIP() << "waiter never blocked in this interleaving";
}

// ------------------------------------------------------ condition variable

struct CondProbe
{
    addr_t mutex = 0, cond = 0, value = 0;
    std::uint32_t observed = 0;
};

void
condSignaler(void* p)
{
    auto* probe = static_cast<CondProbe*>(p);
    api::mutexLock(probe->mutex);
    api::write<std::uint32_t>(probe->value, 42);
    api::condSignal(probe->cond);
    api::mutexUnlock(probe->mutex);
}

void
condMain(void* p)
{
    auto* probe = static_cast<CondProbe*>(p);
    probe->mutex = api::malloc(api::MUTEX_BYTES);
    probe->cond = api::malloc(api::COND_BYTES);
    probe->value = api::malloc(4);
    api::mutexInit(probe->mutex);
    api::condInit(probe->cond);
    api::write<std::uint32_t>(probe->value, 0);

    api::mutexLock(probe->mutex);
    tile_id_t t = api::threadSpawn(&condSignaler, p);
    while (api::read<std::uint32_t>(probe->value) == 0)
        api::condWait(probe->cond, probe->mutex);
    probe->observed = api::read<std::uint32_t>(probe->value);
    api::mutexUnlock(probe->mutex);
    api::threadJoin(t);
}

TEST(CondVar, WaitReleasesMutexAndWakes)
{
    Config cfg = smallConfig(2);
    Simulator sim(cfg);
    CondProbe probe;
    sim.run(&condMain, &probe);
    EXPECT_EQ(probe.observed, 42u);
}

// ----------------------------------------------------------------- file IO

struct FileProbe
{
    std::string path;
    std::int64_t written = 0;
    std::int64_t readBack = 0;
    std::string content;
    int badFd = 0;
};

void
fileMain(void* p)
{
    auto* probe = static_cast<FileProbe*>(p);
    const char payload[] = "graphite-file-test";

    addr_t buf = api::malloc(64);
    api::writeMem(buf, payload, sizeof(payload));

    int fd = api::fileOpen(probe->path.c_str(), 1); // write
    probe->written = api::fileWrite(fd, buf, sizeof(payload));
    api::fileClose(fd);

    addr_t rbuf = api::malloc(64);
    fd = api::fileOpen(probe->path.c_str(), 0); // read
    probe->readBack = api::fileRead(fd, rbuf, sizeof(payload));
    api::fileClose(fd);

    char host[64] = {};
    api::readMem(rbuf, host, sizeof(payload));
    probe->content = host;

    probe->badFd = static_cast<int>(api::fileRead(12345, rbuf, 4));
    api::free(buf);
    api::free(rbuf);
}

TEST(FileIo, RoundTripThroughMcp)
{
    Config cfg = smallConfig(2, 2);
    Simulator sim(cfg);
    FileProbe probe;
    probe.path = "/tmp/graphite_file_test_" + std::to_string(::getpid()) +
                 ".bin";
    sim.run(&fileMain, &probe);
    EXPECT_EQ(probe.written, 19);
    EXPECT_EQ(probe.readBack, 19);
    EXPECT_EQ(probe.content, "graphite-file-test");
    EXPECT_EQ(probe.badFd, -1);
    EXPECT_GT(sim.threadManager().totalSyscalls(), 0u);
    std::remove(probe.path.c_str());
}

// ---------------------------------------------------------- memory syscalls

void
memSyscallMain(void* p)
{
    auto* results = static_cast<std::vector<addr_t>*>(p);
    addr_t old_brk = api::brk(0);
    addr_t new_brk = api::brk(old_brk + 8192);
    addr_t region = api::mmap(10000);
    api::write<std::uint64_t>(region, 0x1122334455ull);
    std::uint64_t v = api::read<std::uint64_t>(region);
    api::munmap(region, 10000);
    results->push_back(old_brk);
    results->push_back(new_brk);
    results->push_back(region);
    results->push_back(v);
}

TEST(MemSyscalls, BrkMmapMunmapFromAppThread)
{
    Config cfg = smallConfig(2);
    Simulator sim(cfg);
    std::vector<addr_t> r;
    sim.run(&memSyscallMain, &r);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[1], r[0] + 8192);
    EXPECT_GE(r[2], AddressSpaceLayout::MMAP_BASE);
    EXPECT_EQ(r[3], 0x1122334455ull);
}

// ------------------------------------------------------------- messaging

void
fanWorker(void*)
{
    api::Message m = api::msgRecv();
    std::uint32_t v;
    std::memcpy(&v, m.data.data(), 4);
    v *= 2;
    api::msgSend(m.sender, &v, 4);
}

void
fanMain(void* p)
{
    auto* sum = static_cast<std::uint64_t*>(p);
    std::vector<tile_id_t> tids;
    for (int i = 0; i < 3; ++i)
        tids.push_back(api::threadSpawn(&fanWorker, nullptr));
    for (size_t i = 0; i < tids.size(); ++i) {
        std::uint32_t v = static_cast<std::uint32_t>(i + 1);
        api::msgSend(tids[i], &v, 4);
    }
    for (size_t i = 0; i < tids.size(); ++i) {
        api::Message m = api::msgRecv();
        std::uint32_t v;
        std::memcpy(&v, m.data.data(), 4);
        *sum += v;
    }
    for (tile_id_t t : tids)
        api::threadJoin(t);
}

TEST(Messaging, FanOutFanIn)
{
    Config cfg = smallConfig(4, 2);
    Simulator sim(cfg);
    std::uint64_t sum = 0;
    sim.run(&fanMain, &sum);
    EXPECT_EQ(sum, 2u + 4u + 6u);
}

// ----------------------------------------------------------- sim lifecycle

void
singleAllocMain(void* p)
{
    auto* out = static_cast<std::uint64_t*>(p);
    addr_t a = api::malloc(8);
    api::write<std::uint64_t>(a, 7);
    *out = api::read<std::uint64_t>(a);
    api::free(a);
}

TEST(Simulator, BackToBackRunsAreIndependent)
{
    for (int i = 0; i < 3; ++i) {
        Config cfg = smallConfig(2);
        Simulator sim(cfg);
        std::uint64_t sum = 0;
        sim.run(&singleAllocMain, &sum);
        EXPECT_EQ(sum, 7u);
    }
}

} // namespace
} // namespace graphite

/**
 * @file
 * Lockdep subsystem tests: planted AB/BA inversions are reported with
 * both acquisition sites the first time the wrong order *could*
 * deadlock (not when it actually does), ORDERED/MULTI class flags,
 * ascending ORDERED runs sharing one held-set entry, held-set overflow
 * that reports without aborting, condvar wait release/reacquire
 * discipline, held-set visibility for the telemetry plane (snapshot
 * render + crash-handler dump), the zero-overhead disabled build, and
 * fingerprint neutrality: arming lockdep must not perturb simulated
 * results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "check/fuzz_program.h"
#include "check/fuzz_runner.h"
#include "common/config.h"
#include "common/lockdep.h"
#include "obs/telemetry/flight_recorder.h"

// Defined in lockdep_force_off_probe.cpp, a TU compiled with
// -DGRAPHITE_LOCKDEP_FORCE_OFF linked into this armed binary.
bool lockdepForceOffProbeExercise();

// Detection tests are meaningless in a -DGRAPHITE_LOCKDEP=OFF tree,
// where the wrappers are plain std::mutex pass-throughs.
#if GRAPHITE_LOCKDEP_ON
#define LOCKDEP_REQUIRE_ARMED() (void)0
#else
#define LOCKDEP_REQUIRE_ARMED() \
    GTEST_SKIP() << "built with GRAPHITE_LOCKDEP=OFF"
#endif

namespace graphite
{
namespace
{

using lockdep::LockClass;
using lockdep::Mode;

std::string
tempPath(const char* tag)
{
    const char* dir = std::getenv("TMPDIR");
    std::ostringstream os;
    os << (dir != nullptr ? dir : "/tmp") << "/graphite_lockdep_"
       << tag << "_" << ::getpid();
    return os.str();
}

std::string
slurp(const std::string& path)
{
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/// Reap @p pid with a deadline; SIGKILLs on timeout so a regression
/// that reintroduces an actual deadlock fails fast instead of hanging
/// the suite.
int
reapWithTimeout(pid_t pid, int timeout_sec)
{
    int status = -1;
    const long poll_us = 20000;
    long waited = 0;
    const long limit = static_cast<long>(timeout_sec) * 1000000;
    for (;;) {
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return status;
        if (waited >= limit) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            return status;
        }
        ::usleep(poll_us);
        waited += poll_us;
    }
}

/// Warn-mode fixture: violations are recorded (count + report text)
/// but execution continues, so a single test can plant an inversion
/// and then inspect the diagnosis. Always restores enforcing mode.
class LockdepWarn : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        lockdep::resetForTest();
        lockdep::setMode(Mode::Warn);
    }
    void TearDown() override
    {
        lockdep::setMode(Mode::Enforce);
        lockdep::resetForTest();
    }
};

// ------------------------------------------------- planted inversions

TEST_F(LockdepWarn, AbBaFlaggedOnFirstInversionWithBothSites)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex a(LockClass::race_records);
    lockdep::OrderedMutex b(LockClass::span_sink);

    // Legal order first: records the a->b edge with both sites.
    {
        lockdep::Guard ga(a);
        lockdep::Guard gb(b); // EDGE-SITE marker (see assertions)
    }
    EXPECT_EQ(lockdep::violationCount(), 0u);

    // Planted inversion: flagged at acquire time, on the FIRST
    // inversion, with no second thread involved — the discipline is
    // checked, not the schedule, so control returns here instead of
    // ever reaching a two-thread hang.
    {
        lockdep::Guard gb(b);
        lockdep::Guard ga(a);
    }
    EXPECT_EQ(lockdep::violationCount(), 1u);

    std::string report = lockdep::lastReport();
    EXPECT_NE(report.find("lock-order violation"), std::string::npos);
    EXPECT_NE(report.find("race_records"), std::string::npos);
    EXPECT_NE(report.find("span_sink"), std::string::npos);
    // Both sites of the violating acquisition are named...
    EXPECT_NE(report.find("test_lockdep.cpp"), std::string::npos);
    EXPECT_NE(report.find("while holding"), std::string::npos);
    // ...and so is the previously-observed legal order, proving both
    // orders exist in the code (the deadlock pair).
    EXPECT_NE(report.find("opposite order previously observed"),
              std::string::npos);
}

TEST(LockdepPlanted, TwoThreadAbBaExitsEnforceCodeNoDeadlock)
{
    LOCKDEP_REQUIRE_ARMED();
    // The genuinely deadlocking schedule: t1 holds A wants B, t2 holds
    // B wants A. Fork-isolated because enforcing mode exits the
    // process; the assertion is that the child exits with the lockdep
    // code — BEFORE the classic hang — instead of being SIGKILLed by
    // the reap timeout.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        lockdep::setMode(Mode::Enforce);
        static lockdep::OrderedMutex a(LockClass::race_records);
        static lockdep::OrderedMutex b(LockClass::span_sink);
        std::atomic<bool> t1_has_a{false};
        std::atomic<bool> t2_has_b{false};

        std::thread t1([&] {
            a.lock();
            t1_has_a.store(true);
            while (!t2_has_b.load())
                std::this_thread::yield();
            b.lock(); // blocks on t2 — the half that would hang
        });
        std::thread t2([&] {
            b.lock();
            t2_has_b.store(true);
            while (!t1_has_a.load())
                std::this_thread::yield();
            // Checked before blocking: reported + _Exit(87), so the
            // process dies with a diagnosis instead of deadlocking.
            a.lock();
        });
        t1.join();
        t2.join();
        std::_Exit(3); // unreachable unless detection failed
    }

    int status = reapWithTimeout(pid, 30);
    ASSERT_TRUE(WIFEXITED(status))
        << "child hung or crashed instead of reporting the inversion";
    EXPECT_EQ(WEXITSTATUS(status), 87);
}

// ----------------------------------------------------- class flags

TEST_F(LockdepWarn, OrderedClassRequiresAscendingInstances)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex s0(LockClass::mem_shard, 0);
    lockdep::OrderedMutex s1(LockClass::mem_shard, 1);

    {
        lockdep::Guard g0(s0);
        lockdep::Guard g1(s1); // ascending: legal
    }
    EXPECT_EQ(lockdep::violationCount(), 0u);

    {
        lockdep::Guard g1(s1);
        lockdep::Guard g0(s0); // descending: flagged
    }
    EXPECT_EQ(lockdep::violationCount(), 1u);
    EXPECT_NE(lockdep::lastReport().find("ascending instance"),
              std::string::npos);
}

/// This thread's held-set as the telemetry plane sees it.
std::vector<lockdep::HeldLock>
myHeldSet()
{
    auto self = static_cast<std::uint64_t>(pthread_self());
    for (const lockdep::ThreadHeldSet& s : lockdep::heldSnapshot())
        if (s.threadId == self)
            return s.held;
    return {};
}

std::vector<std::unique_ptr<lockdep::OrderedMutex>>
makeLocks(LockClass cls, int n)
{
    std::vector<std::unique_ptr<lockdep::OrderedMutex>> locks;
    for (int i = 0; i < n; ++i)
        locks.push_back(std::make_unique<lockdep::OrderedMutex>(cls, i));
    return locks;
}

TEST_F(LockdepWarn, AscendingSweepTakesOneHeldSetEntry)
{
    LOCKDEP_REQUIRE_ARMED();
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "ThreadSanitizer's own deadlock detector aborts when "
                    "a thread holds more than 64 mutexes";
#endif
    // A quiesce sweep at 1024 tiles: every shard, then every tile. Far
    // past the fixed held-set size, yet two entries and no report.
    constexpr int N = 2048;
    auto shards = makeLocks(LockClass::mem_shard, N);
    auto tiles = makeLocks(LockClass::mem_tile, N);
    for (auto& m : shards)
        m->lock();
    for (auto& m : tiles)
        m->lock();
    std::vector<lockdep::HeldLock> held = myHeldSet();
    ASSERT_EQ(held.size(), 2u);
    EXPECT_EQ(held[0].cls, LockClass::mem_shard);
    EXPECT_EQ(held[1].cls, LockClass::mem_tile);
    EXPECT_EQ(held[1].instance, N - 1);
    EXPECT_EQ(held[1].count, N);
    EXPECT_NE(lockdep::renderHeldSets().find("mem_tile[2047]x2048"),
              std::string::npos);
    for (auto& m : shards)
        m->unlock();
    for (auto& m : tiles)
        m->unlock();
    EXPECT_TRUE(myHeldSet().empty());
    EXPECT_EQ(lockdep::violationCount(), 0u);
}

TEST_F(LockdepWarn, DescendingAcquisitionInsideRunReported)
{
    LOCKDEP_REQUIRE_ARMED();
    auto tiles = makeLocks(LockClass::mem_tile, 10);
    tiles[1]->lock();
    tiles[5]->lock();
    tiles[9]->lock();
    EXPECT_EQ(lockdep::violationCount(), 0u);
    tiles[3]->lock(); // below the run's last instance
    EXPECT_EQ(lockdep::violationCount(), 1u);
    EXPECT_NE(lockdep::lastReport().find("ascending instance"),
              std::string::npos);
    for (int i : {1, 3, 5, 9})
        tiles[i]->unlock();
    EXPECT_TRUE(myHeldSet().empty());
}

TEST_F(LockdepWarn, RunReleasesInAnyOrder)
{
    LOCKDEP_REQUIRE_ARMED();
    auto tiles = makeLocks(LockClass::mem_tile, 8);
    for (const auto& order : std::vector<std::vector<int>>{
             {0, 1, 2, 3, 4, 5, 6, 7},
             {7, 6, 5, 4, 3, 2, 1, 0},
             {3, 7, 0, 5, 1, 6, 2, 4}}) {
        for (auto& m : tiles)
            m->lock();
        ASSERT_EQ(myHeldSet().size(), 1u);
        for (int i : order)
            tiles[i]->unlock();
        EXPECT_TRUE(myHeldSet().empty());
        // Fully released: the next sweep starts from scratch.
        tiles[0]->lock();
        tiles[0]->unlock();
    }
    EXPECT_EQ(lockdep::violationCount(), 0u);
}

TEST(LockdepOverflow, ReportsOnceAndKeepsRunning)
{
    LOCKDEP_REQUIRE_ARMED();
    // Enforcing mode, fork-isolated: a held-set overflow must neither
    // exit the process nor lose track of the locks it can still see.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        lockdep::resetForTest();
        lockdep::setMode(Mode::Enforce);
        // MULTI locks never merge into a run: one entry each.
        auto locks = makeLocks(LockClass::app_target, 80);
        for (auto& m : locks)
            m->lock();
        bool ok = lockdep::violationCount() == 1 &&
                  lockdep::lastReport().find("held-set overflow") !=
                      std::string::npos;
        for (auto& m : locks) // tracked ones first, untracked last
            m->unlock();
        ok = ok && myHeldSet().empty() && lockdep::violationCount() == 1;
        // Checking resumes once the set has room again.
        lockdep::OrderedMutex a(LockClass::race_records);
        lockdep::OrderedMutex b(LockClass::span_sink);
        {
            lockdep::Guard gb(b);
            lockdep::Guard ga(a); // inversion: exits 87 if checked
        }
        std::_Exit(ok ? 3 : 4);
    }
    int status = reapWithTimeout(pid, 30);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 87)
        << "3: checking did not resume; 4: overflow mishandled";
}

TEST_F(LockdepWarn, MultiClassNestsInAnyOrder)
{
    // app_target models mutexes owned by the simulated application;
    // their discipline is the app's business, not the simulator's.
    lockdep::OrderedMutex m1(LockClass::app_target, 1);
    lockdep::OrderedMutex m2(LockClass::app_target, 2);
    {
        lockdep::Guard g2(m2);
        lockdep::Guard g1(m1);
    }
    {
        lockdep::Guard g1(m1);
        lockdep::Guard g2(m2);
    }
    EXPECT_EQ(lockdep::violationCount(), 0u);
}

// ----------------------------------------------------- condvar waits

TEST_F(LockdepWarn, CondVarWaitReleasesAndReacquiresInOrder)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex m(LockClass::global_progress);
    lockdep::CondVar cv;
    std::atomic<bool> go{false};

    std::thread waiter([&] {
        lockdep::UniqueLock l(m);
        cv.wait(l, [&] { return go.load(); });
        // Reacquired: taking a later-ranked class under it is legal.
        lockdep::OrderedMutex inner(LockClass::skew_tracker);
        lockdep::Guard g(inner);
    });

    // While the waiter is parked, the waited mutex has left its
    // held-set and shows as pending — exactly what the watchdog hang
    // dump needs to name "waiting for X" threads.
    bool saw_pending = false;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        for (const lockdep::ThreadHeldSet& s :
             lockdep::heldSnapshot()) {
            if (s.hasPending &&
                s.pending.cls == LockClass::global_progress &&
                s.held.empty())
                saw_pending = true;
        }
        if (saw_pending)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(saw_pending);

    {
        lockdep::Guard g(m);
        go.store(true);
    }
    cv.notify_all();
    waiter.join();
    EXPECT_EQ(lockdep::violationCount(), 0u);
}

TEST_F(LockdepWarn, CondVarWaitOnNonInnermostLockFlagged)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex outer(LockClass::global_progress);
    lockdep::OrderedMutex inner(LockClass::skew_tracker);
    lockdep::CondVar cv;

    lockdep::UniqueLock l(outer);
    {
        lockdep::Guard g(inner);
        // Waiting on `outer` would release a mid-stack lock while
        // keeping `inner`, a recipe for waking into an inverted order.
        cv.wait_for(l, std::chrono::milliseconds(5));
    }
    EXPECT_GE(lockdep::violationCount(), 1u);
    EXPECT_NE(lockdep::lastReport().find("innermost"),
              std::string::npos);
}

// ------------------------------------------- telemetry visibility

TEST_F(LockdepWarn, RenderHeldSetsNamesClassAndSite)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex m(LockClass::profiler);
    lockdep::Guard g(m);
    std::string text = lockdep::renderHeldSets();
    EXPECT_NE(text.find("profiler"), std::string::npos);
    EXPECT_NE(text.find("test_lockdep.cpp"), std::string::npos);
}

TEST(LockdepCrash, CrashDumpIncludesHeldSets)
{
    LOCKDEP_REQUIRE_ARMED();
    std::string dump_path = tempPath("crash");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        using obs::telemetry::FlightRecorder;
        FlightRecorder& fr = FlightRecorder::instance();
        fr.configure(64);
        fr.installCrashHandler(dump_path);
        lockdep::OrderedMutex m(LockClass::profiler);
        lockdep::Guard g(m);
        ::raise(SIGSEGV);
        std::_Exit(0); // unreachable
    }

    int status = reapWithTimeout(pid, 30);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    std::string dump = slurp(dump_path);
    std::remove(dump_path.c_str());
    ASSERT_FALSE(dump.empty());
    EXPECT_NE(dump.find("=== lockdep held-sets ==="),
              std::string::npos);
    EXPECT_NE(dump.find("holds profiler"), std::string::npos);
    EXPECT_NE(dump.find("test_lockdep.cpp"), std::string::npos);
}

// ------------------------------------------------- disabled build

TEST(LockdepDisabled, ForceOffVariantCompilesAndAddsNoState)
{
    EXPECT_TRUE(lockdepForceOffProbeExercise());
}

// ------------------------------------------- fingerprint neutrality

TEST(LockdepFuzz, FingerprintUnchangedArmedVsOff)
{
    // Arming lockdep must be observationally inert for the simulated
    // program: same fuzz program, same config, fingerprints equal
    // whether the checker is off or enforcing.
    const std::uint64_t seed = 7;
    check::FuzzProgram prog = check::FuzzProgram::generate(seed);
    Config cfg = check::makeFuzzConfig(check::baselinePoint(), seed);
    check::RunOptions opt;
    opt.watcherPeriodUs = 100;
    opt.validateEvery = 4;

    lockdep::setMode(Mode::Off);
    check::FuzzResult off = check::runFuzzProgram(prog, cfg, opt);
    lockdep::setMode(Mode::Enforce);
    check::FuzzResult armed = check::runFuzzProgram(prog, cfg, opt);

    EXPECT_TRUE(off.violations.empty());
    EXPECT_TRUE(armed.violations.empty());
    EXPECT_NE(off.fingerprint, 0u);
    EXPECT_EQ(off.fingerprint, armed.fingerprint);
}

} // namespace
} // namespace graphite

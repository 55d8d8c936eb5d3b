/**
 * @file
 * Host-thread scaling microbenchmark for the memory-system engine's
 * two-level tile/shard locking, on an L1-hit-dominated workload — the
 * case the paper's per-home-tile MME servers make embarrassingly
 * parallel.
 *
 * Two metrics per threads point:
 *
 *  - wall throughput: ops / elapsed wall time. Only meaningful as a
 *    scaling signal when the host has >= threads CPUs.
 *  - serialized (critical-path) throughput: ops / lock critical path,
 *    measured from per-thread CPU time (CLOCK_THREAD_CPUTIME_ID). An
 *    L1-hit workload takes no cross-thread lock at all, so the bound
 *    is the MAX of per-thread engine CPU time; a lock every access
 *    shared would make it the SUM. This is the multicore-scaling bound
 *    the lock structure imposes, and is host-CPU-count independent.
 *
 * The matrix additionally runs each point with lockdep (the
 * lock-order checker, src/common/lockdep.h) runtime-off and enforcing:
 * the per-acquisition order check walks the thread's held-set on this
 * benchmark's hottest path, so the armed/off throughput ratio IS the
 * lockdep tax on the worst realistic case. One off/armed pair is noisy
 * when threads outnumber host CPUs, so the tax is judged on the median
 * ratio of OVERHEAD_REPEATS pairs, interleaved off/armed with the order
 * alternating, at 8 threads; the same median at threads = host CPUs is
 * recorded as information. A separate tight loop measures the raw
 * per-lock/unlock wrapper cost against a plain std::mutex for
 * reference.
 *
 * Emits BENCH_mem_contention.json; the headline criteria are
 * serialized_scaling_8t (8-thread over 1-thread serialized throughput,
 * lockdep armed) >= 2 and lockdep_overhead_8t (median of the repeated
 * pairs) <= 1.25.
 */

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <mutex>

#include "common/config.h"
#include "common/lockdep.h"
#include "common/table.h"
#include "mem/memory_system.h"

namespace graphite
{
namespace
{

constexpr int TILES = 8;
constexpr addr_t BASE = 0x1000'0000;
constexpr int LINES_PER_THREAD = 64; // fits every L1
constexpr int OVERHEAD_REPEATS = 5;

/** CPU time consumed by the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct RunResult
{
    std::string lockdepMode; // "off" | "armed"
    int threads = 0;
    std::uint64_t totalOps = 0;
    double wallSeconds = 0.0;
    double cpuSumSeconds = 0.0;
    double cpuMaxSeconds = 0.0;
    stat_t shardContended = 0;
    stat_t tileContended = 0;

    double wallThroughput() const { return totalOps / wallSeconds; }
    /** Ops over the lock critical path: no lock is shared across
     *  threads, so the slowest thread bounds elapsed time. */
    double serializedThroughput() const { return totalOps / cpuMaxSeconds; }
};

RunResult
runConfig(bool lockdep_armed, int threads, std::uint64_t ops)
{
    lockdep::setMode(lockdep_armed ? lockdep::Mode::Enforce
                                   : lockdep::Mode::Off);
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", TILES);
    ClusterTopology topo(TILES, 1);
    NetworkFabric fabric(topo, cfg);
    MemorySystem mem(topo, fabric, cfg);

    // Warm-up: install every thread's private lines (L1 Shared copies),
    // so the measured loop is pure L1 read hits.
    for (int i = 0; i < threads; ++i) {
        for (int l = 0; l < LINES_PER_THREAD; ++l) {
            addr_t addr = BASE + static_cast<addr_t>(i) * 0x10000 +
                          static_cast<addr_t>(l) * mem.lineSize();
            std::uint64_t v = 0;
            mem.access(i % TILES, MemAccessType::Read, addr, &v, 8, 0);
        }
    }

    std::atomic<bool> go{false};
    std::atomic<int> ready{0};
    std::vector<double> cpu(threads, 0.0);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int i = 0; i < threads; ++i) {
        workers.emplace_back([&, i] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            double t0 = threadCpuSeconds();
            std::uint64_t v = 0;
            for (std::uint64_t it = 0; it < ops; ++it) {
                addr_t addr =
                    BASE + static_cast<addr_t>(i) * 0x10000 +
                    (it % LINES_PER_THREAD) * mem.lineSize();
                mem.access(i % TILES, MemAccessType::Read, addr, &v, 8,
                           static_cast<cycle_t>(it));
            }
            cpu[i] = threadCpuSeconds() - t0;
        });
    }
    while (ready.load() != threads) {
    }
    auto w0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers)
        w.join();
    auto w1 = std::chrono::steady_clock::now();

    RunResult r;
    r.lockdepMode = lockdep_armed ? "armed" : "off";
    r.threads = threads;
    r.totalOps = ops * static_cast<std::uint64_t>(threads);
    r.wallSeconds = std::chrono::duration<double>(w1 - w0).count();
    for (double c : cpu) {
        r.cpuSumSeconds += c;
        r.cpuMaxSeconds = std::max(r.cpuMaxSeconds, c);
    }
    r.shardContended = mem.shardLockTotals().contended;
    r.tileContended = mem.tileLockTotals().contended;
    return r;
}

/** Off/armed serialized-throughput ratios of interleaved pairs. */
struct Overhead
{
    int threads = 0;
    std::vector<double> ratios;

    double
    median() const
    {
        std::vector<double> v = ratios;
        std::sort(v.begin(), v.end());
        size_t n = v.size();
        return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    }
};

/** Run OVERHEAD_REPEATS off/armed pairs at @p threads, alternating
 *  which mode goes first so host drift falls on both sides. */
Overhead
measureOverhead(int threads, std::uint64_t ops)
{
    Overhead o;
    o.threads = threads;
    for (int i = 0; i < OVERHEAD_REPEATS; ++i) {
        bool armed_first = i % 2 != 0;
        RunResult first = runConfig(armed_first, threads, ops);
        RunResult second = runConfig(!armed_first, threads, ops);
        const RunResult& off = armed_first ? second : first;
        const RunResult& armed = armed_first ? first : second;
        o.ratios.push_back(off.serializedThroughput() /
                           armed.serializedThroughput());
    }
    return o;
}

void
printOverhead(FILE* f, const char* key, const Overhead& o)
{
    std::fprintf(f, "  \"%s\": {\"threads\": %d, \"median\": %.3f, "
                    "\"repeats\": [",
                 key, o.threads, o.median());
    for (size_t i = 0; i < o.ratios.size(); ++i)
        std::fprintf(f, "%s%.3f", i ? ", " : "", o.ratios[i]);
    std::fprintf(f, "]},\n");
}

bool
fastMode()
{
    const char* v = std::getenv("GRAPHITE_BENCH_FAST");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/** ns per uncontended lock/unlock pair for @p iters iterations. */
template <class Lockable>
double
wrapperNsPerOp(Lockable& m, std::uint64_t iters)
{
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        m.lock();
        m.unlock();
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(iters);
}

} // namespace
} // namespace graphite

int
main()
{
    using namespace graphite;

    std::uint64_t ops = fastMode() ? 100'000 : 1'000'000;
    const int thread_counts[] = {1, 2, 4, 8};

    std::printf("=== micro_lock_contention ===\n");
    std::printf(
        "Engine-lock scaling: tile/shard locking on an L1-hit "
        "workload.\nHost CPUs: %u (serialized throughput is the "
        "host-independent lock-structure bound).\n\n",
        std::thread::hardware_concurrency());

    std::vector<RunResult> results;
    for (bool armed : {false, true})
        for (int t : thread_counts)
            results.push_back(runConfig(armed, t, ops));
    lockdep::setMode(lockdep::Mode::Enforce);

    TextTable table;
    table.header({"lockdep", "threads", "ops", "wall Mops/s",
                  "serialized Mops/s", "shard cont", "tile cont"});
    for (const RunResult& r : results) {
        char wall[32], ser[32];
        std::snprintf(wall, sizeof wall, "%.2f",
                      r.wallThroughput() / 1e6);
        std::snprintf(ser, sizeof ser, "%.2f",
                      r.serializedThroughput() / 1e6);
        table.row({r.lockdepMode, std::to_string(r.threads),
                   std::to_string(r.totalOps), wall, ser,
                   std::to_string(r.shardContended),
                   std::to_string(r.tileContended)});
    }
    std::printf("%s\n", table.render().c_str());

    auto find = [&](const std::string& ld, int t) -> const RunResult& {
        for (const RunResult& r : results)
            if (r.lockdepMode == ld && r.threads == t)
                return r;
        std::abort();
    };
    // Production default (lockdep armed): 8 threads against 1.
    const RunResult& a1 = find("armed", 1);
    const RunResult& a8 = find("armed", 8);
    double serialized_scaling =
        a8.serializedThroughput() / a1.serializedThroughput();
    double wall_scaling = a8.wallThroughput() / a1.wallThroughput();
    std::printf("serialized scaling 8 vs 1 threads: %.2fx (criterion: "
                ">= 2x)\nwall scaling 8 vs 1 threads: %.2fx (bounded by "
                "host CPUs)\n",
                serialized_scaling, wall_scaling);

    // Lockdep tax: off vs enforcing, median of interleaved pairs.
    const int host_cpus =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    Overhead ov8 = measureOverhead(8, ops);
    Overhead ov_cpus = measureOverhead(host_cpus, ops);
    lockdep::setMode(lockdep::Mode::Enforce);
    double ld_overhead = ov8.median();
    std::printf("lockdep-armed overhead at 8 threads: %.3fx, median of "
                "%d pairs (criterion: <= 1.25x)\n"
                "lockdep-armed overhead at %d threads (host CPUs): "
                "%.3fx, median of %d pairs\n",
                ld_overhead, OVERHEAD_REPEATS, host_cpus,
                ov_cpus.median(), OVERHEAD_REPEATS);

    // Raw wrapper reference: uncontended lock/unlock cost.
    const std::uint64_t wrap_iters = fastMode() ? 200'000 : 2'000'000;
    std::mutex plain;
    lockdep::OrderedMutex wrapped(lockdep::LockClass::profiler);
    double plain_ns = wrapperNsPerOp(plain, wrap_iters);
    lockdep::setMode(lockdep::Mode::Off);
    double off_ns = wrapperNsPerOp(wrapped, wrap_iters);
    lockdep::setMode(lockdep::Mode::Enforce);
    double armed_ns = wrapperNsPerOp(wrapped, wrap_iters);
    std::printf("uncontended lock+unlock: std::mutex %.1f ns, "
                "OrderedMutex off %.1f ns, enforcing %.1f ns\n",
                plain_ns, off_ns, armed_ns);

    FILE* f = std::fopen("BENCH_mem_contention.json", "w");
    if (f == nullptr) {
        std::perror("BENCH_mem_contention.json");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_lock_contention\",\n");
    std::fprintf(f, "  \"workload\": \"l1_hit_private_lines\",\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(
        f,
        "  \"metric_note\": \"serialized_mops = ops / lock critical "
        "path, the max per-thread CPU time (no lock is shared across "
        "threads); host-CPU-count independent. wall_mops depends on "
        "available host CPUs.\",\n");
    std::fprintf(f, "  \"runs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult& r = results[i];
        std::fprintf(
            f,
            "    {\"lockdep\": \"%s\", "
            "\"threads\": %d, \"ops\": %llu, "
            "\"wall_s\": %.6f, \"cpu_sum_s\": %.6f, \"cpu_max_s\": "
            "%.6f, \"wall_mops\": %.3f, \"serialized_mops\": %.3f, "
            "\"shard_lock_contended\": %llu, "
            "\"tile_lock_contended\": %llu}%s\n",
            r.lockdepMode.c_str(), r.threads,
            static_cast<unsigned long long>(r.totalOps), r.wallSeconds,
            r.cpuSumSeconds, r.cpuMaxSeconds,
            r.wallThroughput() / 1e6, r.serializedThroughput() / 1e6,
            static_cast<unsigned long long>(r.shardContended),
            static_cast<unsigned long long>(r.tileContended),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"serialized_scaling_8t\": %.3f,\n",
                 serialized_scaling);
    std::fprintf(f, "  \"wall_scaling_8t\": %.3f,\n", wall_scaling);
    std::fprintf(
        f,
        "  \"lockdep_overhead_note\": \"off/armed "
        "serialized-throughput ratio, median of %d off/armed pairs run "
        "back to back with the order alternating; lockdep_overhead_8t is "
        "the 8-thread median and carries the criterion, "
        "lockdep_overhead_host_cpus (threads = host CPUs) is information. "
        "runtime-off still pays held-set bookkeeping, the "
        "compile-time GRAPHITE_LOCKDEP=OFF build removes even that "
        "(sizeof parity pinned by tests/lockdep_force_off_probe)\",\n",
        OVERHEAD_REPEATS);
    printOverhead(f, "lockdep_overhead_8t_pairs", ov8);
    printOverhead(f, "lockdep_overhead_host_cpus", ov_cpus);
    std::fprintf(f, "  \"lockdep_overhead_8t\": %.3f,\n", ld_overhead);
    std::fprintf(f,
                 "  \"uncontended_lock_unlock_ns\": {\"std_mutex\": "
                 "%.2f, \"ordered_mutex_off\": %.2f, "
                 "\"ordered_mutex_enforce\": %.2f},\n",
                 plain_ns, off_ns, armed_ns);
    bool met = serialized_scaling >= 2.0 && ld_overhead <= 1.25;
    std::fprintf(f, "  \"criterion\": \"serialized_scaling_8t >= 2 && "
                    "lockdep_overhead_8t <= 1.25\",\n");
    std::fprintf(f, "  \"criterion_met\": %s\n", met ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_mem_contention.json\n");
    return met ? 0 : 1;
}

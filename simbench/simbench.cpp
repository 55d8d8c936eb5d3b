/**
 * @file
 * Measurement helper for the simulator benchmark (see README.md here).
 *
 * Three modes, each printing exactly one JSON object on stdout:
 *
 *   simbench sim    --config F --workload W --size N --iters N
 *                   --tiles N --threads N --scheduler M
 *                   --host-threads N --seed S [--traced]
 *       One whole simulation through Simulator / workloads::runSim in
 *       this (fresh) process. Reports set-up and run wall time, the
 *       simulated fingerprint, registry counters and spans. --traced
 *       also times a separate MemorySystem::validateCoherence() call.
 *
 *   simbench native --workload W --size N --iters N --threads N --seed S
 *       The workload's native reference checksum (WorkloadInfo::runNative).
 *
 *   simbench probes --config F --tiles N
 *       Per-layer unit costs: timed calls into the public functions of
 *       perf, mem, common (stats), network and host.
 *
 * Times come from std::chrono::steady_clock (CLOCK_MONOTONIC), so span
 * timestamps line up with run.py's time.monotonic_ns().
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/stats.h"
#include "core/simulator.h"
#include "host/scheduler.h"
#include "mem/memory_system.h"
#include "network/network.h"
#include "network/queue_model.h"
#include "perf/core_model.h"
#include "transport/cluster_topology.h"
#include "workloads/registry.h"

using namespace graphite;

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    std::string name;
    std::uint64_t startNs;
    std::uint64_t endNs;
};

std::string
spansJson(const std::vector<Span>& spans)
{
    std::string out = "[";
    for (size_t i = 0; i < spans.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}",
                      i ? "," : "", spans[i].name.c_str(),
                      static_cast<unsigned long long>(spans[i].startNs),
                      static_cast<unsigned long long>(spans[i].endNs));
        out += buf;
    }
    return out + "]";
}

/** JSON string literal body: escape quotes, backslashes, control bytes. */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/** Parsed "--key value" / "--flag" arguments. */
struct Args
{
    std::map<std::string, std::string> kv;

    const std::string&
    str(const std::string& key) const
    {
        auto it = kv.find(key);
        if (it == kv.end())
            throw FatalError("missing argument --" + key);
        return it->second;
    }
    long long num(const std::string& key) const
    {
        return std::atoll(str(key).c_str());
    }
    bool flag(const std::string& key) const { return kv.count(key) != 0; }
};

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0)
            throw FatalError("unexpected argument '" + k + "'");
        k = k.substr(2);
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            a.kv[k] = argv[++i];
        else
            a.kv[k] = "";
    }
    return a;
}

Config
loadConfig(const Args& a)
{
    Config cfg = defaultTargetConfig();
    cfg.parseFile(a.str("config"));
    cfg.setInt("general/total_tiles", a.num("tiles"));
    return cfg;
}

workloads::WorkloadParams
paramsFrom(const Args& a)
{
    workloads::WorkloadParams p =
        workloads::findWorkload(a.str("workload")).defaults;
    p.size = static_cast<int>(a.num("size"));
    p.iters = static_cast<int>(a.num("iters"));
    p.threads = static_cast<int>(a.num("threads"));
    p.seed = static_cast<std::uint64_t>(std::strtoull(
        a.str("seed").c_str(), nullptr, 10));
    return p;
}

// ------------------------------------------------------------------ sim

int
runSimulation(const Args& a)
{
    Config cfg = loadConfig(a);
    cfg.set("host/scheduler", a.str("scheduler"));
    cfg.setInt("host/threads", a.num("host-threads"));
    // The shutdown coherence check is part of the correctness gate.
    cfg.setBool("check/validate_at_shutdown", true);
    const workloads::WorkloadInfo& w =
        workloads::findWorkload(a.str("workload"));
    workloads::WorkloadParams p = paramsFrom(a);
    const bool traced = a.flag("traced");

    std::vector<Span> spans;
    std::string counters;
    double validateSec = -1;
    std::string coherence = "clean";
    workloads::SimRunResult r;
    double setupSec = 0, runSec = 0;
    {
        std::uint64_t t0 = nowNs();
        auto sim = std::make_unique<Simulator>(cfg);
        std::uint64_t t1 = nowNs();
        spans.push_back({"setup", t0, t1});
        setupSec = (t1 - t0) * 1e-9;

        r = workloads::runSim(*sim, w, p);
        std::uint64_t t2 = nowNs();
        spans.push_back({"run", t1, t2});
        runSec = (t2 - t1) * 1e-9;

        if (traced) {
            std::uint64_t v0 = nowNs();
            coherence = sim->memory().validateCoherence();
            std::uint64_t v1 = nowNs();
            spans.push_back({"validate", v0, v1});
            validateSec = (v1 - v0) * 1e-9;
        }

        static const char* const kCounters[] = {
            "mem.accesses_total",         "mem.l2_misses_total",
            "mem.tile_lock.acquisitions", "mem.tile_lock.contended",
            "mem.tile_lock.wait_ns",      "mem.shard_lock.acquisitions",
            "mem.shard_lock.contended",   "mem.shard_lock.wait_ns",
            "net.memory.packets",         "host.pool.quanta",
            "host.pool.yields",           "syscalls.total",
        };
        const StatsRegistry& reg = sim->stats();
        for (const char* name : kCounters) {
            char buf[128];
            std::snprintf(buf, sizeof buf, "%s\"%s\":%llu",
                          counters.empty() ? "" : ",", name,
                          static_cast<unsigned long long>(
                              reg.has(name) ? reg.get(name) : 0));
            counters += buf;
        }

        std::uint64_t d0 = nowNs();
        sim.reset();
        spans.push_back({"teardown", d0, nowNs()});
    }

    std::printf("{\"ok\":true,\"setup_s\":%.9f,\"run_s\":%.9f,"
                "\"validate_s\":%.9f,\"coherence\":\"%s\","
                "\"cycles\":%llu,\"instructions\":%llu,"
                "\"checksum\":%.17g,\"counters\":{%s},\"spans\":%s}\n",
                setupSec, runSec, validateSec,
                jsonEscape(coherence.empty() ? "clean" : coherence).c_str(),
                static_cast<unsigned long long>(r.simulatedCycles),
                static_cast<unsigned long long>(r.totalInstructions),
                r.checksum, counters.c_str(), spansJson(spans).c_str());
    return 0;
}

int
runNative(const Args& a)
{
    const workloads::WorkloadInfo& w =
        workloads::findWorkload(a.str("workload"));
    double sum = w.runNative(paramsFrom(a));
    std::printf("{\"ok\":true,\"checksum\":%.17g}\n", sum);
    return 0;
}

// --------------------------------------------------------------- probes

/**
 * Median over @p reps batches of @p body, which performs @p ops calls;
 * returns nanoseconds per call. A span covers all batches.
 */
double
timeProbe(const char* name, int reps, std::uint64_t ops,
          const std::function<void()>& body, std::vector<Span>& spans)
{
    std::vector<double> per;
    std::uint64_t s0 = nowNs();
    for (int i = 0; i < reps; ++i) {
        std::uint64_t t0 = nowNs();
        body();
        per.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(ops));
    }
    spans.push_back({name, s0, nowNs()});
    std::sort(per.begin(), per.end());
    return per[per.size() / 2];
}

int
runProbes(const Args& a)
{
    Config cfg = loadConfig(a);
    const tile_id_t tiles = static_cast<tile_id_t>(a.num("tiles"));
    constexpr int kReps = 5;
    std::vector<Span> spans;
    std::map<std::string, double> out;

    // perf: the core model's instruction accounting, with the call
    // shape of blackscholes' inner loop (runs of 40, 6 and 40).
    {
        CoreModel core(0, cfg);
        constexpr std::uint64_t kCalls = 3'000'000;
        out["perf.ns_per_instr"] =
            timeProbe("probe.perf.execute_instructions", kReps, kCalls,
                      [&] {
                          for (std::uint64_t i = 0; i < kCalls; i += 3) {
                              core.executeInstructions(InstrClass::FpMul, 40);
                              core.executeInstructions(InstrClass::FpDiv, 6);
                              core.executeInstructions(InstrClass::IntAlu,
                                                       40);
                          }
                      },
                      spans) *
            3.0 / 86.0;
    }

    // mem: an L1 read hit, and a write that recalls the line from the
    // other tile's cache every time (alternating writers).
    {
        ClusterTopology topo(tiles, 1);
        NetworkFabric fabric(topo, cfg);
        MemorySystem mem(topo, fabric, cfg);
        const addr_t hitAddr = 0x1000'0000;
        const addr_t pingAddr = 0x2000'0000;
        std::uint64_t v = 0;
        cycle_t t = 0;
        mem.access(0, MemAccessType::Read, hitAddr, &v, 8, t);
        constexpr std::uint64_t kHits = 400'000;
        out["mem.ns_per_l1_hit"] = timeProbe(
            "probe.mem.l1_hit", kReps, kHits,
            [&] {
                for (std::uint64_t i = 0; i < kHits; ++i)
                    t += mem.access(0, MemAccessType::Read, hitAddr, &v, 8,
                                    t)
                             .latency;
            },
            spans);
        constexpr std::uint64_t kMisses = 20'000;
        cycle_t clk[2] = {t, t};
        const NetworkModel& memNet = fabric.modelFor(PacketType::Memory);
        const stat_t packets0 = memNet.packetsRouted();
        out["mem.ns_per_coherence_miss"] = timeProbe(
            "probe.mem.coherence_miss", kReps, kMisses,
            [&] {
                for (std::uint64_t i = 0; i < kMisses; ++i) {
                    int w = static_cast<int>(i & 1);
                    v = i;
                    clk[w] += mem.access(static_cast<tile_id_t>(w),
                                         MemAccessType::Write, pingAddr,
                                         &v, 8, clk[w])
                                  .latency;
                }
            },
            spans);
        // Memory packets each probed miss routes, so the ledger can
        // split a miss into its mem and network shares.
        out["mem.probe_packets_per_miss"] =
            static_cast<double>(memNet.packetsRouted() - packets0) /
            static_cast<double>(kReps * kMisses);
        if (!mem.validateCoherence().empty())
            throw FatalError("mem probe left the memory system incoherent");
    }

    // common: the shared histogram every access records into.
    {
        HistogramStat h;
        constexpr std::uint64_t kRecords = 1'500'000;
        out["stats.ns_per_histogram_record"] = timeProbe(
            "probe.stats.histogram_record", kReps, kRecords,
            [&] {
                for (std::uint64_t i = 0; i < kRecords; ++i)
                    h.record(i & 1023);
            },
            spans);
        HistogramStat shared;
        constexpr int kThreads = 4;
        constexpr std::uint64_t kPerThread = 100'000;
        out["stats.ns_per_histogram_record_4t"] = timeProbe(
            "probe.stats.histogram_record_4t", kReps, kPerThread,
            [&] {
                std::vector<std::thread> ts;
                for (int k = 0; k < kThreads; ++k)
                    ts.emplace_back([&shared] {
                        for (std::uint64_t i = 0; i < kPerThread; ++i)
                            shared.record(i & 1023);
                    });
                for (std::thread& th : ts)
                    th.join();
            },
            spans);
    }

    // network: route one memory packet on the model the fabric uses for
    // memory traffic, and one enqueue on a bare queue model.
    {
        ClusterTopology topo(tiles, 1);
        NetworkFabric fabric(topo, cfg);
        NetworkModel& model = fabric.modelFor(PacketType::Memory);
        constexpr std::uint64_t kRoutes = 100'000;
        cycle_t t = 0;
        out["net.ns_per_route"] = timeProbe(
            "probe.net.route", kReps, kRoutes,
            [&] {
                for (std::uint64_t i = 0; i < kRoutes; ++i) {
                    auto src = static_cast<tile_id_t>(i % tiles);
                    auto dst = static_cast<tile_id_t>((i * 7 + 3) % tiles);
                    t += 1 + model.computeLatency(src, dst, 80, t) / 64;
                }
            },
            spans);
        QueueModel queue(nullptr);
        constexpr std::uint64_t kEnqueues = 1'000'000;
        cycle_t arrival = 0;
        out["net.ns_per_queue_enqueue"] = timeProbe(
            "probe.net.queue_enqueue", kReps, kEnqueues,
            [&] {
                for (std::uint64_t i = 0; i < kEnqueues; ++i)
                    arrival += 3 + queue.enqueue(arrival, 4) / 8;
            },
            spans);
    }

    // host: two cores on one deterministic slot, handing it to each
    // other at every quantum boundary.
    {
        Config hcfg = cfg;
        hcfg.set("host/scheduler", "deterministic");
        hcfg.setInt("host/threads", 1);
        host::SchedulerConfig sc = host::SchedulerConfig::fromConfig(hcfg);
        constexpr int kQuanta = 2000;
        std::vector<double> per;
        std::uint64_t s0 = nowNs();
        for (int rep = 0; rep < kReps; ++rep) {
            host::HostScheduler sched(sc, 2);
            CoreModel c0(0, hcfg), c1(1, hcfg);
            sched.expectThread(0);
            sched.registerThread(0, &c0);
            sched.expectThread(1);
            sched.registerThread(1, &c1);
            auto body = [&sched, &sc](tile_id_t tile, CoreModel& core) {
                sched.start(tile);
                for (int i = 0; i < kQuanta; ++i) {
                    core.addLatency(sc.quantumCycles);
                    sched.quantumCheck(tile);
                }
                sched.finishThread(tile);
            };
            std::uint64_t t0 = nowNs();
            std::thread a0(body, 0, std::ref(c0));
            std::thread a1(body, 1, std::ref(c1));
            a0.join();
            a1.join();
            std::uint64_t yields = sched.yieldsCounter()->load();
            per.push_back(static_cast<double>(nowNs() - t0) * 1e-3 /
                          static_cast<double>(std::max<std::uint64_t>(
                              yields, 1)));
        }
        spans.push_back({"probe.host.handoff", s0, nowNs()});
        std::sort(per.begin(), per.end());
        out["host.handoff_us"] = per[per.size() / 2];
    }

    std::string body;
    for (const auto& [name, value] : out) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s\"%s\":%.6f",
                      body.empty() ? "" : ",", name.c_str(), value);
        body += buf;
    }
    std::printf("{\"ok\":true,\"probes\":{%s},\"spans\":%s}\n",
                body.c_str(), spansJson(spans).c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string mode = argc > 1 ? argv[1] : "";
    try {
        Args a = parseArgs(argc, argv);
        if (mode == "sim")
            return runSimulation(a);
        if (mode == "native")
            return runNative(a);
        if (mode == "probes")
            return runProbes(a);
        std::fprintf(stderr, "usage: simbench sim|native|probes ...\n");
        return 2;
    } catch (const FatalError& err) {
        std::printf("{\"ok\":false,\"error\":\"%s\"}\n",
                    jsonEscape(err.what()).c_str());
        return 1;
    }
}

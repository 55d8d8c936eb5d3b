#!/usr/bin/env python3
"""Simulator benchmark: whole 16-tile simulations, one fresh process each.

Usage (from the repository root):

    python3 simbench/run.py --workload lu_non_cont.t16.free4 --seed 42 \
        --seconds 40 --trace 0

Builds simbench/ (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build/, then runs simulations of one workload back to back for
--seconds. Each simulation is one operation. Every run starts with two
deterministic-scheduler simulations of the same app and seed (the
fingerprint gate); the timed simulations run free-running on the 2 or 4
host slots the workload name gives (free2, free4). A simulation fails
when its process exits non-zero, coherence is not clean, its checksum
differs from the native reference, or (gate simulations) its simulated
cycles, instructions or checksum differ from the recorded fingerprint
or from the run's first gate simulation. The
last stdout line is one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the timed
simulations); --trace 1 reports the per-layer metrics and the per-layer
ledger and writes the spans to <build>/simbench-trace-<workload>-<seed>.json.
See simbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CONFIG = os.path.join(ROOT, "graphite.cfg")
TILES = 16
BUILD_JOBS = 4
DEFAULT_SEED = 42
SIM_TIMEOUT_S = 60
GATE_SIMS = 2
TIMED = "free_running"
GATE = "deterministic"

# name -> app, measured size, reduced size for --smoke, and host slots
# (host/threads) of every simulation. The CPU-bound apps run on 2 of the
# host's 4 CPUs, where other load on the host stretches them less;
# lu_non_cont, which mostly waits on hand-offs, is steadier on 4 (see
# README.md).
WORKLOADS = {
    "ocean_cont.t16.free2": {
        "app": "ocean_cont", "size": 384, "iters": 4,
        "smoke_size": 66, "smoke_iters": 1, "host_threads": 2,
    },
    "lu_non_cont.t16.free4": {
        "app": "lu_non_cont", "size": 64, "iters": 1,
        "smoke_size": 32, "smoke_iters": 1, "host_threads": 4,
    },
    "blackscholes.t16.free2": {
        "app": "blackscholes", "size": 65536, "iters": 8,
        "smoke_size": 2048, "smoke_iters": 1, "host_threads": 2,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "kips": "kIPS", "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build simbench; exit 1 (no result) on failure."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "simbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(BUILD_JOBS, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    with open(os.path.join(out, "build.log"), "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"simbench: build failed: {' '.join(cmd)} "
                    f"(see {logf.name})")
                sys.exit(1)
    return os.path.join(out, "simbench")


def run_process(cmd, timeout):
    """Run @cmd; return (exit code, stdout+stderr text, rusage)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        text = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, text, usage


def last_json(text):
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, args, binary):
        self.args = args
        self.binary = binary
        spec = WORKLOADS[args.workload]
        self.app = spec["app"]
        self.size = spec["smoke_size" if args.smoke else "size"]
        self.iters = spec["smoke_iters" if args.smoke else "iters"]
        self.host_threads = spec["host_threads"]
        self.sims = []      # one record per attempted simulation
        # Gate simulations must reproduce the recorded fingerprint at its
        # seed, and the run's first gate simulation at any other seed.
        with open(os.path.join(BENCH_DIR, "fingerprint.json")) as f:
            fingerprint = json.load(f)
        self.reference = None
        if not args.smoke and args.seed == fingerprint["seed"]:
            self.reference = fingerprint[args.workload]
        self.checksum = self.expected_checksum()

    def app_args(self):
        return ["--workload", self.app, "--size", str(self.size),
                "--iters", str(self.iters), "--threads", str(TILES),
                "--seed", str(self.args.seed)]

    def expected_checksum(self):
        if self.args.expect_checksum is not None:
            return self.args.expect_checksum
        code, text, _ = run_process(
            [self.binary, "native"] + self.app_args(), SIM_TIMEOUT_S)
        res = last_json(text)
        if code != 0 or res is None or not res.get("ok"):
            log(f"simbench: native reference failed:\n{text}")
            sys.exit(1)
        return res["checksum"]

    def simulate(self, kind):
        """One simulation in a fresh process; @kind is gate, untraced
        or traced. Appends and returns its record."""
        scheduler = GATE if kind == "gate" else TIMED
        cmd = [self.binary, "sim", "--config", CONFIG, "--tiles",
               str(TILES), "--scheduler", scheduler, "--host-threads",
               str(self.host_threads)] + self.app_args()
        if kind == "traced":
            cmd.append("--traced")
        t0 = time.monotonic_ns()
        code, text, usage = run_process(cmd, SIM_TIMEOUT_S)
        t1 = time.monotonic_ns()
        res = last_json(text) or {}
        rec = {"sim_id": len(self.sims), "kind": kind,
               "exit_code": code, "start_ns": t0, "end_ns": t1,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, **res}
        rec["error"] = self.check(kind, code, res, text)
        if rec["error"]:
            log(f"simbench: simulation {rec['sim_id']} ({kind}) failed: "
                f"{rec['error']}")
        self.sims.append(rec)
        return rec

    def check(self, kind, code, res, text):
        """Correctness gate; returns None or the reason for failure."""
        if code != 0 or not res.get("ok"):
            return res.get("error") or f"exit {code}: {text[-400:]}"
        if res["coherence"] != "clean":
            return "coherence: " + res["coherence"]
        if res["checksum"] != self.checksum:
            return (f"checksum {res['checksum']!r} != expected "
                    f"{self.checksum!r}")
        if kind == "gate":
            if self.reference is None:
                self.reference = {k: res[k] for k in
                                  ("cycles", "instructions", "checksum")}
            for key in ("cycles", "instructions", "checksum"):
                if res[key] != self.reference[key]:
                    return (f"{key} {res[key]} != fingerprint "
                            f"{self.reference[key]}")
        return None

    def ok_sims(self, kind):
        return [s for s in self.sims
                if s["kind"] == kind and not s["error"]]

    def counts(self):
        failed = sum(1 for s in self.sims if s["error"])
        return len(self.sims), failed

    def run_until(self, deadline, kinds):
        """Repeat rounds of @kinds simulations; never start a round that
        would end past @deadline (by the last round's length), so a run
        lasts --seconds. At least one round runs."""
        while True:
            t0 = time.monotonic()
            for kind in kinds:
                self.simulate(kind)
            now = time.monotonic()
            if self.args.smoke or now + (now - t0) > deadline:
                return


def end_to_end(sims):
    def med(f):
        return median([f(s) for s in sims])
    return {
        "setup_s": med(lambda s: s["setup_s"]),
        "run_s": med(lambda s: s["run_s"]),
        "kips": med(lambda s: s["instructions"] / s["run_s"] / 1e3),
        "cpu_s": med(lambda s: s["cpu_s"]),
        "peak_rss_mb": med(lambda s: s["peak_rss_mb"]),
    }


def per_layer(bench, probes, untraced, traced, gates):
    """Per-layer metrics and the ledger of one traced run."""
    base = traced or untraced

    def cmed(name):
        return median([s["counters"][name] for s in base])

    def ratio(num, den):
        return num / den if den else 0.0

    accesses = cmed("mem.accesses_total")
    misses = cmed("mem.l2_misses_total")
    packets = cmed("net.memory.packets")
    instructions = median([s["instructions"] for s in base])
    cpu_s = end_to_end(untraced or traced)["cpu_s"]
    det_cycles = median([s["cycles"] for s in gates])
    free_cycles = median([s["cycles"] for s in base])

    # Ledger: layer count x probe unit cost, against process CPU time.
    # The miss probe's time includes routing its own packets, which the
    # network row already charges, so mem takes only the remainder.
    miss_self_ns = max(0.0, probes["mem.ns_per_coherence_miss"] -
                       probes["mem.probe_packets_per_miss"] *
                       probes["net.ns_per_route"])
    ledger = {
        "ledger.perf_s": instructions * probes["perf.ns_per_instr"] * 1e-9,
        "ledger.mem_s": ((accesses - misses) * probes["mem.ns_per_l1_hit"]
                         + misses * miss_self_ns) * 1e-9,
        "ledger.net_s": packets * probes["net.ns_per_route"] * 1e-9,
        "ledger.host_s": cmed("host.pool.yields") *
        probes["host.handoff_us"] * 1e-6,
    }
    ledger["ledger.residual_s"] = cpu_s - sum(ledger.values())
    ledger["ledger.cpu_s"] = cpu_s

    metrics = {
        "core.init_ms_per_tile": (median([s["setup_s"] for s in
                                          untraced + traced])
                                  * 1e3 / TILES, "ms"),
        "core.validate_s": (median([s["validate_s"] for s in traced]), "s"),
        "core.syscalls": (cmed("syscalls.total"), "count"),
        "perf.instructions": (instructions, "count"),
        "perf.ns_per_instr": (probes["perf.ns_per_instr"], "ns"),
        "mem.accesses": (accesses, "count"),
        "mem.l2_miss_ratio": (ratio(misses, accesses), "ratio"),
        "mem.ns_per_l1_hit": (probes["mem.ns_per_l1_hit"], "ns"),
        "mem.ns_per_coherence_miss":
            (probes["mem.ns_per_coherence_miss"], "ns"),
        "mem.tile_lock.contended_frac":
            (ratio(cmed("mem.tile_lock.contended"),
                   cmed("mem.tile_lock.acquisitions")), "ratio"),
        "mem.tile_lock.wait_s": (cmed("mem.tile_lock.wait_ns") * 1e-9, "s"),
        "mem.shard_lock.contended_frac":
            (ratio(cmed("mem.shard_lock.contended"),
                   cmed("mem.shard_lock.acquisitions")), "ratio"),
        "mem.shard_lock.wait_s":
            (cmed("mem.shard_lock.wait_ns") * 1e-9, "s"),
        "stats.ns_per_histogram_record":
            (probes["stats.ns_per_histogram_record"], "ns"),
        "stats.ns_per_histogram_record_4t":
            (probes["stats.ns_per_histogram_record_4t"], "ns"),
        "net.packets_per_access": (ratio(packets, accesses), "ratio"),
        "net.ns_per_route": (probes["net.ns_per_route"], "ns"),
        "net.ns_per_queue_enqueue":
            (probes["net.ns_per_queue_enqueue"], "ns"),
        "host.quanta": (cmed("host.pool.quanta"), "count"),
        "host.yields": (cmed("host.pool.yields"), "count"),
        "host.busy_cpus":
            (median([s["cpu_s"] / s["run_s"] for s in untraced or traced]),
             "cpus"),
        "host.handoff_us": (probes["host.handoff_us"], "us"),
        "host.det_run_s": (median([s["run_s"] for s in gates]), "s"),
        "host.det_busy_cpus":
            (median([s["cpu_s"] / s["run_s"] for s in gates]), "cpus"),
        "sync.cycle_error_pct":
            (100.0 * ratio(abs(free_cycles - det_cycles), det_cycles), "%"),
        "trace.overhead_s": (median([s["run_s"] for s in traced]) -
                             median([s["run_s"] for s in untraced]), "s"),
    }
    for name, value in ledger.items():
        metrics[name] = (value, "s")

    print(f"ledger for {bench.args.workload} (seed {bench.args.seed}, "
          f"{len(untraced)} untraced / {len(traced)} traced simulations):")
    for name in ("ledger.perf_s", "ledger.mem_s", "ledger.net_s",
                 "ledger.host_s", "ledger.residual_s"):
        share = ratio(ledger[name], cpu_s)
        print(f"  {name:<18} {ledger[name]:9.4f} s  "
              f"{100 * share:6.1f}% of cpu_s {cpu_s:.4f} s")
    print(f"  tracing overhead   {metrics['trace.overhead_s'][0]:+9.4f} s "
          f"of run_s")
    return metrics, ledger


def write_trace(bench, probe_res, ledger, metrics):
    """Spans stay in memory until here; one file per traced run."""
    spans = []
    for s in bench.sims:
        sid = f"sim-{s['sim_id']}"
        spans.append({"name": "simulation", "sim_id": sid, "parent": None,
                      "kind": s["kind"], "start_ns": s["start_ns"],
                      "end_ns": s["end_ns"], "failed": bool(s["error"])})
        for c in s.get("spans", []):
            spans.append({"sim_id": sid, "parent": "simulation", **c})
    for c in probe_res["spans"]:
        spans.append({"sim_id": "probes", "parent": None, **c})
    path = bench.args.trace_out or os.path.join(
        os.path.dirname(bench.binary),
        f"simbench-trace-{bench.args.workload}-{bench.args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": bench.args.workload, "seed": bench.args.seed,
                   "spans": spans, "probes": probe_res["probes"],
                   "ledger": ledger,
                   "metrics": {k: v for k, (v, _) in metrics.items()}},
                  f, indent=1)
    log(f"simbench: trace written to {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced size, one round (self-test)")
    ap.add_argument("--expect-checksum", type=float, default=None,
                    help="override the native reference (self-test)")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    bench = Bench(args, binary)
    deadline = time.monotonic() + args.seconds
    for _ in range(GATE_SIMS):
        bench.simulate("gate")
    if args.trace:
        code, text, _ = run_process(
            [binary, "probes", "--config", CONFIG, "--tiles", str(TILES)],
            SIM_TIMEOUT_S)
        probe_res = last_json(text)
        if code != 0 or probe_res is None or not probe_res.get("ok"):
            log(f"simbench: probes failed:\n{text}")
            sys.exit(1)
        bench.run_until(deadline, ("untraced", "traced"))
        metrics, ledger = per_layer(
            bench, probe_res["probes"], bench.ok_sims("untraced"),
            bench.ok_sims("traced"), bench.ok_sims("gate"))
        write_trace(bench, probe_res, ledger, metrics)
    else:
        bench.run_until(deadline, ("untraced",))
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in
                   end_to_end(bench.ok_sims("untraced")).items()}
    attempted, failed = bench.counts()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()

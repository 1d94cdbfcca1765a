#!/usr/bin/env python3
"""PrestigeBFT benchmark: builds prestige_perf, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark binary (perfbench/src, built
with perfbench/CMakeLists.txt into $CARGO_TARGET_DIR or .bench_build) runs
one round per process: a fresh 4-replica PrestigeBFT deployment and one
client pool. This script starts rounds until --seconds have passed (at
least MIN_ROUNDS; at most MAX_SECONDS, so a run ends within three minutes),
derives each round's seed from --seed, and reports the median of every
metric over the rounds (the minimum for the end-to-end latency
percentiles, see e2e_of).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones plus the
tracing overhead (traced vs untraced values of the same run). Spans of the traced rounds are written under
<build dir>/spans/.

The last line of stdout is one JSON object:
    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
The line before it carries provenance (seed, nproc, build type,
sanitizers, a host-speed probe before and after the rounds) and every
round's raw values. Any correctness failure (safety
invariants, replay mismatch, result mismatches) exits 1 and prints no
metrics; so does a sanitized build asked for end-to-end numbers.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The per-round parameters of each workload live in src/main.cc.
WORKLOADS = ("socket-saturate", "kv-open", "leader-crash")

END_TO_END = {
    "throughput_ops": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MB",
    "failover_ms": "ms",
    "setup_s": "s",
}

CORE_MESSAGES = ["ClientBatch", "Ord", "OrdReply", "Cmt", "CmtReply",
                 "Heartbeat", "ClientComplaint", "ComptRelay", "ConfVC",
                 "ReVC", "Camp", "VoteCP", "VcBlockMsg", "VcYes", "SyncReq",
                 "SyncResp", "TxBlock", "timer", "other"]

PER_LAYER = {
    "client.replies_per_op": "count",
    "client.retransmits_per_kop": "count",
    "client.handler_us_per_op": "us",
    "workload.latency_p99_ms": "ms",
    "workload.admit_wait_ms_p99": "ms",
    "workload.backlog_peak": "count",
    "core.ops_per_block": "count",
    "core.msgs_per_op": "count",
    "core.handler_us_per_op": "us",
    **{"core.handler_us_per_op." + m: "us" for m in CORE_MESSAGES},
    "core.leader_busy_frac": "frac",
    "core.callback_ms_max": "ms",
    "core.vc_per_crash": "count",
    "core.vc_detect_ms": "ms",
    "core.vc_elect_ms": "ms",
    "core.vc_resume_ms": "ms",
    "reputation.leader_rp": "rp",
    "reputation.solve_ms": "ms",
    "crypto.hashes_per_op": "count",
    "ledger.chain_bytes_per_op": "bytes",
    "app.execute_us_per_op": "us",
    "app.execute_ms_max": "ms",
    "runtime.deliver_us_p50": "us",
    "runtime.deliver_us_p99": "us",
    "runtime.timer_late_us_p99": "us",
    "net.frames_per_op": "count",
    "net.bytes_per_op": "bytes",
    "net.loss_frac": "frac",
    "net.send_errors_per_kop": "count",
    "net.encode_us_per_msg": "us",
    "net.decode_us_per_msg": "us",
    "net.frame_us_per_msg": "us",
    "trace.cpu_overhead_frac": "frac",
    "trace.p50_overhead_frac": "frac",
}

# Reported as the minimum over a run's rounds (see e2e_of).
BEST_ROUND = ("latency_p50_ms", "latency_p90_ms")

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 90
# Rounds last a few seconds; this leaves room for the last one, the build
# check and the host probes inside three minutes.
MAX_SECONDS = 120


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    """Configures (once) and builds prestige_perf; returns its path."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 4, 4))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "prestige_perf"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return os.path.join(out, "prestige_perf")


def round_seed(seed, k):
    return (seed * 1000003 + k) % (1 << 62)


def host_probe():
    """A fixed job timed on this host, so that runs made in different host
    states can be told apart: wall milliseconds to hash 128 MiB on one
    thread and on one thread per CPU (hashlib releases the GIL on large
    buffers; on an idle host the two are about equal, contention stretches
    the parallel one), and the round trip of a two-thread queue ping-pong
    in microseconds (thread wake-up latency, which the runtimes' mailboxes
    and event loops pay on every message)."""
    data = bytes(1 << 22)

    def hash_job():
        for _ in range(32):
            hashlib.sha256(data).digest()

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def all_threads():
        threads = [threading.Thread(target=hash_job)
                   for _ in range(os.cpu_count() or 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    trips = 5000
    ping, pong = queue.SimpleQueue(), queue.SimpleQueue()

    def echo():
        for _ in range(trips):
            pong.put(ping.get())

    def ping_pong():
        echoer = threading.Thread(target=echo)
        echoer.start()
        for i in range(trips):
            ping.put(i)
            pong.get()
        echoer.join()

    return {"hash_one_thread_ms": round(timed(hash_job) * 1e3, 1),
            "hash_all_threads_ms": round(timed(all_threads) * 1e3, 1),
            "wake_round_trip_us": round(timed(ping_pong) / trips * 1e6, 2)}


def run_round(binary, workload, seed, trace, short, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if short:
        cmd.append("--short")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("round timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("round failed (exit %d): %s" %
                         (proc.returncode, proc.stderr.strip()[-500:]))
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise BenchError("correctness failure (%s seed %d): %s" %
                         (workload, seed, result.get("violation")))
    if result["build"]["sanitized"] and not trace:
        raise BenchError("sanitized build (%s): end-to-end numbers refused" %
                         result["build"]["sanitizers"])
    return result


def run(workload, seed, seconds, trace, short=False, min_rounds=MIN_ROUNDS):
    binary = build()
    spans_dir = os.path.join(build_dir(), "spans")
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
        for name in os.listdir(spans_dir):
            if name.startswith(workload + "-"):
                os.remove(os.path.join(spans_dir, name))
    start = time.monotonic()
    rounds = []
    while True:
        k = len(rounds)
        if k >= min_rounds and time.monotonic() - start >= seconds:
            break
        # Trace runs alternate untraced (even) and traced (odd) rounds.
        traced = trace and k % 2 == 1
        seed_k = round_seed(seed, k)
        spans = (os.path.join(spans_dir, "%s-seed%d-round%d.bin" %
                              (workload, seed, k)) if traced else None)
        rounds.append(run_round(binary, workload, seed_k, traced, short,
                                spans))
    return rounds


def median_of(rounds, section, name):
    return statistics.median(r[section][name] for r in rounds)


def e2e_of(rounds, name):
    """A run's value of an end-to-end metric: the median over its rounds,
    except for the latency percentiles. Host contention only ever adds
    latency, in bursts that hit some rounds of a run and not others (often
    most of them); the lowest of the rounds' percentiles is the latency of
    the least disturbed round, which is what a change to the program
    moves."""
    values = [r["e2e"][name] for r in rounds]
    return min(values) if name in BEST_ROUND else statistics.median(values)


def summarize(workload, seed, seconds, trace, rounds, host=None):
    plain = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    metrics = {}
    if trace:
        for name, unit in PER_LAYER.items():
            if name.startswith("trace."):
                continue
            metrics[name] = {"value": median_of(traced, "layers", name),
                             "unit": unit}
        for name, e2e in (("trace.cpu_overhead_frac", "cpu_us_per_op"),
                          ("trace.p50_overhead_frac", "latency_p50_ms")):
            metrics[name] = {
                "value": e2e_of(traced, e2e) / e2e_of(plain, e2e) - 1.0,
                "unit": PER_LAYER[name]}
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": e2e_of(rounds, name),
                             "unit": unit}
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "build": rounds[0]["build"], "rounds": len(rounds),
        "host_probe": host,
        "round_seeds": [r["seed"] for r in rounds],
        "round_latency_samples": [r["latency_samples"] for r in rounds],
        "round_e2e": [r["e2e"] for r in rounds],
    }
    summary = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    return provenance, summary


def check_names(summary, expected, label):
    got = summary["metrics"]
    if set(got) != set(expected):
        raise BenchError("%s: metric names differ: missing %s, extra %s" %
                         (label, sorted(set(expected) - set(got)),
                          sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise BenchError("%s: bad metric %s: %r" % (label, name, got[name]))


def self_test():
    """Runs every workload briefly, untraced and traced, and checks that
    every metric is present, finite and carries its unit, and that the
    metric lists match BENCHMARK.json."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            raise BenchError("BENCHMARK.json workloads differ from run.py")
        for key, table in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != table:
                raise BenchError("BENCHMARK.json %s differs from run.py" % key)
    for workload in WORKLOADS:
        for trace in (False, True):
            rounds = run(workload, 1, 0, trace, short=True,
                         min_rounds=2 if trace else 1)
            _, summary = summarize(workload, 1, 0, trace, rounds)
            label = "%s trace=%d" % (workload, trace)
            check_names(summary, PER_LAYER if trace else END_TO_END, label)
            if summary["failed"]:
                raise BenchError("%s: %d failed ops" % (label,
                                                        summary["failed"]))
            log("self-test %s: ok (%d rounds)" % (label, len(rounds)))
    print("self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            self_test()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not 0 <= args.seconds <= MAX_SECONDS:
            parser.error("--seconds must be between 0 and %d" % MAX_SECONDS)
        host = {"before": host_probe()}
        rounds = run(args.workload, args.seed, args.seconds, bool(args.trace))
        host["after"] = host_probe()
        provenance, summary = summarize(args.workload, args.seed,
                                        args.seconds, bool(args.trace), rounds,
                                        host)
    except BenchError as err:
        log(str(err))
        return 1
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

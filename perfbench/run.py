#!/usr/bin/env python3
"""Host-cost benchmark of the fabricsim simulator on four Fabric workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload raft-or-knee --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and the library under src/) in Release mode into
.bench_build/ on first use, then runs the named workload in fresh
perfbench_driver processes, one experiment at a time, for about --seconds
seconds. Every experiment's simulated outputs are checked: chain audit,
invariant verdicts where the workload checks them, and a fingerprint that
must repeat exactly across the run's experiments and, at the default seed,
equal the value pinned in perfbench/fingerprints.json.

--trace 0 reports the end-to-end metrics (medians over the experiments);
--trace 1 alternates untraced and traced experiments, runs the layer pass,
and reports the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ["raft-or-knee", "solo-and5-opt", "kafka-smallbank-hot",
             "raft-leader-crash"]
DEFAULT_SEED = 1
MIN_RUNS = 3          # untraced experiments per --trace 0 run, at least
SETUPS_PER_RUN = 5    # timed network set-ups per experiment process
LAYER_PASS_S = 1.5    # host time the driver's layer pass takes, with set-up
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

# Handler tags of the ordering service's own timers and continuations.
ORDERING_TAGS = ("raft/", "raft_orderer/", "kafka_broker/", "kafka_orderer/",
                 "zookeeper/", "solo/", "osn/")


class BenchError(Exception):
    """A build or driver failure: no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="fabricsim host-cost benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def run_checked(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns stdout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        remaining = max(1.0, deadline - time.monotonic())
        sys.stderr.write(run_checked(cmd, remaining))


def driver(workload, seed, mode, *extra):
    out = run_checked([DRIVER, "--workload", workload, "--seed", str(seed),
                       "--mode", mode, *extra], CHILD_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def host_config(seed):
    """The host stamp printed with every result."""
    info = json.loads(run_checked([DRIVER, "--info"], 30))
    if not info["optimized"] or info["sanitized"]:
        raise BenchError("refusing a debug or sanitizer build")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu=\"{cpu}\" "
            f"compiler=\"{info['compiler']}\" build={info['build_type']} "
            f"seed={seed}")


class Gate:
    """The correctness gate: every experiment's verdicts and fingerprint."""

    def __init__(self, workload, seed):
        self.pinned = None
        if seed == DEFAULT_SEED:
            with open(FINGERPRINTS, encoding="utf-8") as f:
                self.pinned = json.load(f).get(workload)
            if self.pinned is None:
                raise BenchError(f"no pinned fingerprint for {workload}")
        self.first = None
        self.attempted = 0
        self.failed = 0

    def check(self, rep):
        """Counts one experiment; returns whether it passed."""
        self.attempted += 1
        problems = []
        if not rep["chain_audit_ok"]:
            problems.append("chain audit failed")
        if rep["invariants_expected"] and not rep["invariants_checked"]:
            problems.append("invariants not checked")
        if not rep["invariants_ok"]:
            problems.append("invariant violation")
        fp = rep["fingerprint"]
        if self.first is None:
            self.first = fp
        if fp != self.first:
            problems.append(f"fingerprint differs across runs: {fp}")
        if self.pinned is not None and fp != self.pinned:
            problems.append(f"fingerprint {fp} != pinned {self.pinned}")
        for p in problems:
            sys.stderr.write(f"gate: {rep['mode']} run: {p}\n")
        if problems:
            self.failed += 1
        return not problems


def committed(rep):
    fp = rep["fingerprint"]
    return fp["committed_valid"] + fp["committed_invalid"]


def host_us_per_tx(rep):
    """Host time after set-up, through drain, per tx committed."""
    return (rep["wall_s"] - rep["setup_s"]) * 1e6 / committed(rep)


def measure(workload, seed, seconds, gate):
    """End-to-end metrics: host figures are medians over untraced
    experiments run for about `seconds`; the simulated latencies come from
    one traced experiment, whose simulated outputs the gate proves equal."""
    start = time.monotonic()
    trep = driver(workload, seed, "trace")
    gate.check(trep)
    reps = []
    while True:
        rep = driver(workload, seed, "run", "--setups", str(SETUPS_PER_RUN))
        if gate.check(rep):
            reps.append(rep)
        elapsed = time.monotonic() - start
        if gate.attempted > MIN_RUNS and \
                elapsed * (1 + 1 / gate.attempted) > seconds:
            break
    if gate.failed:
        return {}
    print(f"sim latency samples: {trep['latency_samples']}")
    fp = reps[0]["fingerprint"]
    med = lambda f: statistics.median(f(r) for r in reps)
    return {
        "host_us_per_tx": (med(host_us_per_tx), "us"),
        "setup_s": (med(lambda r: r["setup_s"]), "s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MiB"),
        "sim_goodput_tps": (fp["sim_goodput_tps"], "tx/s"),
        "sim_latency_p50_s": (trep["latency_p50_s"], "s"),
        "sim_latency_p99_s": (trep["latency_p99_s"], "s"),
        "tx_success_ratio": (fp["committed_valid"] / fp["generated"], "ratio"),
    }


def measure_layers(workload, seed, seconds, gate):
    """Alternating untraced/traced experiments, then the layer pass."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        rep = driver(workload, seed, "run", "--setups", "1")
        ok = gate.check(rep)
        trep = driver(workload, seed, "trace")
        if gate.check(trep) and ok:
            plain.append(rep)
            traced.append(trep)
        pairs = gate.attempted // 2
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / pairs) + LAYER_PASS_S > seconds:
            break
    layers = driver(workload, seed, "layers")
    gate.attempted += 1
    if gate.failed:
        return {}

    u, t = plain[0], traced[0]  # deterministic fields agree across runs
    n = committed(u)
    gen = u["fingerprint"]["generated"]
    med = lambda xs: statistics.median(xs)
    traced_wall = med([r["wall_s"] for r in traced])
    plain_wall = med([r["wall_s"] for r in plain])

    def handler_ns(pred):
        return med([sum(h["ns"] for name, h in r["handlers"].items()
                        if pred(name)) for r in traced])

    def per_tx(tag):
        return handler_ns(lambda name: name == tag) / n

    def sched_self(r):
        loop_ns = r["profile_events"] / r["profile_events_per_sec"] * 1e9
        return (loop_ns - r["profile_handler_ns"]) / r["profile_events"]

    lt = layers["txs"]

    def per_layer_tx(key):
        return layers[key] / lt

    def per_block(key):
        return layers[key] / layers["blocks"]

    layer_total_ns = sum(layers[k] for k in layers if k.endswith("_ns")) / lt
    traced_ns_per_tx = (traced_wall - u["setup_s"]) * 1e9 / n
    msp = t["msp_cache_hits"] + t["msp_cache_misses"]
    retries = med([r["handlers"].get("client/broadcast_retry",
                                     {"count": 0})["count"] for r in traced])

    m = {
        "sim.sched_self_ns_per_event": (med([sched_self(r) for r in traced]),
                                        "ns"),
        "sim.events_per_tx": (u["sched_events"] / n, "count"),
        "sim.events_per_s": (med([r["sched_events"] / (r["wall_s"] -
                                                       r["setup_s"])
                                  for r in plain]), "1/s"),
        "sim.cpu_job_done_ns_per_tx": (per_tx("cpu/job_done"), "ns"),
        "sim.net_deliver_ns_per_tx": (per_tx("net/deliver"), "ns"),
        "sim.net.msgs_per_tx": (u["messages_sent"] / n, "count"),
        "sim.net.bytes_per_tx": (u["bytes_sent"] / n, "B"),
        "sim.latency_samples": (t["latency_samples"], "count"),
        "client.sdk_pre_ns_per_tx": (per_tx("client/sdk_pre"), "ns"),
        "client.sdk_post_ns_per_tx": (per_tx("client/sdk_post"), "ns"),
        "client.generate_ns_per_tx": (per_tx("workload/generate"), "ns"),
        "client.retries_per_tx": (retries / gen, "count"),
        "client.rate_check_fraction": (u["rate_check_fraction"], "ratio"),
        "ordering.timer_ns_per_tx": (
            handler_ns(lambda name: name.startswith(ORDERING_TAGS)) / n, "ns"),
        "ordering.txs_per_block": (u["txs_per_block"], "count"),
        "ordering.order_p50_s": (u["order_p50_s"], "s"),
        "peer.execute_p50_s": (u["execute_p50_s"], "s"),
        "peer.validate_p50_s": (u["validate_p50_s"], "s"),
        "peer.util.execute": (t["util"]["execute"], "ratio"),
        "ordering.util.order": (t["util"]["order"], "ratio"),
        "peer.util.validate": (t["util"]["validate"], "ratio"),
        "peer.util.validator_disk": (t["util"]["validator_disk"], "ratio"),
        "crypto.verifies_per_tx": (per_layer_tx("verifies"), "count"),
        "crypto.msp_cache_hit_ratio": (
            t["msp_cache_hits"] / msp if msp else 0.0, "ratio"),
        "proto.envelope_bytes": (per_layer_tx("envelope_bytes"), "B"),
        "ledger.mvcc_valid_ratio": (
            u["fingerprint"]["committed_valid"] / n, "ratio"),
        "metrics.tracker_records_hwm": (u["tracker_records_hwm"], "count"),
        "faults.unavailable_s": (t.get("unavailable_s", 0.0), "s"),
        "bench.trace_overhead_ratio": (traced_wall / plain_wall, "ratio"),
        "bench.layer_pass_share": (layer_total_ns / traced_ns_per_tx, "ratio"),
        "chaincode.invoke_ns_per_tx": (per_layer_tx("chaincode_invoke_ns"),
                                       "ns"),
        "crypto.sign_ns_per_tx": (per_layer_tx("crypto_sign_ns"), "ns"),
        "crypto.verify_ns_per_tx": (per_layer_tx("crypto_verify_ns"), "ns"),
        "policy.evaluate_ns_per_tx": (per_layer_tx("policy_evaluate_ns"), "ns"),
        "proto.serialize_ns_per_tx": (per_layer_tx("proto_serialize_ns"), "ns"),
        "proto.block_make_ns_per_block": (per_block("proto_block_make_ns"),
                                          "ns"),
        "ordering.blockcutter_ns_per_tx": (per_layer_tx("blockcutter_ns"),
                                           "ns"),
        "ledger.mvcc_validate_ns_per_tx": (per_layer_tx("mvcc_validate_ns"),
                                           "ns"),
        "ledger.state_commit_ns_per_tx": (per_layer_tx("state_commit_ns"),
                                          "ns"),
        "ledger.block_append_ns_per_block": (per_block("block_append_ns"),
                                             "ns"),
    }
    if m["faults.unavailable_s"][0] < 0:
        gate.failed += 1
        sys.stderr.write("gate: no commit of post-crash work\n")
        return {}
    return m


def main(argv):
    args = parse_args(argv)
    try:
        build()
        print("host: " + host_config(args.seed), flush=True)
        gate = Gate(args.workload, args.seed)
        if args.trace:
            metrics = measure_layers(args.workload, args.seed, args.seconds,
                                     gate)
        else:
            metrics = measure(args.workload, args.seed, args.seconds, gate)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}
                   if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

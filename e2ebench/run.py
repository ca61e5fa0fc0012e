#!/usr/bin/env python3
"""End-to-end benchmark of the ESCAPE emulator.

    python3 e2ebench/run.py --workload chain_fwd --seed 1 --seconds 10 --trace 0

Builds e2ebench/ (Release) into .bench_build/e2ebench, then repeats one
workload for --seconds. Every repetition is a fresh escape_e2e process
doing a fixed amount of work, so history never carries over between
repetitions and a faster build only gets more repetitions, not more
history. The repetitions cycle through PLANS_PER_RUN plan seeds derived
from --seed, whole cycles only, so a run's medians cover several
generated plans rather than one plan's luck; a run ends at the cycle
boundary nearest to --seconds, after one cycle at least. Each repetition checks its
own outputs; any failed check stops the run with a non-zero exit before
a metric is printed.

Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
(--trace 1) alternate untraced and traced repetitions and report the
per-layer metrics, the tracing overhead and the explained share of the
per-packet time; the traced repetitions write their spans under
.bench_build/e2ebench/spans/.

Every time a metric reports is host-normalized. Each repetition also
times a fixed reference task of the benchmark's own (reference.cpp)
before set-up, after set-up, several times inside the timed phase
(excluded from its wall time) and at the end. The host's speed during
the repetition is REFERENCE_S over the median of those samples, and
each time the repetition measured is multiplied by it (each rate
divided). On a shared host whose speed swings within minutes, this
keeps a slow minute from reading as a slow program. The raw figures
are printed on the report lines beside the metrics.

Report lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "escape_e2e"
SPANS = BUILD / "spans"

WORKLOADS = ("chain_fwd", "fattree_mix", "chain_churn")
REP_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 840
# Plan seeds per run: repetition i runs plan seed
# --seed * PLANS_PER_RUN + i % PLANS_PER_RUN.
PLANS_PER_RUN = 8
# Fixed scale of the normalized figures: they read as measured on a host
# where the reference task takes this many seconds.
REFERENCE_S = 0.011

# name -> unit, in the order the result line lists them
END_TO_END = {
    "setup_s": "s",
    "pkt_per_s": "packets/s",
    "deploy_ms_p50": "ms",
    "undeploy_ms_p50": "ms",
    "monitor_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "escape.load_topology_ms": "ms",
    "escape.start_ms": "ms",
    "escape.initial_deploy_ms": "ms",
    "util.event.per_pkt": "count",
    "util.event.pending_p50": "count",
    "util.event.replay_ns": "ns",
    "util.shard.speedup_2v1": "ratio",
    "util.shard.cpu_per_wall": "ratio",
    "net.alloc_per_pkt": "count",
    "net.alloc_bytes_per_pkt": "B",
    "net.pool_fresh_per_pkt": "count",
    "net.clones_per_pkt": "count",
    "net.parse_replay_ns": "ns",
    "netemu.link_hops_per_pkt": "count",
    "netemu.link_drops": "count",
    "netemu.latency_records_per_pkt": "count",
    "netemu.links_total": "count",
    "openflow.lookups_per_hop": "ratio",
    "openflow.miss_ratio": "fraction",
    "openflow.memo_hit_ratio": "fraction",
    "openflow.lookup_replay_ns": "ns",
    "openflow.entries_max": "count",
    "click.replay_ns_per_pkt.monitor": "ns",
    "click.replay_ns_per_pkt.firewall": "ns",
    "click.replay_ns_per_pkt.flow_nat": "ns",
    "click.replay_ns_per_pkt.tcp_ids": "ns",
    "click.build_ms_p50": "ms",
    "click.fw_cache_hit_ratio": "fraction",
    "click.flow_hit_rate": "fraction",
    "click.flows_max": "count",
    "pox.packet_ins_per_pkt": "count",
    "pox.msgs_per_deploy": "count",
    "pox.flowmods_per_deploy": "count",
    "netconf.rpcs_per_deploy": "count",
    "netconf.failures": "count",
    "orchestrator.map_us": "us",
    "obs.series_total": "count",
    "churn.deploy_drift": "ratio",
    "churn.rss_kb_per_lifecycle": "KiB",
    "split.explained": "fraction",
    "trace.overhead": "fraction",
}

# Per-layer units that are times, host-normalized like the end-to-end ones.
TIME_UNITS = ("ms", "us", "ns")

# Ladder the tail helper picks from.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


class RunFailed(Exception):
    pass


def say(line):
    print(line, flush=True)


def nearest_rank(samples, p):
    """Nearest-rank percentile p (0 < p <= 100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(samples, min_beyond=10):
    """Highest percentile of PERCENTILES with at least `min_beyond`
    samples above it, as (percentile, value, sample count); None when
    not even the median has that many."""
    n = len(samples)
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            best = p
    if best is None:
        return None
    return best, nearest_rank(samples, best), n


def build():
    """Configures (once) and builds escape_e2e; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "escape_e2e", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            raise RunFailed(f"build step {' '.join(cmd)} failed: {err}") from err
        if proc.returncode != 0:
            raise RunFailed(f"build step {' '.join(cmd)} exited {proc.returncode}")


def run_rep(workload, seed, trace, spans_path=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as err:
        raise RunFailed(f"{workload} seed {seed}: repetition timed out after {REP_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    doc = None
    if lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            doc = None
    if proc.returncode != 0 or doc is None:
        reasons = (doc or {}).get("failures") or [proc.stderr.strip() or f"exit {proc.returncode}"]
        raise RunFailed(f"{workload} seed {seed}: " + "; ".join(reasons))
    if not doc["fingerprint"].get("optimized"):
        raise RunFailed("escape_e2e was built without optimization; refusing to report metrics")
    return doc


def plan_seeds(seed):
    return [seed * PLANS_PER_RUN + i for i in range(PLANS_PER_RUN)]


def by_plan(reps):
    """The first repetition of each plan seed, in plan order."""
    first = {}
    for r in reps:
        first.setdefault(r["seed"], r)
    return [first[s] for s in sorted(first)]


def check_reps(reps):
    """Repetitions of one plan seed must agree exactly on their inputs
    and on every virtual-time output; every repetition must get the same
    result from the reference task."""
    firsts = {r["seed"]: r for r in by_plan(reps)}
    for r in reps:
        first = firsts[r["seed"]]
        if r["inputs_digest"] != first["inputs_digest"]:
            raise RunFailed(f"generated inputs differ between repetitions of plan seed {r['seed']}")
        if r["reference_digest"] != reps[0]["reference_digest"]:
            raise RunFailed("the reference task's digest differs between repetitions")
        if r["virt"] != first["virt"] or r["sent"] != first["sent"]:
            raise RunFailed(f"virtual-time outputs differ between repetitions of plan seed {r['seed']}: "
                            f"{first['virt']} vs {r['virt']}")


def speed(rep):
    """The host's speed during a repetition, relative to REFERENCE_S:
    below 1 when the reference task ran slower than that."""
    return REFERENCE_S / statistics.median(rep["reference_s"])


def merged(reps, key, normalized=True):
    """Every sample of `key` over the repetitions, each host-normalized
    by its own repetition's speed unless `normalized` is false."""
    return [x * (speed(r) if normalized else 1.0) for r in reps for x in r[key]]


def end_to_end(reps, normalized=True):
    """Every end-to-end metric as (value, sample count, how)."""
    def k(r):
        return speed(r) if normalized else 1.0
    out = {
        "setup_s": (statistics.median(r["setup_s"] * k(r) for r in reps), len(reps),
                    "median of repetitions"),
        "pkt_per_s": (statistics.median(r["sent"] / (r["packet_wall_s"] * k(r)) for r in reps),
                      len(reps), "median of repetitions"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024.0 for r in reps), len(reps),
                        "median of repetitions"),
    }
    for op in ("deploy", "undeploy", "monitor"):
        samples = merged(reps, op + "_ms", normalized)
        if not samples:
            raise RunFailed(f"no {op} calls were timed")
        out[op + "_ms_p50"] = (nearest_rank(samples, 50), len(samples), "p50 of all calls")
    return out


def report(workload, seed, reps, traced_reps):
    fp = reps[0]["fingerprint"]
    say(f"# e2ebench {workload} seed={seed} repetitions={len(reps)} untraced"
        + (f", {len(traced_reps)} traced" if traced_reps else ""))
    say(f"# host: nproc={fp['nproc']} cpu=\"{fp['cpu_model']}\" compiler=\"{fp['compiler']}\" "
        f"build={fp['build_type']} flags=\"{fp['cxx_flags']}\" loadavg_1m={fp['loadavg_1m']:.2f}")
    plans = by_plan(reps)
    say(f"# plan seeds {plans[0]['seed']}-{plans[-1]['seed']}, per plan: sent="
        + " ".join(str(r["sent"]) for r in plans) + " delivered="
        + " ".join(str(r["delivered"]) for r in plans))
    refs = [statistics.median(r["reference_s"]) for r in reps]
    say(f"# host speed: reference task {statistics.median(refs) * 1e3:.3f} ms "
        f"(range {min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f}), "
        f"speed {statistics.median(speed(r) for r in reps):.4f} of the {REFERENCE_S * 1e3:g} ms "
        "the times below are normalized to")


def print_metric(name, value, unit, n=None, how=None):
    extra = f"  (n={n}, {how})" if n is not None else ""
    say(f"{name} = {value:.6g} {unit}{extra}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must not be negative")

    try:
        build()
        reps, traced = [], []
        seeds = plan_seeds(args.seed)
        t0 = cycle_start = time.monotonic()
        while True:
            seed = seeds[len(reps) % PLANS_PER_RUN]
            reps.append(run_rep(args.workload, seed, trace=False))
            if args.trace:
                SPANS.mkdir(parents=True, exist_ok=True)
                spans = SPANS / f"{args.workload}-seed{args.seed}-{len(traced)}.json"
                traced.append(run_rep(args.workload, seed, trace=True, spans_path=spans))
            if len(reps) % PLANS_PER_RUN == 0:
                now = time.monotonic()
                # Stop here unless another cycle ends nearer to --seconds.
                if now + (now - cycle_start) / 2 >= t0 + args.seconds:
                    break
                cycle_start = now
        check_reps(reps + traced)
        e2e = end_to_end(reps)
    except RunFailed as err:
        print(f"e2ebench: {err}", file=sys.stderr)
        return 1

    report(args.workload, args.seed, reps, traced)
    for name, unit in END_TO_END.items():
        value, n, how = e2e[name]
        print_metric(name, value, unit, n, how)
    raw = end_to_end(reps, normalized=False)
    say("# as measured, before host normalization: "
        + ", ".join(f"{name}={raw[name][0]:.6g}" for name in END_TO_END))

    # Reported alongside, not bounded: tails, scaling, failure and loss.
    for op in ("deploy", "undeploy", "scale"):
        samples = merged(reps, op + "_ms")
        tail = tail_percentile(samples)
        if op == "scale" and samples:
            print_metric("scale_ms_p50", nearest_rank(samples, 50), "ms", len(samples), "p50 of all calls")
        if tail and tail[0] > 50:
            p, v, n = tail
            print_metric(f"{op}_ms_p{p:g}", v, "ms", n, "highest percentile with >=10 samples beyond")
    attempted = sum(r["ops_attempted"] for r in reps + traced)
    failed = sum(r["ops_failed"] for r in reps + traced)
    print_metric("op_fail_ratio", failed / attempted if attempted else 0.0, "fraction", attempted,
                 "failed public calls / attempted")
    plans = by_plan(reps)
    sent = sum(r["sent"] for r in plans)
    delivered = sum(r["delivered"] for r in plans)
    print_metric("loss_ratio", 1 - delivered / sent if sent else 0.0, "fraction", sent,
                 "1 - delivered/sent over one repetition of each plan")
    # Per-plan outputs, one value per plan seed in plan order.
    for key in sorted(k for k in plans[0]["report"] if k != "loss_ratio"):
        say(f"{key} = " + " ".join(str(r["report"][key]) for r in plans))
    for key in sorted(plans[0]["virt"]):
        say(f"virt.{key} = " + " ".join(str(r["virt"][key]) for r in plans))

    metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        layers = {}
        for name, unit in PER_LAYER.items():
            k = speed if unit in TIME_UNITS else (lambda r: 1.0)
            values = [r["layers"][name] * k(r) for r in traced if name in r.get("layers", {})]
            if values:
                layers[name] = statistics.median(values)
        # reps[i] and traced[i] ran the same plan seed, one after the other.
        pairs = list(zip(reps, traced))
        layers["trace.overhead"] = statistics.median(
            (t["timed_s"] * speed(t)) / (u["timed_s"] * speed(u)) for u, t in pairs) - 1
        layers["split.explained"] = statistics.median(
            t["layers"]["split.explained_ns_per_pkt"] * speed(t)
            / (u["timed_s"] * speed(u) * 1e9 / max(1, u["sent"])) for u, t in pairs)
        missing = [name for name in PER_LAYER if name not in layers]
        if missing:
            print(f"e2ebench: traced run did not measure {', '.join(missing)}", file=sys.stderr)
            return 1
        say(f"# spans: {', '.join(str(SPANS / f'{args.workload}-seed{args.seed}-{i}.json') for i in range(len(traced)))}")
        for name, unit in PER_LAYER.items():
            print_metric(name, layers[name], unit)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}

    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Per-block medians of control-plane call times from escape_e2e result lines.

escape_e2e (e2ebench/) ends its stdout with one JSON result line that
holds every call's wall time in order: deploy_ms, undeploy_ms,
monitor_ms and scale_ms. On chain_churn the calls run lifecycle after
lifecycle, so cutting each series into equal blocks by position shows
whether a call gets slower as the emulator's history grows:

    .bench_build/e2ebench/escape_e2e --workload chain_churn --seed 3 --trace 1 \\
        | python3 tools/lifecycle_blocks.py --check-flat 1.5

Input: files named on the command line, or stdin. Every line that parses
as a JSON object with at least one of the series counts as a result
line; others (report lines, logs) are skipped. With several result lines
(repetitions), sample i of a series with n samples joins block
floor(i * BLOCKS / n) and the blocks pool all repetitions, so a slow
minute of the host in one repetition weighs less. Times are the raw
milliseconds the result lines carry, not host-normalized.

For each of the four series the tool prints the BLOCKS (10) block
medians and the ratio of the last block's median to the first's. A
series with fewer samples than blocks is reported as n/a and never
checked.

--check-flat R   exit 1 if any printed ratio exceeds R
--self-test      check the tool itself on synthetic input

Exit status: 0 ok, 1 a ratio exceeds --check-flat, 2 no usable input.
"""

import argparse
import json
import statistics
import sys

SERIES = ("deploy_ms", "undeploy_ms", "scale_ms", "monitor_ms")
BLOCKS = 10


def parse_results(lines):
    """-> list of result documents (dicts holding at least one series)."""
    docs = []
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and any(isinstance(doc.get(k), list) for k in SERIES):
            docs.append(doc)
    return docs


def block_medians(docs, key):
    """-> per-block medians of `key` pooled over docs, or None if too short."""
    pooled = [[] for _ in range(BLOCKS)]
    for doc in docs:
        samples = doc.get(key) or []
        if len(samples) < BLOCKS:
            continue
        for i, x in enumerate(samples):
            pooled[i * BLOCKS // len(samples)].append(float(x))
    if not all(pooled):
        return None
    return [statistics.median(b) for b in pooled]


def report(docs, out):
    """Prints one line per series; -> {series: last/first ratio}."""
    ratios = {}
    for key in SERIES:
        medians = block_medians(docs, key)
        if medians is None:
            print(f"{key:12} n/a", file=out)
            continue
        ratio = medians[-1] / medians[0] if medians[0] > 0 else float("inf")
        ratios[key] = ratio
        cells = " ".join(f"{m:.3f}" for m in medians)
        print(f"{key:12} {cells}  last/first {ratio:.2f}", file=out)
    return ratios


def run(lines, check_flat, out, err=sys.stderr):
    docs = parse_results(lines)
    if not docs:
        print("lifecycle_blocks: no escape_e2e result line in the input", file=err)
        return 2
    print(f"{len(docs)} result line(s), {BLOCKS} blocks, medians in ms", file=out)
    ratios = report(docs, out)
    if check_flat is None:
        return 0
    steep = {k: r for k, r in ratios.items() if r > check_flat}
    for key, ratio in steep.items():
        print(f"FAIL {key}: last/first {ratio:.2f} > {check_flat}", file=out)
    return 1 if steep else 0


def self_test():
    class Sink:
        def __init__(self):
            self.text = ""

        def write(self, s):
            self.text += s

    def line(**series):
        return json.dumps({"workload": "chain_churn", **series})

    flat = [1.0 + 0.01 * (i % 7) for i in range(500)]
    growing = [0.2 + 0.01 * i for i in range(500)]  # block medians 0.445 .. 4.945
    lines = [
        "# a report line",
        line(deploy_ms=flat, undeploy_ms=growing, scale_ms=flat[:200], monitor_ms=flat[:5]),
    ]
    sink = Sink()
    failures = []
    if run(lines, None, sink) != 0:
        failures.append("report-only run did not exit 0")
    if run(lines, 1.5, sink) != 1:
        failures.append("growing undeploy_ms passed --check-flat 1.5")
    if "FAIL undeploy_ms" not in sink.text or "FAIL deploy_ms" in sink.text:
        failures.append("--check-flat flagged the wrong series")
    if "monitor_ms" not in sink.text or "n/a" not in sink.text:
        failures.append("a series shorter than the block count was not reported n/a")
    medians = block_medians(parse_results(lines), "undeploy_ms")
    if medians is None or abs(medians[0] - 0.445) > 1e-9 or abs(medians[-1] - 4.945) > 1e-9:
        failures.append(f"wrong block medians: {medians}")
    flat_only = [line(deploy_ms=flat, undeploy_ms=flat), line(deploy_ms=flat, undeploy_ms=flat)]
    if run(flat_only, 1.5, Sink()) != 0:
        failures.append("flat series failed --check-flat 1.5")
    # Pooling: a repetition twice as slow throughout leaves the ratio flat.
    slow = [2 * x for x in flat]
    if run([line(undeploy_ms=flat), line(undeploy_ms=slow)], 1.2, Sink()) != 0:
        failures.append("pooling two flat repetitions read as growth")
    if run(["not json", "{}"], 1.5, Sink(), Sink()) != 2:
        failures.append("input without a result line did not exit 2")
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    print("self-test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="files of escape_e2e output (default: stdin)")
    parser.add_argument("--check-flat", type=float, metavar="R",
                        help="exit 1 if any last/first block ratio exceeds R")
    parser.add_argument("--self-test", action="store_true", help="test the tool on synthetic input")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    lines = []
    if args.files:
        for path in args.files:
            with open(path) as fh:
                lines.extend(fh)
    else:
        lines = sys.stdin.readlines()
    return run(lines, args.check_flat, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())

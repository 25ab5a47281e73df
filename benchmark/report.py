#!/usr/bin/env python3
"""Read the result files the benchmark leaves in benchmark/out/.

  report.py overhead DIR        tracing overhead of each workload in DIR
  report.py compare DIR_A DIR_B fail if B is worse than A beyond a bound
  report.py show DIR_A DIR_B    the same table, never failing
"""
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def results(directory, trace):
    """{workload: {metric: value}} of the runs in `directory`."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, f"result-*-trace{trace}.json"))):
        workload = os.path.basename(path)[len("result-"):-len(f"-trace{trace}.json")]
        with open(path) as f:
            metrics = json.load(f)["result"]["metrics"]
        out[workload] = {name: m["value"] for name, m in metrics.items()}
    return out


def overhead(directory):
    untraced, traced = results(directory, 0), results(directory, 1)
    for workload, metrics in untraced.items():
        base = metrics["op_ms_p50"]
        with_spans = traced.get(workload, {}).get("bench.op_ms_p50")
        if base and with_spans:
            print(f"trace_overhead_ratio {workload:<20} {with_spans / base:.4f}"
                  f"  (traced {with_spans:.3f} ms over untraced {base:.3f} ms)")
    return 0


def compare(dir_a, dir_b, enforce):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = results(dir_a, 0), results(dir_b, 0)
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            first, second = a[workload][m["name"]], b[workload][m["name"]]
            change = (second - first) / first
            regress = change if m["better"] == "lower" else -change
            verdict = "ok" if regress <= m["bound"] else "WORSE"
            worse += verdict == "WORSE"
            print(f"{workload:<20} {m['name']:<14} {first:>14.4f} {second:>14.4f} {m['unit']:<4}"
                  f" {change:+8.2%} (bound {m['bound']:.0%}) {verdict}")
    # One client, fixed ops: the ledger must charge the same to the bit.
    unequal = 0
    ta, tb = results(dir_a, 1), results(dir_b, 1)
    for workload in ta:
        if workload != "server_mix":
            first, second = ta[workload]["cost_units_per_op"], tb[workload]["cost_units_per_op"]
            verdict = "equal" if first == second else "DIFFERS"
            unequal += verdict == "DIFFERS"
            print(f"{workload:<20} cost_units_per_op {first!r} {second!r} {verdict}")
    return 1 if unequal or (enforce and worse) else 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "overhead":
        sys.exit(overhead(*args))
    sys.exit(compare(*args, enforce=mode == "compare"))

#!/usr/bin/env python3
"""Build and run the simulator's layer benchmark, or compare two result sets.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload closed-h2-jade --seed 42 \
        --seconds 30 --trace 0 [--record results.jsonl]

The benchmark is built from source with dune, then run; its standard
output is passed through, and its last line is one JSON object with the
keys correct, attempted, failed and metrics.  --record appends that
result, tagged with its workload and seed, to a JSON-lines file.

Compare two recorded result sets (for example the parent commit and a
change, measured with the same benchmark and settings):

    python3 perfbench/run.py compare parent.jsonl change.jsonl

For every workload and end-to-end metric it prints each side's median
and quartiles, the pairs each side won, and a verdict (see verdict()).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run ends within 180 s; the first one in a checkout, which builds
# everything, within 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no compiler or worker outlives the benchmark."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    return code == 0


def last_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def run(args):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    result = last_result(out) if code == 0 else None
    if result is None:
        sys.stderr.write(out)
        print(f"perfbench: run failed (exit {code}, no result line)", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Compare mode.

def load(path):
    """workload -> metric -> values, in recorded order (end-to-end runs only)."""
    sets = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace", 0) != 0:
                continue
            for name, m in rec["result"]["metrics"].items():
                sets.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Judge one workload x metric.

    improved: the change wins at least 9 in 10 pairs (ties count for
      neither) and the medians differ by more than the parent's own
      quartile spread, or every change run beats every parent run;
    unresolved: otherwise, when either side's quartile spread (as a share
      of its median) exceeds the metric's bound;
    worse: the change's median is worse than the parent's by more than
      the bound;
    unchanged: otherwise.
    """
    sign = 1 if better == "higher" else -1
    gain = lambda a, b: sign * (a - b)  # > 0 when a is better than b
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if gain(c, p) > 0)
    lost = sum(1 for p, c in pairs if gain(c, p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0, (c3 - c1) / abs(cm) if cm else 0)
    if (pairs and won >= 0.9 * len(pairs) and gain(cm, pm) > p3 - p1) or \
            all(gain(c, p) > 0 for p in parent for c in change):
        v = "improved"
    elif spread > bound:
        v = "unresolved"
    elif pm and -gain(cm, pm) / abs(pm) > bound:
        v = "worse"
    else:
        v = "unchanged"
    return v, won, lost, (p1, pm, p3), (c1, cm, c3), spread


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':20} {'metric':20} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5} {'lost':>5} {'spread':>7} verdict")
    for workload in sorted(set(parent) | set(change)):
        for name, m in spec.items():
            p = parent.get(workload, {}).get(name, [])
            c = change.get(workload, {}).get(name, [])
            if not p or not c:
                print(f"{workload:20} {name:20} missing on one side")
                continue
            v, won, lost, pq, cq, spread = verdict(p, c, m["better"], m["bound"])
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{workload:20} {name:20} {fmt(pq):>34} {fmt(cq):>34} "
                  f"{won:>5} {lost:>5} {spread:>7.3f} {v}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent")
        ap.add_argument("change")
        return compare(ap.parse_args(sys.argv[2:]))
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result to this JSON-lines file")
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())

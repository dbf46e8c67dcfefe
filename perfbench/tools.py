#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them.

    python3 perfbench/tools.py sweep OUT_DIR [--workloads curate,serve,churn]
                                     [--seeds 1-10] [--trace 0|1]
    python3 perfbench/tools.py compare SET_A [SET_B]

`sweep` runs the command named in BENCHMARK.json once per workload and
seed (from the repository root, with `--seconds` from BENCHMARK.json) and
keeps each run's final JSON line in OUT_DIR/<workload>-<seed>.json, with
its wall time.

`compare` reads one or two such sets. For every workload and end-to-end
metric it prints each set's median and quartiles (as Python's
`statistics.quantiles(values, n=4)` gives them), the spread (Q3 - Q1) as
a share of the median, and, given two sets, the second median's change in
the metric's worse direction with a verdict against the metric's bound in
BENCHMARK.json; then attempted and failed operation counts side by side.
Exits 1 when a spread exceeds its bound or a verdict fails.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(argv):
    out = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    spec = bench_spec()
    workloads = opts.get("--workloads", ",".join(w["name"] for w in spec["workloads"])).split(",")
    seeds = parse_seeds(opts.get("--seeds", "1-10"))
    trace = opts.get("--trace", "0")
    os.makedirs(out, exist_ok=True)
    for seed in seeds:
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", trace]
            t = time.monotonic()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.stderr.write(p.stderr)
                raise SystemExit(f"{w} seed {seed}: exit {p.returncode}")
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            with open(os.path.join(out, f"{w}-{seed}.json"), "w") as f:
                json.dump(result, f)
            print(f"{w:8} seed {seed:3}  {wall:6.1f} s  attempted {result['attempted']}"
                  f"  failed {result['failed']}", flush=True)


def load(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            w = name.rsplit("-", 1)[0]
            with open(os.path.join(directory, name)) as f:
                runs.setdefault(w, []).append(json.load(f))
    return runs


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare(argv):
    spec = bench_spec()
    sets = [load(d) for d in argv]
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        if any(w not in s for s in sets):
            continue
        print(f"== {w}  ({', '.join(str(len(s[w])) for s in sets)} runs)")
        header = f"  {'metric':28} {'unit':6}"
        for i in range(len(sets)):
            header += f" | {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
        if len(sets) == 2:
            header += f" | {'worse by':>8} {'bound':>6} verdict"
        print(header)
        for m in spec["end_to_end"]:
            name = m["name"]
            row = f"  {name:28} {m['unit']:6}"
            meds = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s[w]]
                med, q1, q3 = summary(values)
                meds.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                row += f" | {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f}"
                if name != "setup_s" and spread > m["bound"]:
                    ok = False
                    row += " WIDE"
            if len(sets) == 2:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (meds[1] - meds[0]) / meds[0]
                verdict = "ok" if worse <= m["bound"] else "WORSE"
                ok &= verdict == "ok"
                row += f" | {worse:+8.3f} {m['bound']:6.2f} {verdict}"
            print(row)
        counts = []
        for s in sets:
            att = sum(r["attempted"] for r in s[w])
            fail = sum(r["failed"] for r in s[w])
            shares = sorted({r["failed"] / r["attempted"] for r in s[w]})
            counts.append(f"attempted {att} failed {fail} failed share {shares}")
        print("  ops: " + "  |  ".join(counts))
    return 0 if ok else 1


def main():
    if len(sys.argv) < 3 or sys.argv[1] not in ("sweep", "compare"):
        print(__doc__)
        return 2
    if sys.argv[1] == "sweep":
        sweep(sys.argv[2:])
        return 0
    return compare(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise its spread.

Run from the repository root:

    python3 benchmark/record.py --runs 10                 # one set, spreads
    python3 benchmark/record.py --runs 5 --sets 2 --trace both \
        --out benchmark/RECORDED.json                     # recorded numbers

Each run is the `command` of BENCHMARK.json plus
`--workload W --seed S --seconds <run_seconds> --trace 0|1`, with seeds
`first_seed .. first_seed + runs - 1` in every set. For every metric the
script prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median.
It fails (exit 1) when a run fails or reports `correct: false`, when an
end-to-end spread other than `setup_s` exceeds its bound, when a later
set's median is worse than the first set's by more than the bound, or
when `sim_digest` differs between runs of the same seed (or, on the
fixed-program workloads, between any two runs, or between fuzz-diff and
campaign-fuzz on the same seed).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

FIXED_PROGRAMS = {"paper-ref", "sim-long"}
FUZZ = {"fuzz-diff", "campaign-fuzz"}


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest ")), None)
    if not result["correct"] or result["failed"]:
        sys.stderr.write(p.stdout)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        return platform.processor() or None


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first if first else 0.0
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--trace", choices=["0", "1", "both"], default="0")
    ap.add_argument("--out", default=None, help="write the summary here as JSON")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    ok = True
    recorded = {}
    fuzz_digests = {}
    for w in workloads:
        recorded[w] = {}
        digests = {}
        for trace in traces:
            sets = []
            for s in range(args.sets):
                values = {}
                for seed in seeds:
                    metrics, digest = run(bench["command"], w, seed, bench["run_seconds"], trace)
                    for k, v in metrics.items():
                        values.setdefault(k, []).append(v)
                    key = "all" if w in FIXED_PROGRAMS else seed
                    if digests.setdefault(key, digest) != digest:
                        print(f"FAIL {w}: sim_digest {digest} != {digests[key]} (seed {seed})")
                        ok = False
                    if w in FUZZ and fuzz_digests.setdefault(seed, digest) != digest:
                        print(f"FAIL {w}: sim_digest {digest} differs from the other fuzz workload's (seed {seed})")
                        ok = False
                sets.append({k: summary(v) for k, v in values.items()})
            for name in sets[0]:
                d = defs[name]
                row = [st[name] for st in sets]
                recorded[w][name] = {"unit": d["unit"], "better": d["better"],
                                     "sets": [{k: r[k] for k in ("median", "q1", "q3")} for r in row]}
                cells = "  ".join(f"med {r['median']:.6g} q1 {r['q1']:.6g} q3 {r['q3']:.6g} "
                                  f"spread {100 * r['spread']:.2f}%" for r in row)
                flag = ""
                bound = d.get("bound")
                if bound is not None:
                    if name != "setup_s" and any(r["spread"] > bound for r in row):
                        flag += f" SPREAD>{bound:.0%}"
                    if any(worse_by(row[0]["median"], r["median"], d["better"]) > bound for r in row[1:]):
                        flag += f" DRIFT>{bound:.0%}"
                    if flag:
                        ok = False
                print(f"{w:14} {name:28} {cells}{flag}")

    if args.out:
        doc = {
            "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                     "cpu": cpu_model()},
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "sets": args.sets,
            "workloads": recorded,
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

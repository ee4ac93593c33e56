#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs workloads once per seed and
prints, per end-to-end metric, a Markdown table row with the median, the
quartiles, and the spread (third minus first quartile, from
statistics.quantiles(values, n=4)) as a share of the median.

A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json. setup_s is held to its whole bound instead: it is the
median of several set-ups inside each run, and what is bounded for it is
the drift of its median from one set of runs to the next.

--save writes the set's summary to a JSON file. --against reads such a
file and also requires every median to be no worse than the saved one by
more than the metric's bound.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10 [--first-seed 1] [--workload NAME ...]
        [--save set1.json] [--against set0.json]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: {time.time() - start:.1f} s, "
          f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
          file=sys.stderr)
    return res


def worse_by(new, old, better):
    """How much worse new is than old, as a share of old."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    prior = {}
    if args.against:
        with open(args.against) as f:
            prior = json.load(f)

    steady = True
    summary = {}
    print("| workload | metric | median | q1 | q3 | spread | bound | drift |")
    print("|---|---|---|---|---|---|---|---|")
    for wl in workloads:
        runs = [run_once(spec, wl, s) for s in range(args.first_seed, args.first_seed + args.seeds)]
        summary[wl] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            notes = []
            if spread >= (bound if name == "setup_s" else bound / 3):
                notes.append("UNSTEADY")
            drift = ""
            if name in prior.get(wl, {}):
                w = worse_by(med, prior[wl][name]["median"], m["better"])
                drift = f"{w:+.3f}"
                if w > bound:
                    notes.append("DRIFTED")
            steady = steady and not notes
            print(f"| {wl} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {bound} | "
                  f"{drift}{' ' + ' '.join(notes) if notes else ''} |")
        failed = sum(r["failed"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"{wl}: failed ops {failed}, incorrect runs {wrong}", file=sys.stderr)
        steady = steady and failed == 0 and wrong == 0
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

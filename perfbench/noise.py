#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/noise.py --seeds 10 --out perfbench/NOISE.md

For every workload and metric it prints the median over the seeds, the
first and third quartiles (statistics.quantiles(values, n=4)), and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
Each run's last output line is kept in the raw JSON-lines file given by
--raw, so a report can be rebuilt without rerunning:

    python3 perfbench/noise.py --from set1.jsonl,set2.jsonl

reports each file as a set and, for two sets, how far each metric's
second median moved from the first, in the metric's worse direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    machine = next((l for l in lines if l.startswith("machine:")), "")
    # The workload's description and measured cache shares, for the record.
    info = [l for l in lines if l.split(":")[0] in ("workload", "cache", "push")]
    return res, wall, machine, info


def report(spec, rows, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    lines = []
    for w in sorted(rows):
        runs = rows[w]
        lines.append(f"\n### {w} ({len(runs)} seeds: {', '.join(str(r['seed']) for r in runs)})\n")
        ok = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)
        lines.append(f"correct on every run: {ok}; mean wall time per run {statistics.mean(r['wall'] for r in runs):.1f} s\n")
        lines.append("| metric | unit | median | q1 | q3 | spread | bound | spread/bound |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            b = f"{bound:.2f}" if bound is not None else "-"
            sb = f"{spread / bound:.2f}" if bound else "-"
            lines.append(f"| {m['name']} | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.4f} | {b} | {sb} |")
    return "\n".join(lines)


def load_rows(path):
    rows = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            rows.setdefault(r["workload"], []).append(r)
    return rows


def shift(spec, first, second):
    lines = ["\n### Second set against the first\n",
             "| workload | metric | first median | second median | worse by | bound | within |",
             "|---|---|---|---|---|---|---|"]
    for w in sorted(first):
        if w not in second:
            continue
        for m in spec["end_to_end"]:
            m1 = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in first[w])
            m2 = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in second[w])
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            lines.append(f"| {w} | {m['name']} | {m1:.4g} | {m2:.4g} | {worse:+.4f} | {m['bound']:.2f} | {worse <= m['bound']} |")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default every workload")
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds, 1..N offset by --first-seed")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--raw", default="", help="append each run's result to this JSON-lines file")
    ap.add_argument("--out", default="", help="write the markdown report here")
    ap.add_argument("--from", dest="sources", default="",
                    help="comma-separated raw files to report instead of running")
    args = ap.parse_args()
    spec = load_spec()
    if args.sources:
        sets = [load_rows(p) for p in args.sources.split(",")]
        trace = next(iter(sets[0].values()))[0]["trace"]
        text = "\n".join(f"\n## Set {i + 1}: {p}\n" + report(spec, rows, trace)
                         for i, (p, rows) in enumerate(zip(args.sources.split(","), sets)))
        if len(sets) == 2 and not trace:
            text += "\n" + shift(spec, sets[0], sets[1])
        print(text)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        return
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    rows, machine = {}, ""
    for w in names:
        rows[w] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res, wall, machine, info = run_once(spec, w, seed, seconds, args.trace)
            rows[w].append({"seed": seed, "wall": wall, "result": res})
            print(f"{w} seed {seed}: {wall:.1f}s correct={res['correct']} failed={res['failed']}", file=sys.stderr)
            if args.raw:
                with open(args.raw, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                        "seconds": seconds, "wall": wall, "machine": machine,
                                        "info": info, "result": res}) + "\n")
    text = f"{machine}\nrun_seconds {seconds}, trace {args.trace}\n" + report(spec, rows, args.trace)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    # interleaved A/B of two checkouts, one benchmark (this directory's)
    python3 simbench/compare.py ab --base ../parent --head . --pairs 10 \
        --out ab-results
    # report on runs already collected
    python3 simbench/compare.py report ab-results/base.jsonl \
        ab-results/head.jsonl

`ab` builds this directory's benchmark against each checkout's src/
(two build trees under --out), then runs pairs of (base, head) on the
same workload and seed, alternating which side runs first, and appends
each result to <out>/base.jsonl and <out>/head.jsonl. `report` prints,
for each workload and end-to-end metric of BENCHMARK.json: each side's
median and quartiles, the change of the median (positive when the head
is better), the share of pairs the head won (ties count for neither
side), and a verdict:

  better      head won >= 90% of pairs and the medians differ by more
              than the base's own quartile spread
  worse       head's median is worse than the base's by more than the
              metric's bound
  unresolved  the base's quartile spread exceeds the bound (unless every
              head run beats every base run, or loses to it)
  same        none of the above

With fewer than ten pairs the verdict is "too few pairs".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10  # fewer pairs support no verdict


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, build_dir, workload, seed, seconds):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--build-dir", build_dir,
           "--cmake-arg=-DPIPO_REPO_ROOT=" + os.path.abspath(checkout)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (out.returncode,
                                                       " ".join(cmd)))
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def ab(opt):
    spec = load_spec()
    workloads = opt.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(opt.out, exist_ok=True)
    sides = {"base": opt.base, "head": opt.head}
    files = {s: open(os.path.join(opt.out, s + ".jsonl"), "a") for s in sides}
    for i in range(opt.pairs):
        seed = opt.seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                rec = run_once(sides[side],
                               os.path.join(opt.out, "build-" + side),
                               workload, seed, opt.seconds)
                rec["pair"] = i
                files[side].write(json.dumps(rec) + "\n")
                files[side].flush()
                print("pair %d %s %s: %s" % (i, workload, side,
                                             rec["metrics"]), file=sys.stderr)
    for f in files.values():
        f.close()
    report_files(os.path.join(opt.out, "base.jsonl"),
                 os.path.join(opt.out, "head.jsonl"))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, head, better, bound, pairs):
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    spread = (b3 - b1) / bm if bm else float("inf")
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    change = sign * (hm - bm) / bm if bm else 0.0
    if len(pairs) < MIN_PAIRS:
        return won, change, "too few pairs"
    if all(sign * (h - b) > 0 for h in head for b in base):
        return won, change, "better"
    if all(sign * (h - b) < 0 for h in head for b in base):
        return won, change, "worse"
    if spread > bound:
        return won, change, "unresolved"
    if won >= 0.9 and abs(hm - bm) > (b3 - b1):
        return won, change, "better"
    if change < -bound:
        return won, change, "worse"
    return won, change, "same"


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def report_files(base_path, head_path):
    spec = load_spec()
    base, head = read_runs(base_path), read_runs(head_path)
    print("%-14s %-12s %-32s %-32s %8s %6s  %s" % (
        "workload", "metric", "base q1/median/q3", "head q1/median/q3",
        "change", "won", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        bw = [r for r in base if r["workload"] == name]
        hw = [r for r in head if r["workload"] == name]
        if not bw or not hw:
            continue
        for m in spec["end_to_end"]:
            key = m["name"]
            bv = [r["metrics"][key] for r in bw]
            hv = [r["metrics"][key] for r in hw]
            by_pair = {r.get("pair"): r["metrics"][key] for r in bw}
            pairs = [(by_pair[r.get("pair")], r["metrics"][key])
                     for r in hw if r.get("pair") in by_pair]
            won, change, v = verdict(bv, hv, m["better"], m["bound"], pairs)
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("%-14s %-12s %-32s %-32s %+7.1f%% %5.0f%%  %s" % (
                name, key, fmt(quartiles(bv)), fmt(quartiles(hv)),
                100 * change, 100 * won, v))
        bad = [r for r in bw + hw if not r["correct"]]
        if bad:
            print("%-14s %d incorrect run(s)" % (name, len(bad)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    a = sub.add_parser("ab", help="interleaved runs of two checkouts")
    a.add_argument("--base", required=True, help="parent checkout")
    a.add_argument("--head", required=True, help="changed checkout")
    a.add_argument("--out", required=True, help="results and build trees")
    a.add_argument("--pairs", type=int, default=10)
    a.add_argument("--seed", type=int, default=1, help="first pair's seed")
    a.add_argument("--seconds", type=int,
                   default=load_spec()["run_seconds"])
    a.add_argument("--workloads", nargs="*")
    r = sub.add_parser("report", help="compare collected runs")
    r.add_argument("base")
    r.add_argument("head")
    opt = ap.parse_args()
    if opt.cmd == "ab":
        ab(opt)
    else:
        report_files(opt.base, opt.head)


if __name__ == "__main__":
    main()

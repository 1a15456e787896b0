#!/usr/bin/env python3
"""Interleaved A/B comparison of two built perfbench binaries.

Build each side once from its own checkout, then run from either checkout's
root (the binaries write only under ./.bench_build):

    (cd perfbench && go build -o /tmp/ab/parent .)    # in the parent checkout
    (cd perfbench && go build -o /tmp/ab/change .)    # in the change's checkout
    python3 perfbench/ab.py /tmp/ab/parent /tmp/ab/change --pairs 10

For each workload it runs --pairs pairs, one seed per pair, alternating which
side goes first, and prints each end-to-end metric's median and quartiles per
side and how many pairs the change won (ties count for neither). It then
runs one traced run per side at the first seed and reports whether the sweep
digest, the other deterministic figures and every simulated count are
identical: a change that only speeds the simulator up must leave them so.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Figures printed by untraced runs that repeat exactly for a seed.
EXACT_DETAIL = {"digest", "grid_points", "front_points", "model_err_pct", "front_hv",
                "evaluated", "simulated", "rounds", "store_records"}

# Per-layer metrics that are simulated quantities or deterministic counts.
EXACT_LAYER_PREFIXES = ("core.", "mem.", "golden.", "fabric.", "sim.events_fired",
                        "dse.search.rounds", "dse.search.evaluated",
                        "dse.search.simulated", "dse.search.front_hv",
                        "store.records", "store.bytes")


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) >= 2:
            detail[parts[0]] = parts[1]
    return result, detail


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args()

    spec = json.loads(subprocess.run([args.change, "--benchmark-json"], capture_output=True,
                                     text=True, check=True).stdout)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}

    for wl in workloads:
        vals = {"parent": {}, "change": {}}
        failed = {"parent": 0, "change": 0}
        attempted = {"parent": 0, "change": 0}
        wins = {m: 0 for m in better}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                res, _ = run(sides[side], wl, seed, seconds, 0)
                got[side] = res["metrics"]
                failed[side] += res["failed"]
                attempted[side] += res["attempted"]
                for m, v in res["metrics"].items():
                    vals[side].setdefault(m, []).append(v["value"])
            for m in better:
                p, c = got["parent"][m]["value"], got["change"][m]["value"]
                if (c < p) if better[m] == "lower" else (c > p):
                    wins[m] += 1
        print(f"\n== {wl}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
              f"{seconds} s each; failed/attempted parent {failed['parent']}/{attempted['parent']}, "
              f"change {failed['change']}/{attempted['change']}")
        print(f"{'metric':18s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f" {'change':>8s} {'wins':>6s} {'bound':>6s}")
        for m in better:
            cells = []
            for side in ("parent", "change"):
                xs = vals[side][m]
                q1, q3 = quartiles(xs)
                cells.append(f"{statistics.median(xs):12.4f} [{q1:9.4f}, {q3:9.4f}]")
            pm, cm = statistics.median(vals["parent"][m]), statistics.median(vals["change"][m])
            print(f"{m:18s} {cells[0]:>34s} {cells[1]:>34s} {100 * (cm - pm) / pm:+7.2f}%"
                  f" {wins[m]:3d}/{args.pairs:<2d} {bound[m]:6.2f}")

        # Exactness: deterministic figures and simulated counts.
        (pres, pdet), (cres, cdet) = (run(sides[s], wl, args.seed, seconds, 1)
                                      for s in ("parent", "change"))
        diffs = [f"{k}: {pdet.get(k)} -> {cdet.get(k)}" for k in sorted(EXACT_DETAIL)
                 if (k in pdet or k in cdet) and pdet.get(k) != cdet.get(k)]
        for k in sorted(set(pres["metrics"]) | set(cres["metrics"])):
            if k.startswith(EXACT_LAYER_PREFIXES):
                a, b = pres["metrics"].get(k), cres["metrics"].get(k)
                if a != b:
                    diffs.append(f"{k}: {a and a['value']} -> {b and b['value']}")
        if diffs:
            print("deterministic figures DIFFER at seed", args.seed)
            for d in diffs:
                print("  " + d)
        else:
            print(f"deterministic figures identical at seed {args.seed} "
                  f"(digest {cdet.get('digest', 'n/a')})")


if __name__ == "__main__":
    main()

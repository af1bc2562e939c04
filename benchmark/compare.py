#!/usr/bin/env python3
"""Compare ddpbench results of a parent commit and a change.

Usage: compare.py BASE.json NEW.json
       compare.py BASE1.json ... BASEn.json -- NEW1.json ... NEWn.json

Each file is a results.json from benchmark/run.sh. With several files per
side, each file is one run and run i of the parent pairs with run i of
the change (alternate which side runs first). With one file per side,
the runs are that file's timed repetitions (host metrics only).

For every workload and metric it prints both sides' medians and
quartiles, and for end-to-end metrics a verdict:

  improved    the change wins >= 9/10 of at least 10 pairs (ties count
              for neither) and its median is better by more than the
              parent's interquartile range;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's own spread is wider than the bound, so a
              regression could hide in it (unless every run of the
              change reads better than every run of the parent);
  unchanged   otherwise.

Bounds come from the parent's results.json (the same table
BENCHMARK.json mirrors). Exits 1 if any metric regressed.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def runs_of(docs, workload, section, name):
    """One value per run, or the repetitions of a single run."""
    ms = [d["workloads"][workload][section].get(name) for d in docs]
    if any(m is None for m in ms):
        return None, None
    if len(ms) == 1 and "samples" in ms[0]:
        return ms[0]["samples"], ms[0]
    return [m["value"] for m in ms], ms[0]


def verdict(base, new, meta):
    if "bound" not in meta:
        return "-"
    sign = 1 if meta["better"] == "higher" else -1
    bq1, bmed, bq3 = quartiles(base)
    nmed = quartiles(new)[1]
    gain = (nmed - bmed) * sign
    limit = meta["bound"] if meta["bound_abs"] else meta["bound"] * abs(bmed)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if (n - b) * sign > 0)
    if (gain > 0 and len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and gain > bq3 - bq1):
        return "improved"
    all_better = min(n * sign for n in new) > max(b * sign for b in base)
    if bq3 - bq1 > limit and not all_better:
        return "unresolved"
    if -gain > limit:
        return "regressed"
    return "unchanged"


def main():
    args = sys.argv[1:]
    if "--" in args:
        cut = args.index("--")
        base_paths, new_paths = args[:cut], args[cut + 1:]
    elif len(args) == 2:
        base_paths, new_paths = args[:1], args[1:]
    else:
        sys.exit(__doc__)
    if not base_paths or not new_paths:
        sys.exit(__doc__)
    base = [load(p) for p in base_paths]
    new = [load(p) for p in new_paths]

    regressed = 0
    for w in base[0]["workloads"]:
        print(f"== {w}")
        for d, side in ((base, "parent"), (new, "change")):
            att = sum(x["workloads"][w]["attempted"] for x in d)
            fail = sum(x["workloads"][w]["failed"] for x in d)
            print(f"  {side}: {fail} failed of {att} attempted")
        for section in ("metrics", "per_layer"):
            for name in base[0]["workloads"][w][section]:
                b, meta = runs_of(base, w, section, name)
                n, _ = runs_of(new, w, section, name)
                if b is None or n is None:
                    print(f"  {name:40s} missing on one side")
                    continue
                bq = quartiles(b)
                nq = quartiles(n)
                v = verdict(b, n, meta)
                regressed += v == "regressed"
                print(f"  {name:40s} parent {bq[1]:.6g} [{bq[0]:.6g}, "
                      f"{bq[2]:.6g}]  change {nq[1]:.6g} [{nq[0]:.6g}, "
                      f"{nq[2]:.6g}] {meta['unit']}  {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()

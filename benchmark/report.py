#!/usr/bin/env python3
"""Merge one suite run of ddpbench into results.json and print it.

Usage: report.py DIR BENCHMARK.json

DIR holds <workload>.trace0.json (untraced process: end-to-end metrics)
and <workload>.trace1.json (traced process: per-layer metrics) for every
workload. Writes DIR/results.json and DIR/host_spans.json (Chrome trace
of the driver's own setup/run/audit/probe spans, one track per process),
prints every metric by name with its unit and sample count, and exits 1
if any correctness check failed, if the traced and untraced processes
simulated different results, or if BENCHMARK.json disagrees with the
driver on a metric's unit, direction or bound.
"""

import json
import os
import statistics
import sys

WORKLOADS = ["paper-closed", "open-read-heavy", "shard-rebalance",
             "crash-recovery"]


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt(v):
    return "null" if v is None else f"{v:.6g}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    out_dir, bench_path = sys.argv[1], sys.argv[2]
    bench = load(bench_path)
    failures = []
    results = {"schema": "ddpbench-v1", "workloads": {}}
    spans = []

    for pid, w in enumerate(WORKLOADS):
        plain = load(os.path.join(out_dir, f"{w}.trace0.json"))
        traced = load(os.path.join(out_dir, f"{w}.trace1.json"))
        results["seed"] = plain["seed"]
        fails = plain["failures"] + traced["failures"]
        prints = {r["tag"]: r["fingerprint"] for r in plain["runs"]}
        for r in traced["runs"]:
            if prints.get(r["tag"]) != r["fingerprint"]:
                fails.append(f"{r['tag']}: traced and untraced processes "
                             "simulated different results")
        for section, doc in (("end_to_end", plain), ("per_layer", traced)):
            for m in bench[section]:
                got = doc["metrics"].get(m["name"], {})
                if any(got.get(k) != v for k, v in m.items() if k != "name"):
                    fails.append(f"BENCHMARK.json {section} metric "
                                 f"{m['name']} disagrees with the driver: "
                                 f"{m} vs {got or 'not reported'}")
            listed = {m["name"] for m in bench[section]}
            for name, m in doc["metrics"].items():
                if m.get("in_benchmark_json") and name not in listed:
                    fails.append(f"the driver reports {name} to the "
                                 f"contract, but BENCHMARK.json {section} "
                                 "does not list it")
        failures += [f"{w}: {f}" for f in fails]
        for m in plain["metrics"].values():
            if len(m.get("samples", [])) >= 2:
                q1, _, q3 = statistics.quantiles(m["samples"], n=4)
                m["q1"], m["q3"] = q1, q3
        results["workloads"][w] = {
            "correct": not fails,
            "failures": fails,
            "reps": plain["reps"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "unfinished": plain["unfinished"],
            "metrics": plain["metrics"],
            "per_layer": traced["metrics"],
        }
        spans.append({"ph": "M", "pid": pid, "name": "process_name",
                      "args": {"name": w}})
        for tid, doc in enumerate((plain, traced)):
            spans.append({"ph": "M", "pid": pid, "tid": tid,
                          "name": "thread_name",
                          "args": {"name": f"trace{tid} process"}})
            for s in doc["host_spans"]:
                spans.append({"ph": "X", "pid": pid, "tid": tid,
                              "name": s["name"], "ts": s["ts"],
                              "dur": s["dur"],
                              "args": {"workload": w, "rep": s["rep"],
                                       "run": s["run"]}})
    results["correct"] = not failures

    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    with open(os.path.join(out_dir, "host_spans.json"), "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": spans}, f)
        f.write("\n")

    for w, r in results["workloads"].items():
        print(f"== {w} (seed {results['seed']}, {r['reps']} timed reps, "
              f"{r['attempted']} attempted, {r['failed']} failed, "
              f"{r['unfinished']} unfinished)")
        for section in ("metrics", "per_layer"):
            for name, m in r[section].items():
                extra = ""
                if "n" in m:
                    extra += f"  n={m['n']}"
                if "q1" in m:
                    extra += f"  q1={fmt(m['q1'])} q3={fmt(m['q3'])}"
                print(f"  {name:40s} {fmt(m['value']):>14s} "
                      f"{m['unit']}{extra}")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(f"results: {os.path.join(out_dir, 'results.json')}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

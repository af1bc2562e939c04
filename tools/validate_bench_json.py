#!/usr/bin/env python3
"""Schema-validate ddp-bench-v1 JSON records (CI gating).

Timing numbers from shared runners are noise; field *presence and
types* are not — a record missing doorbell_drains or carrying a
string where a count belongs means the emitter regressed. CI runs this as a
gating step while the timing-threshold checks stay non-gating.

Usage: validate_bench_json.py FILE.json [FILE.json ...]

Every file must hold a JSON array of records with schema
"ddp-bench-v1". Records describing cluster runs (they carry "model")
must include the wire-batching counters; there is no per-record
scheduler field, since the event queue has a single structure.
google-benchmark's own output files (they carry "benchmarks") are
only checked for well-formedness.
"""

import json
import sys

def fail(path, rec_no, msg):
    sys.exit(f"{path}: record {rec_no}: {msg}")


def require(path, i, rec, field, types):
    if field not in rec:
        fail(path, i, f"missing required field '{field}'")
    if not isinstance(rec[field], types):
        fail(path, i,
             f"field '{field}' has type {type(rec[field]).__name__}, "
             f"expected {'/'.join(t.__name__ for t in types)}")
    return rec[field]


def check_counters(path, i, rec):
    """The wire-batching counters every cluster-run record carries."""
    drains = require(path, i, rec, "doorbell_drains", (int,))
    msgs = require(path, i, rec, "batch_drain_messages", (int,))
    if drains < 0 or msgs < 0:
        fail(path, i, "negative drain counters")
    if msgs < drains:
        fail(path, i,
             f"batch_drain_messages ({msgs}) < doorbell_drains "
             f"({drains}): every drain delivers at least one message")
    # Mean is null (JSON) when no drains happened (unbatched run).
    mean = require(path, i, rec, "batch_drain_msgs_mean",
                   (int, float, type(None)))
    if drains > 0 and (mean is None or mean < 1.0):
        fail(path, i, f"batch_drain_msgs_mean {mean} with {drains} drains")


ARRIVALS = {"poisson", "bursty", "diurnal", "flash"}


def check_tenants(path, i, rec):
    """Open-loop per-tenant accounting invariants.

    Every arrival lands in exactly one bucket by run end, so for each
    tenant: served <= offered and shed + served + timed_out == issued
    (with issued == offered — all arrivals enter the client engine).
    """
    open_loop = require(path, i, rec, "open_loop", (bool,))
    if not open_loop:
        if "tenant_count" in rec:
            fail(path, i, "tenant fields on a closed-loop record")
        return
    require(path, i, rec, "offered_load_ops_s", (int, float))
    count = require(path, i, rec, "tenant_count", (int,))
    if count < 1:
        fail(path, i, "open-loop record with no tenants")
    for t in range(count):
        p = f"tenant_{t}_"
        require(path, i, rec, p + "name", (str,))
        arrival = require(path, i, rec, p + "arrival", (str,))
        if arrival not in ARRIVALS:
            fail(path, i,
                 f"{p}arrival '{arrival}' not in {sorted(ARRIVALS)}")
        offered = require(path, i, rec, p + "offered", (int,))
        issued = require(path, i, rec, p + "issued", (int,))
        served = require(path, i, rec, p + "served", (int,))
        shed = require(path, i, rec, p + "shed", (int,))
        timed_out = require(path, i, rec, p + "timed_out", (int,))
        if min(offered, issued, served, shed, timed_out) < 0:
            fail(path, i, f"{p}: negative arrival counter")
        if served > offered:
            fail(path, i,
                 f"{p}served ({served}) > {p}offered ({offered})")
        if shed + served + timed_out != issued:
            fail(path, i,
                 f"{p}: shed ({shed}) + served ({served}) + timed_out "
                 f"({timed_out}) != issued ({issued})")
        require(path, i, rec, p + "p50_ns", (int, float, type(None)))
        require(path, i, rec, p + "p99_ns", (int, float, type(None)))
        # SLO fields are null when the tenant set no target.
        require(path, i, rec, p + "slo_target_us",
                (int, float, type(None)))
        attain = require(path, i, rec, p + "slo_attainment",
                         (int, float, type(None)))
        if attain is not None and not 0.0 <= attain <= 1.0:
            fail(path, i, f"{p}slo_attainment {attain} outside [0, 1]")
        for series in ("offered_ops_per_sec", "served_ops_per_sec"):
            vals = require(path, i, rec, p + series, (list,))
            if any(not isinstance(v, (int, float)) or v < 0
                   for v in vals):
                fail(path, i, f"{p}{series}: non-numeric or negative "
                              "rate sample")


def check_shards(path, i, rec):
    """Sharded-topology layout and routing invariants.

    The layout only ever grows by splits (ranges_final == teams +
    splits), every routed op lands at exactly one team
    (sum(team_served) == served_ops), and scan/xact fan-out can only
    add routed sub-ops on top of the client's read/write cycles
    (served_ops >= reads + writes).
    """
    sharded = require(path, i, rec, "sharded", (bool,))
    if not sharded:
        if "shard_teams" in rec:
            fail(path, i, "shard fields on a non-sharded record")
        return
    teams = require(path, i, rec, "shard_teams", (int,))
    ranges = require(path, i, rec, "shard_ranges_final", (int,))
    splits = require(path, i, rec, "shard_splits", (int,))
    migrations = require(path, i, rec, "shard_migrations", (int,))
    migrated = require(path, i, rec, "shard_keys_migrated", (int,))
    stray = require(path, i, rec, "shard_stray_writes", (int,))
    fault_ins = require(path, i, rec, "shard_acquire_fault_ins", (int,))
    served = require(path, i, rec, "shard_served_ops", (int,))
    if min(teams, ranges, splits, migrations, migrated, stray,
           fault_ins, served) < 0:
        fail(path, i, "negative shard counter")
    if teams < 1:
        fail(path, i, "sharded record with no teams")
    if ranges != teams + splits:
        fail(path, i,
             f"shard_ranges_final ({ranges}) != shard_teams ({teams}) "
             f"+ shard_splits ({splits})")
    if migrations > 0 and migrated == 0:
        fail(path, i,
             f"{migrations} migrations moved zero keys")
    team_served = require(path, i, rec, "shard_team_served", (list,))
    if len(team_served) != teams:
        fail(path, i,
             f"shard_team_served has {len(team_served)} entries for "
             f"{teams} teams")
    if any(not isinstance(v, (int, float)) or v < 0
           for v in team_served):
        fail(path, i, "shard_team_served: non-numeric or negative")
    if sum(team_served) != served:
        fail(path, i,
             f"sum(shard_team_served) ({sum(team_served)}) != "
             f"shard_served_ops ({served})")
    reads = require(path, i, rec, "reads", (int,))
    writes = require(path, i, rec, "writes", (int,))
    if served < reads + writes:
        fail(path, i,
             f"shard_served_ops ({served}) < reads + writes "
             f"({reads + writes}): every client op is routed at "
             f"least once")


def check_file(path):
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict) and "benchmarks" in data:
        return "google-benchmark output"
    if not isinstance(data, list):
        sys.exit(f"{path}: expected a JSON array of records")
    for i, rec in enumerate(data):
        if not isinstance(rec, dict):
            fail(path, i, "record is not an object")
        schema = require(path, i, rec, "schema", (str,))
        if schema != "ddp-bench-v1":
            fail(path, i, f"unknown schema '{schema}'")
        # Host-timing field; null when the emitter saw a non-finite
        # value (degenerate zero-wall run), so None is admissible.
        require(path, i, rec, "events_per_sec", (int, float, type(None)))
        if "model" in rec:
            require(path, i, rec, "events_executed", (int,))
            check_counters(path, i, rec)
            check_tenants(path, i, rec)
            check_shards(path, i, rec)
            scans = require(path, i, rec, "scans", (int,))
            visited = require(path, i, rec, "scan_keys_visited", (int,))
            if scans < 0 or visited < 0:
                fail(path, i, "negative scan counters")
    return f"{len(data)} ddp-bench-v1 records"


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    for path in argv[1:]:
        print(f"{path}: OK ({check_file(path)})")


if __name__ == "__main__":
    main(sys.argv)

/**
 * @file
 * ddpsim — command-line experiment driver.
 *
 * Runs one DDP-model experiment (or a sweep over all 25 models) on the
 * simulated cluster and prints the measured metrics as a table or CSV.
 *
 *   ddpsim --consistency causal --persistency synchronous
 *   ddpsim --all-models --format csv > results.csv
 *   ddpsim --all-models --jobs 8 --format json > results.json
 *   ddpsim --workload w --servers 3 --rtt-ns 500 --crash-at-us 2000
 *
 * Sweeps (--all-models, --torture) fan their independent runs across
 * --jobs worker threads; stdout is byte-identical for any job count
 * (see DESIGN.md, "Parallel sweeps stay deterministic").
 *
 * Run `ddpsim --help` for the full flag list.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cluster/cluster.hh"
#include "sim/random.hh"
#include "sim/sweep_runner.hh"
#include "stats/table.hh"

using namespace ddp;

namespace {

struct Options
{
    core::DdpModel model{core::Consistency::Causal,
                         core::Persistency::Synchronous};
    bool allModels = false;
    std::uint32_t servers = 5;
    std::uint32_t clientsPerServer = 20;
    std::uint32_t replication = 0;
    std::uint64_t keys = 100000;
    std::string workload = "a";
    double theta = 0.99;
    std::string store = "hash";
    std::uint64_t rttNs = 1000;
    std::uint64_t bandwidthGbps = 200;
    std::uint64_t warmupUs = 1000;
    std::uint64_t measureUs = 3000;
    std::uint64_t seed = 42;
    std::optional<std::uint64_t> crashAtUs;
    std::string traceFile;
    enum class Format { Table, Csv, Json };
    Format format = Format::Table;
    /** Chrome-trace (Perfetto) timeline output path; empty = off. */
    std::string traceOut;
    /** Sweep worker threads; 0 = one per hardware thread. Sweeps are
     *  byte-identical on stdout for any value (DESIGN.md). */
    unsigned jobs = 1;

    // Event-loop hot path (perf A/B; simulated results are identical).
    /** Doorbell-coalesced wire delivery (off = one event/message). */
    bool batchedDelivery = true;

    // Fault injection (tentpole: chaos experiments from the CLI).
    double dropRate = 0.0;
    double dupRate = 0.0;
    double delayRate = 0.0;
    std::uint64_t delayNs = 0; // 0 = FaultPlan default range
    double reorderRate = 0.0;
    std::uint64_t faultSeed = 0; // 0 = derive from --seed
    /** node:from_us pairs — node is unreachable from from_us on. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> isolate;
    /** from_us:until_us — first half of servers vs the rest. */
    std::optional<std::pair<std::uint64_t, std::uint64_t>> partitionUs;
    std::string recovery = "voting";

    // Instant recovery + downtime-vs-instant benchmark.
    /** Throughput-timeline bucket width; 0 = timeline off. */
    std::uint64_t timelineBucketUs = 0;
    /** Recovery SLO as a fraction of pre-crash throughput, in (0,1]. */
    double recoverySloFrac = 0.9;
    /** Keys per instant-recovery backfill round; 0 = default. */
    std::uint32_t backfillBatch = 0;
    /** Pause between backfill rounds; 0 = default. */
    std::uint64_t backfillIntervalUs = 0;

    // Crash-point torture + partial crash/restart (robustness PR).
    /** Nodes a partial crash takes down (with --crash-at-us or
     *  --torture); empty optional = full-system crash. */
    std::optional<std::vector<net::NodeId>> crashNodes;
    /** Downtime before crashed nodes restart; 0 = instant rebuild. */
    std::uint64_t restartAfterUs = 0;
    /** Client request timeout; 0 = auto (enabled only when a staged
     *  restart needs failover). */
    std::uint64_t reqTimeoutUs = 0;
    /** 64B lines per value; 0 = auto (4 under --torture, else 1). */
    std::uint32_t valueLines = 0;
    /** Per-value commit records (off = torn-install ablation). */
    bool commitRecords = true;
    std::uint32_t xactMaxAttempts = 64;
    /** Crash points per model; 0 = torture mode off. */
    std::uint32_t torturePoints = 0;
    /** Seeded-random crash points instead of evenly spaced ones. */
    bool tortureRandom = false;

    // Gray-failure survival (fail-slow injection + mitigation).
    /** Node degraded fail-slow (not fail-stop); empty = off. */
    std::optional<std::uint32_t> slowNode;
    /** Service-time multiplier of the degraded layer; >= 1. */
    double slowFactor = 5.0;
    /** Which layer of the slow node degrades: nvm | nic | core. */
    std::string slowLayer = "nvm";
    /** from_us:until_us degradation window; empty = whole run. */
    std::optional<std::pair<std::uint64_t, std::uint64_t>> slowWindowUs;
    /** Ramp linearly from 1x to --slow-factor over the window. */
    bool slowRamp = false;
    /** Hedge tail reads to an admissible replica. */
    bool hedge = false;
    /** CoDel-style shedding of speculative requests under overload. */
    bool shed = false;
    /** Per-model A/B sweep: gray node, mitigations off vs on. */
    bool graySweep = false;

    // Open-loop multi-tenant traffic + offered-load sweep.
    bool openLoop = false;
    /** Arrival process of the implicit tenant. */
    std::string arrival = "poisson";
    /** Implicit tenant's offered load, ops per simulated second. */
    double arrivalRate = 1e6;
    /** Per-client in-flight cap (open-loop). */
    std::uint32_t inflightWindow = 16;
    /** Per-client arrival-queue cap; overflow is shed (open-loop). */
    std::uint32_t queueCap = 64;
    /** Connection-churn period; 0 = off. */
    std::uint64_t churnUs = 0;
    /** Implicit tenant's per-op latency SLO; 0 = none. */
    std::uint64_t sloUs = 0;
    /** One --tenant spec: NAME:WKL:ARRIVAL:RATE[:SLO_US[:CLIENTS]]. */
    struct TenantOpt
    {
        std::string name;
        std::string workload;
        std::string arrival;
        double rate = 1e6;
        std::uint64_t sloUs = 0;
        std::uint32_t clients = 0;
    };
    std::vector<TenantOpt> tenants;
    /** --offered-sweep LO:HI:STEPS ramp; steps 0 = sweep off. */
    double offeredLo = 0.0;
    double offeredHi = 0.0;
    std::uint32_t offeredSteps = 0;

    // Sharded multi-group topology + data distribution.
    /** Key-range shard teams; 0 = classic single-group mode. */
    std::uint32_t shards = 0;
    /** Per-round ops above which a hot range splits; 0 = off. */
    std::uint64_t splitThreshold = 0;
    /** Per-round team ops above which a range migrates; 0 = off. */
    std::uint64_t shardMaxOps = 0;
    /** Rotate the workload's hot keys by this many positions. */
    std::uint64_t hotOffset = 0;
};

void
usage(std::ostream &os)
{
    os << "ddpsim — Distributed Data Persistency experiment driver\n\n"
          "model selection:\n"
          "  --consistency C     linearizable | read-enforced |\n"
          "                      transactional | causal | eventual\n"
          "  --persistency P     strict | synchronous | read-enforced |\n"
          "                      scope | eventual\n"
          "  --all-models        sweep all 25 <C, P> combinations\n\n"
          "cluster:\n"
          "  --servers N         servers (default 5)\n"
          "  --clients-per-server N   (default 20)\n"
          "  --replication R     replicas per key, 0 = all (default 0)\n"
          "  --store S           hash | skiplist | btree | bplustree |\n"
          "                      slablru (default hash)\n"
          "  --shards N          carve the servers into N key-range\n"
          "                      shard teams of servers/N nodes each\n"
          "                      behind a router (N must divide\n"
          "                      --servers into teams of >= 2; default:\n"
          "                      single-group mode). Scans fan out\n"
          "                      across boundary shards; transactions\n"
          "                      enroll per team and commit through the\n"
          "                      coordinator shard\n"
          "  --split-threshold N ops per rebalance round above which\n"
          "                      the data distributor splits a hot\n"
          "                      range at its midpoint (needs --shards;\n"
          "                      default: splits off)\n"
          "  --shard-max-ops N   ops per rebalance round above which a\n"
          "                      team counts as overloaded and its\n"
          "                      hottest range migrates to the coldest\n"
          "                      healthy team (needs --shards; default:\n"
          "                      migrations off)\n\n"
          "workload:\n"
          "  --workload W        a | b | c | d | w | e (default a;\n"
          "                      e mixes 95% range scans and needs an\n"
          "                      ordered --store: skiplist | bplustree)\n"
          "  --keys N            key-space size (default 100000)\n"
          "  --theta T           zipfian skew (default 0.99)\n"
          "  --hot-offset N      rotate the zipfian hot keys N\n"
          "                      positions up the key space (puts the\n"
          "                      hot range mid-shard instead of at\n"
          "                      key 0)\n"
          "  --trace-file PATH   replay a recorded op trace instead\n"
          "                      (format: one 'R <key>' or 'W <key>'\n"
          "                      per line)\n\n"
          "network:\n"
          "  --rtt-ns N          NIC-to-NIC round trip (default 1000)\n"
          "  --bandwidth-gbps N  NIC line rate (default 200)\n\n"
          "run control:\n"
          "  --warmup-us N       warmup window (default 1000)\n"
          "  --measure-us N      measurement window (default 3000)\n"
          "  --seed N            RNG seed (default 42)\n"
          "  --crash-at-us N     inject a full-system crash at N us\n"
          "                      after simulation start\n"
          "  --crash-nodes LIST  comma-separated node ids: crash only\n"
          "                      these (with --crash-at-us or\n"
          "                      --torture) instead of the whole\n"
          "                      cluster\n"
          "  --restart-after-us N  downtime before crashed nodes\n"
          "                      restart and re-join; 0 = instant\n"
          "                      rebuild (default 0; torture with\n"
          "                      --crash-nodes defaults to 200)\n"
          "  --req-timeout-us N  client request timeout driving\n"
          "                      coordinator failover (default: auto,\n"
          "                      50 when a staged restart needs it)\n"
          "  --value-lines N     64B lines per stored value (default:\n"
          "                      4 under --torture, else 1)\n"
          "  --no-commit-records torn-persist ablation: recovery\n"
          "                      trusts the newest version tag and may\n"
          "                      install torn values\n"
          "  --xact-max-attempts N  attempts per transaction batch\n"
          "                      before the client abandons it\n"
          "                      (default 64)\n"
          "  --recovery R        voting | local | simulated | instant —\n"
          "                      post-crash recovery policy\n"
          "                      (default voting). instant re-joins\n"
          "                      after only an index scan and faults\n"
          "                      cold keys in on demand; requires\n"
          "                      commit records\n"
          "  --timeline-bucket-us N  record a throughput-over-time\n"
          "                      series with N-us buckets (JSON output\n"
          "                      gains timeline_ops_per_sec and\n"
          "                      recovery_time_to_slo_us; downtime\n"
          "                      shows as explicit zero samples);\n"
          "                      0 = off (default)\n"
          "  --recovery-slo-frac F  fraction of the pre-crash\n"
          "                      throughput baseline that counts as\n"
          "                      recovered, in (0, 1] (default 0.9)\n"
          "  --backfill-batch N  keys per instant-recovery background\n"
          "                      backfill round (default 64)\n"
          "  --backfill-interval-us N  pause between backfill rounds\n"
          "                      (default 2)\n\n"
          "torture sweep:\n"
          "  --torture N         crash-point torture: re-run the seeded\n"
          "                      workload crashing at N points per\n"
          "                      model, audit durability after every\n"
          "                      recovery, exit non-zero on any\n"
          "                      taxonomy violation\n"
          "  --torture-random    seeded-random crash points instead of\n"
          "                      evenly spaced ones\n\n"
          "fault injection (enables reliable delivery):\n"
          "  --drop-rate R       per-message drop probability\n"
          "  --dup-rate R        per-message duplication probability\n"
          "  --delay-rate R      per-message extra-delay probability\n"
          "  --delay-ns N        extra delay when one fires\n"
          "                      (default 1000-10000 random)\n"
          "  --reorder-rate R    per-message reorder probability\n"
          "  --isolate N:USEC    sever all links of node N from USEC\n"
          "                      on (repeatable)\n"
          "  --partition-us A:B  partition first half of the servers\n"
          "                      from the rest during [A, B) us\n"
          "  --fault-seed N      chaos RNG seed (default: derive\n"
          "                      from --seed)\n\n"
          "gray failures (fail-slow injection + mitigation):\n"
          "  --slow-node N       degrade node N fail-slow: it keeps\n"
          "                      answering, just slower\n"
          "  --slow-factor F     service-time multiplier of the\n"
          "                      degraded layer, >= 1 (default 5)\n"
          "  --slow-layer L      nvm | nic | core — which layer of the\n"
          "                      slow node degrades (default nvm)\n"
          "  --slow-window-us A:B  degrade only during [A, B) us\n"
          "                      (default: the whole run)\n"
          "  --slow-ramp         ramp the slowdown linearly from 1x at\n"
          "                      A to F at B (needs --slow-window-us)\n"
          "  --hedge             hedge tail reads: after an adaptive\n"
          "                      per-server p99 delay, duplicate the\n"
          "                      read to an admissible replica and\n"
          "                      take the first answer (budgeted)\n"
          "  --shed              CoDel-style overload control: nodes\n"
          "                      with sustained queue delay shed\n"
          "                      speculative (hedge) requests first\n"
          "  --gray-sweep        A/B sweep per model: same seeded\n"
          "                      workload with one gray node, run with\n"
          "                      mitigations off then on; property\n"
          "                      checker attached to every run, exits\n"
          "                      non-zero on any consistency violation\n\n"
          "open-loop traffic (arrival-driven offered load):\n"
          "  --open-loop         issue requests on arrival-process\n"
          "                      arrivals instead of the closed\n"
          "                      completion loop; latencies gain a\n"
          "                      client_queue phase and JSON output\n"
          "                      gains per-tenant accounting\n"
          "  --arrival A         poisson | bursty | diurnal | flash —\n"
          "                      arrival process (default poisson;\n"
          "                      flash also shifts the hot keys by\n"
          "                      half the key space mid-run)\n"
          "  --arrival-rate R    aggregate offered load, ops/s\n"
          "                      (default 1e6)\n"
          "  --inflight-window N per-client in-flight cap (default 16)\n"
          "  --queue-cap N       per-client arrival-queue cap; overflow\n"
          "                      is shed (default 64)\n"
          "  --churn-us N        rotate every client to the next\n"
          "                      coordinator every N us (default off)\n"
          "  --slo-us N          per-op latency SLO; served ops at or\n"
          "                      under it count toward slo_attainment\n"
          "                      (default: none)\n"
          "  --tenant SPEC       add a tenant with its own workload,\n"
          "                      arrival process, SLO and client share\n"
          "                      (repeatable; implies --open-loop):\n"
          "                      NAME:WKL:ARRIVAL:RATE[:SLO_US[:CLIENTS]]\n"
          "  --offered-sweep LO:HI:STEPS\n"
          "                      ramp offered load from LO to HI ops/s\n"
          "                      in STEPS points over the five\n"
          "                      persistency bindings (all 25 models\n"
          "                      with --all-models) to find each\n"
          "                      saturation knee; implies --open-loop,\n"
          "                      audits every run with the property\n"
          "                      checker and exits non-zero on any\n"
          "                      violation\n\n"
          "hot path (simulated results are bit-identical either way):\n"
          "  --no-batched-delivery  schedule one event per message\n"
          "                      instead of doorbell-coalesced ring\n"
          "                      drains (perf A/B + equivalence\n"
          "                      oracle)\n\n"
          "output:\n"
          "  --format F          table | csv | json (default table)\n"
          "  --trace-out PATH    write a Chrome-trace-event JSON\n"
          "                      timeline (load at ui.perfetto.dev);\n"
          "                      one pid block per run, byte-identical\n"
          "                      for any --jobs count. Not available\n"
          "                      with --torture.\n"
          "  --jobs N            worker threads for --all-models /\n"
          "                      --torture sweeps; 0 = one per hardware\n"
          "                      thread (default 1). Output is\n"
          "                      byte-identical for any job count.\n"
          "  --help              this text\n";
}

// --- Strict numeric parsing -----------------------------------------------
// Every flag value must consume the whole string; garbage, signs,
// overflow and out-of-range probabilities are rejected instead of being
// silently truncated to whatever strtoul makes of them.

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s[0] == '-' || s[0] == '+' ||
        std::isspace(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

bool
parseU32(const std::string &s, std::uint32_t &out)
{
    std::uint64_t v;
    if (!parseU64(s, v) || v > UINT32_MAX)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/** A probability: a finite double in [0, 1]. */
bool
parseProb(const std::string &s, double &out)
{
    double v;
    if (!parseDouble(s, v) || v < 0.0 || v > 1.0)
        return false;
    out = v;
    return true;
}

/** Comma-separated node-id list, e.g. "1,3". */
bool
parseNodeList(const std::string &s, std::vector<net::NodeId> &out)
{
    out.clear();
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        std::size_t len =
            (comma == std::string::npos ? s.size() : comma) - pos;
        std::uint32_t id;
        if (!parseU32(s.substr(pos, len), id))
            return false;
        if (std::find(out.begin(), out.end(), id) == out.end())
            out.push_back(id);
        pos = comma == std::string::npos ? s.size() : comma + 1;
    }
    return !out.empty();
}

bool
parseConsistency(const std::string &s, core::Consistency &out)
{
    if (s == "linearizable") out = core::Consistency::Linearizable;
    else if (s == "read-enforced") out = core::Consistency::ReadEnforced;
    else if (s == "transactional") out = core::Consistency::Transactional;
    else if (s == "causal") out = core::Consistency::Causal;
    else if (s == "eventual") out = core::Consistency::Eventual;
    else return false;
    return true;
}

bool
parsePersistency(const std::string &s, core::Persistency &out)
{
    if (s == "strict") out = core::Persistency::Strict;
    else if (s == "synchronous") out = core::Persistency::Synchronous;
    else if (s == "read-enforced") out = core::Persistency::ReadEnforced;
    else if (s == "scope") out = core::Persistency::Scope;
    else if (s == "eventual") out = core::Persistency::Eventual;
    else return false;
    return true;
}

bool
parseStore(const std::string &s, kv::StoreKind &out)
{
    if (s == "hash") out = kv::StoreKind::HashTable;
    else if (s == "skiplist") out = kv::StoreKind::SkipList;
    else if (s == "btree") out = kv::StoreKind::BTree;
    else if (s == "bplustree") out = kv::StoreKind::BPlusTree;
    else if (s == "slablru") out = kv::StoreKind::SlabLru;
    else return false;
    return true;
}

bool
validWorkloadName(const std::string &s)
{
    return s == "a" || s == "b" || s == "c" || s == "d" || s == "w" ||
           s == "e";
}

workload::WorkloadSpec
workloadByName(const std::string &name, std::uint64_t keys, double theta,
               std::uint64_t hot_offset = 0)
{
    workload::WorkloadSpec w;
    if (name == "a") w = workload::WorkloadSpec::ycsbA(keys);
    else if (name == "b") w = workload::WorkloadSpec::ycsbB(keys);
    else if (name == "c") w = workload::WorkloadSpec::ycsbC(keys);
    else if (name == "d") w = workload::WorkloadSpec::ycsbD(keys);
    else if (name == "e") w = workload::WorkloadSpec::ycsbE(keys);
    else w = workload::WorkloadSpec::ycsbW(keys);
    w.zipfTheta = theta;
    w.hotRangeOffset = hot_offset;
    return w;
}

workload::WorkloadSpec
makeWorkload(const Options &opt)
{
    return workloadByName(opt.workload, opt.keys, opt.theta,
                          opt.hotOffset);
}

bool
validArrivalName(const std::string &s)
{
    return s == "poisson" || s == "bursty" || s == "diurnal" ||
           s == "flash";
}

/**
 * Arrival spec for a CLI arrival name. The flash crowd hits mid-way
 * through the measurement window with a half-keyspace hot-key shift,
 * so before/after tails are both observable in one run.
 */
workload::ArrivalSpec
arrivalSpecFor(const std::string &kind, double rate, const Options &opt)
{
    if (kind == "bursty")
        return workload::ArrivalSpec::bursty(rate);
    if (kind == "diurnal")
        return workload::ArrivalSpec::diurnal(rate);
    if (kind == "flash") {
        sim::Tick at = (opt.warmupUs + opt.measureUs / 2) *
                       sim::kMicrosecond;
        return workload::ArrivalSpec::flashCrowd(rate, at,
                                                 opt.keys / 2);
    }
    return workload::ArrivalSpec::poisson(rate);
}

/** Parse one --tenant spec: NAME:WKL:ARRIVAL:RATE[:SLO_US[:CLIENTS]]. */
bool
parseTenantSpec(const std::string &s, Options::TenantOpt &out)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (true) {
        std::size_t colon = s.find(':', pos);
        parts.push_back(s.substr(
            pos, (colon == std::string::npos ? s.size() : colon) - pos));
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    if (parts.size() < 4 || parts.size() > 6)
        return false;
    if (parts[0].empty())
        return false;
    out.name = parts[0];
    if (!validWorkloadName(parts[1]))
        return false;
    out.workload = parts[1];
    if (!validArrivalName(parts[2]))
        return false;
    out.arrival = parts[2];
    if (!parseDouble(parts[3], out.rate) || out.rate <= 0.0)
        return false;
    if (parts.size() >= 5 && !parseU64(parts[4], out.sloUs))
        return false;
    if (parts.size() == 6 && !parseU32(parts[5], out.clients))
        return false;
    return true;
}

/**
 * Parse argv: flag syntax, value domains and mode exclusivity. Which
 * configurations a cluster can run is ClusterConfig::validate()'s
 * call (runSweep). Returns false (after printing a message) on error.
 */
bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto need_value = [&](int i) {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            return false;
        }
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage(std::cout);
            std::exit(0);
        }
        if (flag == "--all-models") {
            opt.allModels = true;
            continue;
        }
        if (flag == "--torture-random") {
            opt.tortureRandom = true;
            continue;
        }
        if (flag == "--no-commit-records") {
            opt.commitRecords = false;
            continue;
        }
        if (flag == "--slow-ramp") {
            opt.slowRamp = true;
            continue;
        }
        if (flag == "--hedge") {
            opt.hedge = true;
            continue;
        }
        if (flag == "--shed") {
            opt.shed = true;
            continue;
        }
        if (flag == "--gray-sweep") {
            opt.graySweep = true;
            continue;
        }
        if (flag == "--no-batched-delivery") {
            opt.batchedDelivery = false;
            continue;
        }
        if (flag == "--open-loop") {
            opt.openLoop = true;
            continue;
        }
        if (!need_value(i))
            return false;
        std::string val = argv[++i];

        auto bad = [&](const char *want) {
            std::cerr << "invalid value '" << val << "' for " << flag
                      << " (want " << want << ")\n";
            return false;
        };

        if (flag == "--consistency") {
            if (!parseConsistency(val, opt.model.consistency)) {
                std::cerr << "unknown consistency '" << val << "'\n";
                return false;
            }
        } else if (flag == "--persistency") {
            if (!parsePersistency(val, opt.model.persistency)) {
                std::cerr << "unknown persistency '" << val << "'\n";
                return false;
            }
        } else if (flag == "--servers") {
            if (!parseU32(val, opt.servers))
                return bad("unsigned integer");
        } else if (flag == "--clients-per-server") {
            if (!parseU32(val, opt.clientsPerServer) ||
                opt.clientsPerServer == 0)
                return bad("positive integer");
        } else if (flag == "--replication") {
            if (!parseU32(val, opt.replication))
                return bad("unsigned integer");
        } else if (flag == "--keys") {
            if (!parseU64(val, opt.keys) || opt.keys == 0)
                return bad("positive integer");
        } else if (flag == "--workload") {
            if (!validWorkloadName(val)) {
                std::cerr << "unknown workload '" << val << "'\n";
                return false;
            }
            opt.workload = val;
        } else if (flag == "--theta") {
            if (!parseDouble(val, opt.theta) || opt.theta < 0.0)
                return bad("non-negative number");
        } else if (flag == "--hot-offset") {
            if (!parseU64(val, opt.hotOffset) || opt.hotOffset == 0)
                return bad("positive key offset");
        } else if (flag == "--shards") {
            if (!parseU32(val, opt.shards) || opt.shards == 0)
                return bad("positive shard count (omit the flag for "
                           "the single-group mode)");
        } else if (flag == "--split-threshold") {
            if (!parseU64(val, opt.splitThreshold) ||
                opt.splitThreshold == 0)
                return bad("positive ops-per-round threshold");
        } else if (flag == "--shard-max-ops") {
            if (!parseU64(val, opt.shardMaxOps) || opt.shardMaxOps == 0)
                return bad("positive ops-per-round cap");
        } else if (flag == "--store") {
            kv::StoreKind k;
            if (!parseStore(val, k)) {
                std::cerr << "unknown store '" << val << "'\n";
                return false;
            }
            opt.store = val;
        } else if (flag == "--rtt-ns") {
            if (!parseU64(val, opt.rttNs))
                return bad("unsigned integer");
        } else if (flag == "--bandwidth-gbps") {
            if (!parseU64(val, opt.bandwidthGbps) ||
                opt.bandwidthGbps == 0)
                return bad("positive integer");
        } else if (flag == "--warmup-us") {
            if (!parseU64(val, opt.warmupUs))
                return bad("unsigned integer");
        } else if (flag == "--measure-us") {
            if (!parseU64(val, opt.measureUs) || opt.measureUs == 0)
                return bad("positive integer");
        } else if (flag == "--seed") {
            if (!parseU64(val, opt.seed))
                return bad("unsigned integer");
        } else if (flag == "--crash-at-us") {
            std::uint64_t at;
            if (!parseU64(val, at))
                return bad("unsigned integer");
            opt.crashAtUs = at;
        } else if (flag == "--crash-nodes") {
            std::vector<net::NodeId> nodes;
            if (!parseNodeList(val, nodes))
                return bad("comma-separated node ids, e.g. 1,3");
            opt.crashNodes = std::move(nodes);
        } else if (flag == "--restart-after-us") {
            if (!parseU64(val, opt.restartAfterUs))
                return bad("unsigned integer");
        } else if (flag == "--req-timeout-us") {
            if (!parseU64(val, opt.reqTimeoutUs))
                return bad("unsigned integer");
        } else if (flag == "--value-lines") {
            if (!parseU32(val, opt.valueLines) || opt.valueLines == 0 ||
                opt.valueLines > 64)
                return bad("integer in [1, 64]");
        } else if (flag == "--xact-max-attempts") {
            if (!parseU32(val, opt.xactMaxAttempts) ||
                opt.xactMaxAttempts == 0)
                return bad("positive integer");
        } else if (flag == "--torture") {
            if (!parseU32(val, opt.torturePoints) ||
                opt.torturePoints == 0)
                return bad("positive integer");
        } else if (flag == "--recovery") {
            if (val != "voting" && val != "local" &&
                val != "simulated" && val != "instant") {
                std::cerr << "unknown recovery policy '" << val
                          << "' (want voting | local | simulated | "
                             "instant)\n";
                return false;
            }
            opt.recovery = val;
        } else if (flag == "--timeline-bucket-us") {
            if (!parseU64(val, opt.timelineBucketUs) ||
                opt.timelineBucketUs == 0)
                return bad("positive integer");
        } else if (flag == "--recovery-slo-frac") {
            if (!parseDouble(val, opt.recoverySloFrac) ||
                opt.recoverySloFrac <= 0.0 || opt.recoverySloFrac > 1.0)
                return bad("fraction in (0, 1]");
        } else if (flag == "--backfill-batch") {
            if (!parseU32(val, opt.backfillBatch) ||
                opt.backfillBatch == 0)
                return bad("positive integer");
        } else if (flag == "--backfill-interval-us") {
            if (!parseU64(val, opt.backfillIntervalUs) ||
                opt.backfillIntervalUs == 0)
                return bad("positive integer");
        } else if (flag == "--drop-rate") {
            if (!parseProb(val, opt.dropRate))
                return bad("probability in [0, 1]");
        } else if (flag == "--dup-rate") {
            if (!parseProb(val, opt.dupRate))
                return bad("probability in [0, 1]");
        } else if (flag == "--delay-rate") {
            if (!parseProb(val, opt.delayRate))
                return bad("probability in [0, 1]");
        } else if (flag == "--delay-ns") {
            if (!parseU64(val, opt.delayNs))
                return bad("unsigned integer");
        } else if (flag == "--reorder-rate") {
            if (!parseProb(val, opt.reorderRate))
                return bad("probability in [0, 1]");
        } else if (flag == "--fault-seed") {
            if (!parseU64(val, opt.faultSeed))
                return bad("unsigned integer");
        } else if (flag == "--slow-node") {
            std::uint32_t node;
            if (!parseU32(val, node))
                return bad("unsigned integer");
            opt.slowNode = node;
        } else if (flag == "--slow-factor") {
            if (!parseDouble(val, opt.slowFactor) ||
                opt.slowFactor < 1.0)
                return bad("factor >= 1");
        } else if (flag == "--slow-layer") {
            if (val != "nvm" && val != "nic" && val != "core") {
                std::cerr << "unknown slow layer '" << val
                          << "' for --slow-layer (want nvm | nic | "
                             "core)\n";
                return false;
            }
            opt.slowLayer = val;
        } else if (flag == "--slow-window-us") {
            std::size_t colon = val.find(':');
            std::uint64_t from, until;
            if (colon == std::string::npos ||
                !parseU64(val.substr(0, colon), from) ||
                !parseU64(val.substr(colon + 1), until) ||
                until <= from)
                return bad("FROM:UNTIL with FROM < UNTIL");
            opt.slowWindowUs = {{from, until}};
        } else if (flag == "--isolate") {
            std::size_t colon = val.find(':');
            std::uint32_t node;
            std::uint64_t from;
            if (colon == std::string::npos ||
                !parseU32(val.substr(0, colon), node) ||
                !parseU64(val.substr(colon + 1), from))
                return bad("N:USEC");
            opt.isolate.emplace_back(node, from);
        } else if (flag == "--partition-us") {
            std::size_t colon = val.find(':');
            std::uint64_t from, until;
            if (colon == std::string::npos ||
                !parseU64(val.substr(0, colon), from) ||
                !parseU64(val.substr(colon + 1), until) || until < from)
                return bad("FROM:UNTIL with FROM <= UNTIL");
            opt.partitionUs = {from, until};
        } else if (flag == "--trace-file") {
            opt.traceFile = val;
        } else if (flag == "--trace-out") {
            if (val.empty())
                return bad("output path");
            opt.traceOut = val;
        } else if (flag == "--format") {
            if (val == "csv") {
                opt.format = Options::Format::Csv;
            } else if (val == "json") {
                opt.format = Options::Format::Json;
            } else if (val == "table") {
                opt.format = Options::Format::Table;
            } else {
                std::cerr << "unknown format '" << val << "'\n";
                return false;
            }
        } else if (flag == "--jobs") {
            std::uint32_t jobs;
            if (!parseU32(val, jobs))
                return bad("unsigned integer (0 = auto)");
            opt.jobs = jobs == 0 ? sim::ThreadPool::hardwareThreads()
                                 : jobs;
        } else if (flag == "--arrival") {
            if (!validArrivalName(val)) {
                std::cerr << "unknown arrival process '" << val
                          << "' for --arrival (want poisson | bursty | "
                             "diurnal | flash)\n";
                return false;
            }
            opt.arrival = val;
        } else if (flag == "--arrival-rate") {
            if (!parseDouble(val, opt.arrivalRate) ||
                opt.arrivalRate <= 0.0)
                return bad("positive ops/s");
        } else if (flag == "--inflight-window") {
            if (!parseU32(val, opt.inflightWindow) ||
                opt.inflightWindow == 0)
                return bad("positive integer");
        } else if (flag == "--queue-cap") {
            if (!parseU32(val, opt.queueCap) || opt.queueCap == 0)
                return bad("positive integer");
        } else if (flag == "--churn-us") {
            if (!parseU64(val, opt.churnUs) || opt.churnUs == 0)
                return bad("positive integer");
        } else if (flag == "--slo-us") {
            if (!parseU64(val, opt.sloUs) || opt.sloUs == 0)
                return bad("positive integer");
        } else if (flag == "--tenant") {
            Options::TenantOpt t;
            if (!parseTenantSpec(val, t))
                return bad("NAME:WKL:ARRIVAL:RATE[:SLO_US[:CLIENTS]]");
            opt.tenants.push_back(std::move(t));
        } else if (flag == "--offered-sweep") {
            std::size_t c1 = val.find(':');
            std::size_t c2 = c1 == std::string::npos
                                 ? std::string::npos
                                 : val.find(':', c1 + 1);
            double lo = 0.0, hi = 0.0;
            std::uint32_t steps = 0;
            if (c2 == std::string::npos ||
                !parseDouble(val.substr(0, c1), lo) || lo <= 0.0 ||
                !parseDouble(val.substr(c1 + 1, c2 - c1 - 1), hi) ||
                hi < lo || !parseU32(val.substr(c2 + 1), steps) ||
                steps == 0)
                return bad("LO:HI:STEPS with 0 < LO <= HI, STEPS >= 1");
            opt.offeredLo = lo;
            opt.offeredHi = hi;
            opt.offeredSteps = steps;
        } else {
            std::cerr << "unknown flag '" << flag << "' (see --help)\n";
            return false;
        }
    }

    if (opt.crashNodes && !opt.crashAtUs && opt.torturePoints == 0) {
        std::cerr << "--crash-nodes needs --crash-at-us or --torture to "
                     "pick the crash point\n";
        return false;
    }
    if (opt.torturePoints > 0 && !opt.traceOut.empty()) {
        std::cerr << "--trace-out is not available with --torture "
                     "(hundreds of runs make one merged timeline "
                     "useless); trace a single crash run with "
                     "--crash-at-us instead\n";
        return false;
    }
    if (opt.torturePoints > 0 && opt.crashAtUs) {
        std::cerr << "--torture picks its own crash points; drop "
                     "--crash-at-us\n";
        return false;
    }
    if (opt.crashAtUs &&
        *opt.crashAtUs >= opt.warmupUs + opt.measureUs) {
        std::cerr << "--crash-at-us lies past the end of the run ("
                  << opt.warmupUs + opt.measureUs << " us)\n";
        return false;
    }
    // ClusterConfig::validate() owns this rule too; the flag-named
    // text is kept because scripts match it.
    if (opt.slowNode && *opt.slowNode >= opt.servers) {
        std::cerr << "--slow-node " << *opt.slowNode
                  << " out of range (servers: " << opt.servers << ")\n";
        return false;
    }
    if (opt.slowRamp && !opt.slowWindowUs) {
        std::cerr << "--slow-ramp needs --slow-window-us to define "
                     "the ramp endpoints\n";
        return false;
    }
    if (opt.graySweep) {
        if (opt.torturePoints > 0) {
            std::cerr << "--gray-sweep and --torture are separate "
                         "sweeps; pick one\n";
            return false;
        }
        if (opt.crashAtUs) {
            std::cerr << "--gray-sweep is a fail-slow experiment; "
                         "drop --crash-at-us\n";
            return false;
        }
        if (!opt.traceOut.empty()) {
            std::cerr << "--trace-out is not available with "
                         "--gray-sweep (two runs per model make one "
                         "merged timeline useless); trace a single "
                         "run with --slow-node instead\n";
            return false;
        }
    }
    if (opt.shards == 0 &&
        (opt.splitThreshold > 0 || opt.shardMaxOps > 0)) {
        std::cerr << "--split-threshold / --shard-max-ops drive the "
                     "shard data distributor; add --shards N\n";
        return false;
    }
    // Tenants are open-loop constructs: a closed-loop run has no
    // arrival processes for them to drive.
    if (!opt.tenants.empty())
        opt.openLoop = true;
    if (opt.offeredSteps > 0) {
        opt.openLoop = true;
        if (opt.torturePoints > 0 || opt.graySweep) {
            std::cerr << "--offered-sweep, --torture and --gray-sweep "
                         "are separate sweeps; pick one\n";
            return false;
        }
        if (opt.crashAtUs) {
            std::cerr << "--offered-sweep is a saturation experiment; "
                         "drop --crash-at-us\n";
            return false;
        }
        if (!opt.traceOut.empty()) {
            std::cerr << "--trace-out is not available with "
                         "--offered-sweep (many runs make one merged "
                         "timeline useless); trace a single --open-loop "
                         "run instead\n";
            return false;
        }
        if (!opt.tenants.empty()) {
            std::cerr << "--offered-sweep ramps a single implicit "
                         "tenant; drop --tenant\n";
            return false;
        }
    }
    return true;
}

cluster::ClusterConfig
makeConfig(const Options &opt, core::DdpModel model)
{
    cluster::ClusterConfig cfg;
    cfg.model = model;
    cfg.numServers = opt.servers;
    cfg.clientsPerServer = opt.clientsPerServer;
    cfg.replicationFactor = opt.replication;
    cfg.keyCount = opt.keys;
    cfg.workload = makeWorkload(opt);
    cfg.network.roundTrip = opt.rttNs * sim::kNanosecond;
    cfg.network.bandwidthBps = opt.bandwidthGbps * 1000ull * 1000 * 1000;
    cfg.network.batchedDelivery = opt.batchedDelivery;
    cfg.warmup = opt.warmupUs * sim::kMicrosecond;
    cfg.measure = opt.measureUs * sim::kMicrosecond;
    cfg.seed = opt.seed;
    kv::StoreKind kind;
    parseStore(opt.store, kind);
    cfg.node.storeKind = kind;
    cfg.xactMaxAttempts = opt.xactMaxAttempts;

    // Sharded multi-group topology.
    cfg.numShards = opt.shards;
    cfg.shardSplitThreshold = opt.splitThreshold;
    cfg.shardMaxOps = opt.shardMaxOps;

    // Multi-line values: torture runs default to 4-line (256B) values
    // so crashes can land mid-persist and exercise the torn-write
    // machinery; plain runs keep the single-line fast path.
    cfg.node.valueLines = opt.valueLines != 0
                              ? opt.valueLines
                              : (opt.torturePoints > 0 ? 4 : 1);
    cfg.node.commitRecords = opt.commitRecords;

    // A staged partial crash parks the victims' clients on a dead
    // coordinator; only the request timeout gets them failing over, so
    // it defaults on whenever a restart is in play.
    std::uint64_t timeout_us = opt.reqTimeoutUs;
    bool staged = opt.crashNodes &&
                  (opt.restartAfterUs > 0 || opt.torturePoints > 0);
    if (timeout_us == 0 && staged)
        timeout_us = 50;
    cfg.clientRequestTimeout = timeout_us * sim::kMicrosecond;

    if (opt.recovery == "local")
        cfg.recovery = cluster::RecoveryPolicy::LocalOnly;
    else if (opt.recovery == "simulated")
        cfg.recovery = cluster::RecoveryPolicy::SimulatedVoting;
    else if (opt.recovery == "instant")
        cfg.recovery = cluster::RecoveryPolicy::Instant;
    else
        cfg.recovery = cluster::RecoveryPolicy::Voting;

    cfg.timelineBucket = opt.timelineBucketUs * sim::kMicrosecond;
    cfg.recoverySloFrac = opt.recoverySloFrac;
    if (opt.backfillBatch > 0)
        cfg.node.instantBackfillBatch = opt.backfillBatch;
    if (opt.backfillIntervalUs > 0)
        cfg.node.instantBackfillInterval =
            opt.backfillIntervalUs * sim::kMicrosecond;

    cfg.faults.seed = opt.faultSeed;
    cfg.faults.allLinks.dropRate = opt.dropRate;
    cfg.faults.allLinks.duplicateRate = opt.dupRate;
    cfg.faults.allLinks.delayRate = opt.delayRate;
    if (opt.delayNs > 0) {
        cfg.faults.allLinks.delayMin = opt.delayNs * sim::kNanosecond;
        cfg.faults.allLinks.delayMax = opt.delayNs * sim::kNanosecond;
    }
    cfg.faults.allLinks.reorderRate = opt.reorderRate;
    for (auto [node, from_us] : opt.isolate) {
        cfg.faults.outages.push_back(
            net::NodeOutage{node, from_us * sim::kMicrosecond,
                            sim::kTickNever});
    }
    if (opt.partitionUs) {
        net::PartitionWindow w;
        w.from = opt.partitionUs->first * sim::kMicrosecond;
        w.until = opt.partitionUs->second * sim::kMicrosecond;
        for (std::uint32_t n = 0; n < opt.servers / 2; ++n)
            w.groupA.push_back(n);
        cfg.faults.partitions.push_back(std::move(w));
    }
    if (opt.slowNode) {
        net::SlowWindow w;
        w.node = *opt.slowNode;
        if (opt.slowLayer == "nic")
            w.layer = net::SlowLayer::Nic;
        else if (opt.slowLayer == "core")
            w.layer = net::SlowLayer::Core;
        else
            w.layer = net::SlowLayer::Nvm;
        w.factor = opt.slowFactor;
        if (opt.slowWindowUs) {
            w.from = opt.slowWindowUs->first * sim::kMicrosecond;
            w.until = opt.slowWindowUs->second * sim::kMicrosecond;
        }
        w.ramp = opt.slowRamp;
        cfg.faults.slow.push_back(w);
    }
    cfg.hedgedReads = opt.hedge;
    cfg.node.shedEnabled = opt.shed;

    // Open-loop traffic: build the tenant table. Every tenant binds to
    // the run's model (heterogeneous bindings = separate runs).
    cfg.openLoop = opt.openLoop;
    cfg.inflightWindow = opt.inflightWindow;
    cfg.clientQueueCap = opt.queueCap;
    cfg.churnInterval = opt.churnUs * sim::kMicrosecond;
    if (opt.openLoop) {
        if (opt.tenants.empty()) {
            cluster::TenantSpec t;
            t.name = "default";
            t.workload = cfg.workload;
            t.arrival =
                arrivalSpecFor(opt.arrival, opt.arrivalRate, opt);
            t.model = model;
            t.sloLatency = opt.sloUs * sim::kMicrosecond;
            cfg.tenants.push_back(std::move(t));
        } else {
            for (const Options::TenantOpt &to : opt.tenants) {
                cluster::TenantSpec t;
                t.name = to.name;
                t.workload = workloadByName(to.workload, opt.keys,
                                            opt.theta, opt.hotOffset);
                t.arrival = arrivalSpecFor(to.arrival, to.rate, opt);
                t.model = model;
                t.sloLatency = to.sloUs * sim::kMicrosecond;
                t.clients = to.clients;
                cfg.tenants.push_back(std::move(t));
            }
        }
    }
    return cfg;
}

/** One cell of a sweep grid: a model at one point of the mode's axis. */
struct Row
{
    core::DdpModel model;
    /** Index along the mode's second axis (crash point, mitigations
     *  off/on, offered load); 0 for plain runs. */
    std::size_t point = 0;
    cluster::RunResult result;
    bool violation = false;
    /** Serialized trace-event fragment (--trace-out only). */
    std::string traceJson;
    std::uint64_t traceDropped = 0;
};

/**
 * One ddpsim mode as a grid of models x points, each cell one
 * independent cluster run. Modes differ only in these fields and in
 * their printers; runSweep() and verdict() do the rest.
 */
struct Sweep
{
    /** Progress, summary and verdict prefix, e.g. "gray sweep". */
    const char *name = "sweep";
    std::vector<core::DdpModel> models;
    std::size_t points = 1;
    /** The cell's cluster config. */
    std::function<cluster::ClusterConfig(const core::DdpModel &,
                                         std::size_t point)>
        config;
    /** Attach a PropertyChecker to every run. */
    bool checked = true;
    /** Schedules the cell's crash, if it has one. */
    std::function<void(cluster::Cluster &, std::size_t point)> arm =
        [](cluster::Cluster &, std::size_t) {};
    /** Whether a finished cell broke what its model guarantees. */
    std::function<bool(const Row &)> violates = [](const Row &) {
        return false;
    };
    /** What violating runs broke, and the passing verdict's tail. */
    const char *violated = "";
    const char *passed = "";
};

/**
 * The models a mode sweeps: @p candidates minus the ones the config
 * rules reject while others pass (partial replication drops Causal
 * and Transactional). When the rules reject every candidate the list
 * stays whole, so runSweep() reports the broken rule.
 */
std::vector<core::DdpModel>
sweepModels(const Options &opt, const std::vector<core::DdpModel> &candidates)
{
    std::vector<core::DdpModel> kept;
    std::string skipped;
    for (const core::DdpModel &m : candidates) {
        std::string err = makeConfig(opt, m).validate();
        if (err.empty())
            kept.push_back(m);
        else
            skipped += "skipping " + core::modelName(m) + ": " + err + "\n";
    }
    if (kept.empty())
        return candidates;
    std::cerr << skipped;
    return kept;
}

/** --all-models, or the one selected model. */
std::vector<core::DdpModel>
selectedModels(const Options &opt)
{
    return sweepModels(opt, opt.allModels
                                ? core::allModels()
                                : std::vector<core::DdpModel>{opt.model});
}

/**
 * Builds and validates every cell's config before any run starts:
 * the first broken rule (ClusterConfig::validate(), then the crash
 * victims) is printed and nullopt returned. Then runs the cells across
 * --jobs workers with progress lines and an "N runs, E events in W s"
 * summary on stderr. Rows come back in cell order whatever the job
 * count, so output stays byte-identical.
 */
std::optional<std::vector<Row>>
runSweep(const Options &opt, const Sweep &sw, const workload::Trace *trace)
{
    const std::size_t n = sw.models.size() * sw.points;
    std::vector<cluster::ClusterConfig> cfgs;
    cfgs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        cluster::ClusterConfig cfg =
            sw.config(sw.models[i / sw.points], i % sw.points);
        cfg.trace = trace;
        std::string err = cfg.validate();
        if (err.empty() && opt.crashNodes)
            err = cfg.validateCrashVictims(*opt.crashNodes);
        if (!err.empty()) {
            std::cerr << "invalid configuration: " << err << "\n";
            return std::nullopt;
        }
        cfgs.push_back(std::move(cfg));
    }

    auto t0 = std::chrono::steady_clock::now();
    sim::SweepRunner runner(opt.jobs);
    const bool verbose = n > 1;
    if (verbose && runner.jobs() > 1)
        std::cerr << sw.name << ": " << sw.models.size() << " model(s), "
                  << n << " runs (" << runner.jobs() << " jobs)...\n";
    std::vector<Row> rows = runner.map(n, [&](std::size_t i) {
        Row row;
        row.model = sw.models[i / sw.points];
        row.point = i % sw.points;
        if (verbose && runner.jobs() <= 1 && row.point == 0)
            std::cerr << sw.name << ": " << core::modelName(row.model)
                      << "...\n";
        cluster::Cluster c(cfgs[i]);
        // Per-run recorder with a disjoint pid block: run N's tracks
        // are pids [N*1000, N*1000+servers]. Fragments are serialized
        // here on the worker and merged in run order by writeTrace(),
        // so the file is byte-identical for any --jobs count.
        std::optional<sim::TraceRecorder> rec;
        if (!opt.traceOut.empty()) {
            rec.emplace(static_cast<std::uint32_t>(i) * 1000);
            c.setTrace(&*rec);
        }
        core::PropertyChecker checker;
        if (sw.checked)
            c.setChecker(&checker);
        sw.arm(c, row.point);
        row.result = c.run();
        row.violation = sw.violates(row);
        if (rec) {
            row.traceJson = rec->serialize();
            row.traceDropped = rec->dropped();
        }
        return row;
    });

    if (verbose) {
        std::uint64_t events = 0;
        for (const Row &r : rows)
            events += r.result.eventsExecuted;
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        std::cerr << sw.name << ": " << rows.size() << " runs, " << events
                  << " events in " << wall << " s ("
                  << (wall > 0 ? static_cast<double>(events) / wall : 0.0)
                  << " events/s, " << runner.jobs() << " jobs)\n";
    }
    return rows;
}

/**
 * A checked sweep's exit status: 1 with "<NAME> FAILED: V of N runs
 * violated ..." when any row violated, else 0 with "<name> passed".
 */
int
verdict(const Sweep &sw, const std::vector<Row> &rows)
{
    std::size_t bad = std::count_if(rows.begin(), rows.end(),
                                    [](const Row &r) { return r.violation; });
    if (bad > 0) {
        std::string name = sw.name;
        for (char &ch : name)
            ch = static_cast<char>(
                std::toupper(static_cast<unsigned char>(ch)));
        std::cerr << name << " FAILED: " << bad << " of " << rows.size()
                  << " runs violated " << sw.violated << "\n";
        return 1;
    }
    std::cerr << sw.name << " passed: " << rows.size() << ' ' << sw.passed
              << "\n";
    return 0;
}

/**
 * Schedules a crash at @p at_us: of the whole cluster, or of
 * --crash-nodes, staged with a restart after @p restart_us when > 0.
 */
void
armCrash(cluster::Cluster &c, const Options &opt, std::uint64_t at_us,
         std::uint64_t restart_us)
{
    sim::Tick at = at_us * sim::kMicrosecond;
    if (!opt.crashNodes)
        c.scheduleCrash(at);
    else if (restart_us > 0)
        c.schedulePartialCrash(at, *opt.crashNodes,
                               restart_us * sim::kMicrosecond);
    else
        c.schedulePartialCrash(at, *opt.crashNodes);
}

/** A read its model forbids (non-monotonic, stale) or a torn read. */
bool
readsViolate(const Row &r)
{
    core::ModelTraits traits = core::traitsOf(r.model);
    return (traits.monotonicReads && r.result.monotonicViolations > 0) ||
           (traits.nonStaleReads && r.result.staleReads > 0) ||
           r.result.tornReadsServed > 0;
}

/** "0;2;4" — semicolon-joined so the list stays one CSV field. */
std::string
joinNodes(const std::vector<net::NodeId> &nodes)
{
    std::string out;
    for (net::NodeId n : nodes) {
        if (!out.empty())
            out += ';';
        out += std::to_string(n);
    }
    return out;
}

void
printRows(const Options &opt, const std::vector<Row> &rows)
{
    if (opt.format == Options::Format::Json) {
        bench::JsonArrayWriter w(std::cout);
        for (const Row &r : rows) {
            w.beginRecord();
            w.field("schema", "ddp-bench-v1");
            w.field("bench", "ddpsim");
            bench::jsonPerfFields(w, r.model, opt.seed, r.result);
            w.field("recovery", opt.recovery);
            w.field("lost_acked_keys", r.result.lostAckedWriteKeys);
            w.field("lost_acked_writes", r.result.lostAckedWrites);
            w.field("xact_aborts", r.result.xactAborted);
            w.field("net_dropped", r.result.netDropped);
            w.field("net_retransmits", r.result.netRetransmits);
            w.field("net_give_ups", r.result.netGiveUps);
            w.endRecord();
        }
        w.finish();
        return;
    }

    if (opt.format == Options::Format::Csv) {
        std::cout << "consistency,persistency,throughput_mreqs,"
                     "mean_read_ns,mean_write_ns,p95_read_ns,"
                     "p95_write_ns,messages,persists,xact_aborts,"
                     "xact_abandoned,lost_acked_keys,lost_acked_writes,"
                     "torn_detected,torn_installed,torn_served,"
                     "node_restarts,convergence_failures,"
                     "client_failovers,client_retransmits,"
                     "retransmits_deduped,net_dropped,net_retransmits,"
                     "net_rto_timeouts,net_give_ups,unreachable\n";
        for (const Row &r : rows) {
            std::cout << core::consistencyName(r.model.consistency)
                      << ','
                      << core::persistencyName(r.model.persistency)
                      << ',' << r.result.throughput / 1e6 << ','
                      << r.result.meanReadNs << ','
                      << r.result.meanWriteNs << ','
                      << r.result.p95ReadNs << ','
                      << r.result.p95WriteNs << ','
                      << r.result.messages << ','
                      << r.result.persistsIssued << ','
                      << r.result.xactAborted << ','
                      << r.result.xactAbandoned << ','
                      << r.result.lostAckedWriteKeys << ','
                      << r.result.lostAckedWrites << ','
                      << r.result.tornPersistsDetected << ','
                      << r.result.tornValuesInstalled << ','
                      << r.result.tornReadsServed << ','
                      << r.result.nodeRestarts << ','
                      << r.result.convergenceFailures << ','
                      << r.result.clientFailovers << ','
                      << r.result.clientRetransmits << ','
                      << r.result.clientRetransmitsDeduped << ','
                      << r.result.netDropped << ','
                      << r.result.netRetransmits << ','
                      << r.result.netRtoTimeouts << ','
                      << r.result.netGiveUps << ','
                      << joinNodes(r.result.unreachableNodes) << '\n';
        }
        return;
    }

    bool faulty = false;
    for (const Row &r : rows) {
        if (r.result.netDropped > 0 || r.result.netRetransmits > 0 ||
            r.result.netPartitionDrops > 0 || r.result.degraded())
            faulty = true;
    }

    stats::Table t({"Model", "Mreq/s", "Read(ns)", "Write(ns)",
                    "p95R(ns)", "p95W(ns)", "LostKeys"});
    for (const Row &r : rows) {
        t.addRow({core::modelName(r.model),
                  stats::Table::num(r.result.throughput / 1e6, 2),
                  stats::Table::num(r.result.meanReadNs, 0),
                  stats::Table::num(r.result.meanWriteNs, 0),
                  stats::Table::num(r.result.p95ReadNs, 0),
                  stats::Table::num(r.result.p95WriteNs, 0),
                  opt.crashAtUs
                      ? std::to_string(r.result.lostAckedWriteKeys)
                      : "-"});
    }
    t.print(std::cout);

    if (!faulty)
        return;

    stats::Table ft({"Model", "Dropped", "Retrans", "RTOs", "GiveUps",
                     "Cut", "RecTmo", "Unreachable"});
    for (const Row &r : rows) {
        ft.addRow({core::modelName(r.model),
                   std::to_string(r.result.netDropped),
                   std::to_string(r.result.netRetransmits),
                   std::to_string(r.result.netRtoTimeouts),
                   std::to_string(r.result.netGiveUps),
                   std::to_string(r.result.netPartitionDrops),
                   std::to_string(r.result.recoveryTimeouts),
                   r.result.unreachableNodes.empty()
                       ? "-"
                       : joinNodes(r.result.unreachableNodes)});
    }
    std::cout << "\nfault / reliability summary:\n";
    ft.print(std::cout);
}

/** Merges the runs' trace fragments into --trace-out; 1 on I/O error. */
int
writeTrace(const Options &opt, std::vector<Row> &rows)
{
    std::ofstream out(opt.traceOut, std::ios::binary);
    if (!out) {
        std::cerr << "cannot open '" << opt.traceOut << "' for writing\n";
        return 1;
    }
    std::vector<std::string> fragments;
    fragments.reserve(rows.size());
    std::uint64_t dropped = 0;
    for (Row &r : rows) {
        fragments.push_back(std::move(r.traceJson));
        dropped += r.traceDropped;
    }
    sim::TraceRecorder::writeFile(out, fragments);
    if (!out) {
        std::cerr << "write to '" << opt.traceOut << "' failed\n";
        return 1;
    }
    std::cerr << "wrote timeline to " << opt.traceOut;
    if (dropped > 0)
        std::cerr << " (" << dropped << " events dropped at the per-run cap)";
    std::cerr << "\n";
    return 0;
}

/** One run per selected model, optionally crashed at --crash-at-us. */
int
runPlain(const Options &opt, const workload::Trace *trace)
{
    Sweep sw;
    sw.models = selectedModels(opt);
    sw.config = [&](const core::DdpModel &m, std::size_t) {
        return makeConfig(opt, m);
    };
    sw.checked = opt.crashAtUs.has_value();
    if (opt.crashAtUs)
        sw.arm = [&](cluster::Cluster &c, std::size_t) {
            armCrash(c, opt, *opt.crashAtUs, opt.restartAfterUs);
        };
    std::optional<std::vector<Row>> rows = runSweep(opt, sw, trace);
    if (!rows)
        return 1;
    printRows(opt, *rows);
    return opt.traceOut.empty() ? 0 : writeTrace(opt, *rows);
}

// --------------------------------------------------------------------------
// Crash-point torture sweep
// --------------------------------------------------------------------------

void
printTorture(const Options &opt, const std::vector<std::uint64_t> &points_us,
             const std::vector<Row> &rows)
{
    const char *mode = opt.crashNodes ? "partial" : "full";
    if (opt.format == Options::Format::Json) {
        bench::JsonArrayWriter w(std::cout);
        for (const Row &r : rows) {
            w.beginRecord();
            w.field("schema", "ddp-bench-v1");
            w.field("bench", "ddpsim-torture");
            bench::jsonPerfFields(w, r.model, opt.seed, r.result);
            w.field("recovery", opt.recovery);
            w.field("crash_at_us", points_us[r.point]);
            w.field("crash_mode", mode);
            w.field("zero_loss_required",
                    core::writesDurableAtCompletion(r.model));
            w.field("lost_acked_keys", r.result.lostAckedWriteKeys);
            w.field("lost_acked_writes", r.result.lostAckedWrites);
            w.field("torn_detected", r.result.tornPersistsDetected);
            w.field("torn_installed", r.result.tornValuesInstalled);
            w.field("torn_served", r.result.tornReadsServed);
            w.field("node_restarts", r.result.nodeRestarts);
            w.field("convergence_failures",
                    r.result.convergenceFailures);
            w.field("client_failovers", r.result.clientFailovers);
            w.field("violation", r.violation);
            w.endRecord();
        }
        w.finish();
    } else if (opt.format == Options::Format::Csv) {
        std::cout << "consistency,persistency,crash_at_us,crash_mode,"
                     "zero_loss_required,lost_acked_keys,"
                     "lost_acked_writes,torn_detected,torn_installed,"
                     "torn_served,node_restarts,convergence_failures,"
                     "client_failovers,retransmits_deduped,"
                     "xact_abandoned,violation\n";
        for (const Row &r : rows) {
            std::cout << core::consistencyName(r.model.consistency)
                      << ','
                      << core::persistencyName(r.model.persistency)
                      << ',' << points_us[r.point] << ',' << mode << ','
                      << (core::writesDurableAtCompletion(r.model) ? 1
                                                                   : 0)
                      << ',' << r.result.lostAckedWriteKeys << ','
                      << r.result.lostAckedWrites << ','
                      << r.result.tornPersistsDetected << ','
                      << r.result.tornValuesInstalled << ','
                      << r.result.tornReadsServed << ','
                      << r.result.nodeRestarts << ','
                      << r.result.convergenceFailures << ','
                      << r.result.clientFailovers << ','
                      << r.result.clientRetransmitsDeduped << ','
                      << r.result.xactAbandoned << ','
                      << (r.violation ? 1 : 0) << '\n';
        }
    } else {
        // Per-model summary over all crash points.
        stats::Table t({"Model", "Points", "ZeroLoss", "LostWrites",
                        "TornDet", "TornInst", "TornServed", "ConvFail",
                        "Viol"});
        const std::size_t points = points_us.size();
        for (std::size_t m = 0; m < rows.size(); m += points) {
            std::uint64_t lost = 0, torn_det = 0, torn_inst = 0;
            std::uint64_t torn_served = 0, conv = 0, viol = 0;
            for (std::size_t i = m; i < m + points; ++i) {
                const Row &r = rows[i];
                lost += r.result.lostAckedWrites;
                torn_det += r.result.tornPersistsDetected;
                torn_inst += r.result.tornValuesInstalled;
                torn_served += r.result.tornReadsServed;
                conv += r.result.convergenceFailures;
                viol += r.violation ? 1 : 0;
            }
            t.addRow({core::modelName(rows[m].model),
                      std::to_string(points),
                      core::writesDurableAtCompletion(rows[m].model)
                          ? "yes"
                          : "no",
                      std::to_string(lost), std::to_string(torn_det),
                      std::to_string(torn_inst),
                      std::to_string(torn_served), std::to_string(conv),
                      std::to_string(viol)});
        }
        t.print(std::cout);
    }
}

/**
 * Re-run the seeded workload once per crash point per model, audit
 * durability after every recovery, and judge each run against the
 * Table 4 taxonomy:
 *
 *  - a zero-loss binding (Strict persistency, or Synchronous under
 *    Linearizable/Transactional) must lose no acknowledged write;
 *  - no torn value may ever be served to a client;
 *  - with commit records on, recovery must never install a torn value;
 *  - a restarted node must converge with the survivors.
 */
int
runTorture(const Options &opt, const workload::Trace *trace)
{
    // Crash points: evenly spaced through the measurement window, or
    // seeded-random inside it. The same points are reused for every
    // model so sweeps stay comparable.
    sim::Pcg32 prng(opt.seed ^ 0x7047u, 1);
    std::vector<std::uint64_t> points_us;
    for (std::uint32_t i = 0; i < opt.torturePoints; ++i) {
        std::uint64_t at =
            opt.tortureRandom
                ? opt.warmupUs + prng.nextU64() % opt.measureUs
                : opt.warmupUs + (opt.measureUs *
                                  static_cast<std::uint64_t>(i + 1)) /
                                     (opt.torturePoints + 1);
        points_us.push_back(at);
    }
    std::uint64_t restart_us =
        opt.restartAfterUs > 0 ? opt.restartAfterUs : 200;

    Sweep sw;
    sw.name = "torture";
    sw.models = selectedModels(opt);
    sw.points = points_us.size();
    sw.config = [&](const core::DdpModel &m, std::size_t) {
        return makeConfig(opt, m);
    };
    sw.arm = [&](cluster::Cluster &c, std::size_t point) {
        armCrash(c, opt, points_us[point], restart_us);
    };
    sw.violates = [&](const Row &r) {
        return (core::writesDurableAtCompletion(r.model) &&
                r.result.lostAckedWrites > 0) ||
               r.result.tornReadsServed > 0 ||
               (opt.commitRecords && r.result.tornValuesInstalled > 0) ||
               r.result.convergenceFailures > 0;
    };
    sw.violated = "the durability taxonomy";
    sw.passed = "crash/recovery runs, zero taxonomy violations";
    std::optional<std::vector<Row>> rows = runSweep(opt, sw, trace);
    if (!rows)
        return 1;
    printTorture(opt, points_us, *rows);
    return verdict(sw, *rows);
}

// --------------------------------------------------------------------------
// Gray-node mitigation sweep
// --------------------------------------------------------------------------

void
printGray(const Options &opt, std::uint32_t gray, const std::vector<Row> &rows)
{
    if (opt.format == Options::Format::Json) {
        bench::JsonArrayWriter w(std::cout);
        for (const Row &r : rows) {
            w.beginRecord();
            w.field("schema", "ddp-bench-v1");
            w.field("bench", "ddpsim-gray");
            bench::jsonPerfFields(w, r.model, opt.seed, r.result);
            w.field("gray_node", static_cast<std::uint64_t>(gray));
            w.field("slow_factor", opt.slowFactor);
            w.field("slow_layer", opt.slowLayer);
            w.field("mitigated", r.point == 1);
            w.field("monotonic_violations",
                    r.result.monotonicViolations);
            w.field("stale_reads", r.result.staleReads);
            w.field("torn_served", r.result.tornReadsServed);
            w.field("violation", r.violation);
            w.endRecord();
        }
        w.finish();
    } else if (opt.format == Options::Format::Csv) {
        std::cout << "consistency,persistency,mitigated,"
                     "throughput_mreqs,mean_read_ns,p99_read_ns,"
                     "p99_write_ns,hedges_sent,hedges_won,"
                     "hedges_cancelled,shed_requests,"
                     "monotonic_violations,stale_reads,torn_served,"
                     "violation\n";
        for (const Row &r : rows) {
            std::cout << core::consistencyName(r.model.consistency)
                      << ','
                      << core::persistencyName(r.model.persistency)
                      << ',' << r.point << ','
                      << r.result.throughput / 1e6 << ','
                      << r.result.meanReadNs << ','
                      << r.result.p99ReadNs << ','
                      << r.result.p99WriteNs << ','
                      << r.result.hedgesSent << ','
                      << r.result.hedgesWon << ','
                      << r.result.hedgesCancelled << ','
                      << r.result.shedRequests << ','
                      << r.result.monotonicViolations << ','
                      << r.result.staleReads << ','
                      << r.result.tornReadsServed << ','
                      << (r.violation ? 1 : 0) << '\n';
        }
    } else {
        // Paired per-model rows: the off run is the control, the on
        // run shows what hedging + shedding bought on the read tail.
        stats::Table t({"Model", "p99R off(ns)", "p99R on(ns)",
                        "dp99", "Hedges(won)", "Shed", "Viol"});
        for (std::size_t m = 0; 2 * m + 1 < rows.size(); ++m) {
            const Row &off = rows[2 * m];
            const Row &on = rows[2 * m + 1];
            double delta =
                off.result.p99ReadNs > 0
                    ? (on.result.p99ReadNs - off.result.p99ReadNs) *
                          100.0 / off.result.p99ReadNs
                    : 0.0;
            t.addRow({core::modelName(off.model),
                      stats::Table::num(off.result.p99ReadNs, 0),
                      stats::Table::num(on.result.p99ReadNs, 0),
                      stats::Table::num(delta, 1) + "%",
                      std::to_string(on.result.hedgesSent) + "(" +
                          std::to_string(on.result.hedgesWon) + ")",
                      std::to_string(on.result.shedRequests),
                      (off.violation || on.violation) ? "YES" : "-"});
        }
        t.print(std::cout);
    }
}

/**
 * Fail-slow A/B experiment: run every model twice against a cluster
 * with one gray node — same seeded workload, mitigations (hedged reads
 * + overload shedding) off then on. The gray node keeps answering,
 * just slower; failure detectors built for fail-stop never fire, which
 * is exactly why the mitigation path matters.
 *
 * A PropertyChecker rides along on every run and the sweep exits
 * non-zero if any run violated what its bound model guarantees: a
 * hedge may change *which* replica answers a read, but it must never
 * introduce non-monotonic or stale reads under a model that forbids
 * them, and no torn value may ever be served.
 */
int
runGraySweep(const Options &opt, const workload::Trace *trace)
{
    // Default gray node: 1 (never the coordinator of client 0's home).
    std::uint32_t gray = opt.slowNode ? *opt.slowNode : 1;

    Sweep sw;
    sw.name = "gray sweep";
    sw.models = selectedModels(opt);
    sw.points = 2;
    sw.config = [&](const core::DdpModel &m, std::size_t mitigated) {
        Options o = opt;
        o.slowNode = gray;
        o.hedge = mitigated == 1;
        o.shed = mitigated == 1;
        return makeConfig(o, m);
    };
    sw.violates = readsViolate;
    sw.violated = "their model's consistency guarantees";
    sw.passed = "runs, zero consistency violations";
    std::optional<std::vector<Row>> rows = runSweep(opt, sw, trace);
    if (!rows)
        return 1;
    printGray(opt, gray, *rows);
    return verdict(sw, *rows);
}

// --------------------------------------------------------------------------
// Offered-load (saturation-knee) sweep
// --------------------------------------------------------------------------

void
printOffered(const Options &opt, const std::vector<double> &rates,
             const std::vector<Row> &rows)
{
    if (opt.format == Options::Format::Json) {
        bench::JsonArrayWriter w(std::cout);
        for (const Row &r : rows) {
            w.beginRecord();
            w.field("schema", "ddp-bench-v1");
            w.field("bench", "ddpsim-offered");
            bench::jsonPerfFields(w, r.model, opt.seed, r.result);
            w.field("offered_ops_s", rates[r.point]);
            w.field("violation", r.violation);
            w.endRecord();
        }
        w.finish();
    } else if (opt.format == Options::Format::Csv) {
        std::cout << "consistency,persistency,offered_ops_s,"
                     "throughput,p99_read_ns,p99_write_ns,offered,"
                     "served,shed,timed_out,slo_attainment,violation\n";
        for (const Row &r : rows) {
            std::uint64_t offered = 0, served = 0, shed = 0, timed = 0;
            double attain = std::numeric_limits<double>::quiet_NaN();
            for (const auto &t : r.result.tenants) {
                offered += t.offered;
                served += t.served;
                shed += t.shed;
                timed += t.timedOut;
                attain = t.sloAttainment; // single tenant in sweeps
            }
            std::cout << core::consistencyName(r.model.consistency)
                      << ','
                      << core::persistencyName(r.model.persistency)
                      << ',' << rates[r.point] << ','
                      << r.result.throughput << ','
                      << r.result.p99ReadNs << ','
                      << r.result.p99WriteNs << ',' << offered << ','
                      << served << ',' << shed << ',' << timed << ','
                      << attain << ',' << (r.violation ? 1 : 0) << '\n';
        }
    } else {
        // p99 vs offered load per model: read down a model's rows to
        // spot the knee where p99 departs its flat low-load value.
        stats::Table t({"Model", "Offered(Mops)", "Served(Mops)",
                        "p99R(ns)", "p99W(ns)", "Shed", "TimedOut",
                        "Viol"});
        for (const Row &r : rows) {
            std::uint64_t shed = 0, timed = 0;
            for (const auto &tn : r.result.tenants) {
                shed += tn.shed;
                timed += tn.timedOut;
            }
            t.addRow({core::modelName(r.model),
                      stats::Table::num(rates[r.point] / 1e6, 2),
                      stats::Table::num(r.result.throughput / 1e6, 2),
                      stats::Table::num(r.result.p99ReadNs, 0),
                      stats::Table::num(r.result.p99WriteNs, 0),
                      std::to_string(shed), std::to_string(timed),
                      r.violation ? "YES" : "-"});
        }
        t.print(std::cout);
    }
}

/**
 * Capacity-planning sweep: ramp open-loop offered load from LO to HI
 * ops/s in STEPS points for each model and report p99 vs offered load —
 * the saturation knee is where p99 departs from its flat low-load
 * value. Default model set is the five persistency bindings under the
 * selected consistency (the paper's persistency axis); --all-models
 * sweeps all 25.
 *
 * A PropertyChecker rides along on every run: open-loop overload must
 * shed or time out work, never corrupt it, so any monotonic/stale/torn
 * violation (or lost acked write) fails the sweep.
 */
int
runOfferedSweep(const Options &opt, const workload::Trace *trace)
{
    std::vector<core::DdpModel> candidates;
    if (opt.allModels) {
        candidates = core::allModels();
    } else {
        for (core::Persistency p :
             {core::Persistency::Strict, core::Persistency::Synchronous,
              core::Persistency::ReadEnforced, core::Persistency::Scope,
              core::Persistency::Eventual})
            candidates.push_back({opt.model.consistency, p});
    }

    // Linear ramp LO..HI inclusive; one point when STEPS == 1.
    std::vector<double> rates;
    for (std::uint32_t i = 0; i < opt.offeredSteps; ++i) {
        double frac = opt.offeredSteps == 1
                          ? 0.0
                          : static_cast<double>(i) /
                                static_cast<double>(opt.offeredSteps - 1);
        rates.push_back(opt.offeredLo +
                        (opt.offeredHi - opt.offeredLo) * frac);
    }

    Sweep sw;
    sw.name = "offered sweep";
    sw.models = sweepModels(opt, candidates);
    sw.points = rates.size();
    sw.config = [&](const core::DdpModel &m, std::size_t point) {
        Options o = opt;
        o.openLoop = true;
        o.arrivalRate = rates[point];
        return makeConfig(o, m);
    };
    sw.violates = [](const Row &r) {
        return readsViolate(r) || r.result.lostAckedWrites > 0;
    };
    sw.violated = "their model's guarantees under load";
    sw.passed = "runs, zero violations";
    std::optional<std::vector<Row>> rows = runSweep(opt, sw, trace);
    if (!rows)
        return 1;
    printOffered(opt, rates, *rows);
    return verdict(sw, *rows);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 1;

    workload::Trace trace;
    const workload::Trace *trace_ptr = nullptr;
    if (!opt.traceFile.empty()) {
        std::ifstream in(opt.traceFile);
        if (!in || !workload::Trace::load(in, trace) || trace.empty()) {
            std::cerr << "cannot load trace from '" << opt.traceFile
                      << "'\n";
            return 1;
        }
        trace_ptr = &trace;
        std::cerr << "replaying " << trace.size() << " traced ops\n";
    }

    if (opt.torturePoints > 0)
        return runTorture(opt, trace_ptr);
    if (opt.graySweep)
        return runGraySweep(opt, trace_ptr);
    if (opt.offeredSteps > 0)
        return runOfferedSweep(opt, trace_ptr);
    return runPlain(opt, trace_ptr);
}

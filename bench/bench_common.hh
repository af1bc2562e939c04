/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Each binary reproduces one table or figure of the MICRO'21 paper
 * "Distributed Data Persistency" (see DESIGN.md for the experiment
 * index). The paper's Table 5 configuration is the default: 5 servers,
 * 20 clients per server, YCSB over a zipfian key space, 200 Gb/s NICs
 * with a 1 us round trip, DRAM + NVM per server.
 *
 * Sweep parallelism: every figure is a fan-out of independent
 * deterministic runs, so benches queue their configurations in a
 * SweepQueue and execute them across cores (results come back in
 * submission order — output is byte-identical to a serial run; see
 * DESIGN.md, "Parallel sweeps stay deterministic").
 *
 * Environment knobs:
 *   DDP_BENCH_MEASURE_US  measurement window per run (default 3000)
 *   DDP_BENCH_WARMUP_US   warmup window per run (default 1000)
 *   DDP_BENCH_JOBS        worker threads per sweep (default 1;
 *                         0 = one per hardware thread); the --jobs N
 *                         CLI flag overrides it
 *   DDP_BENCH_JSON_DIR    when set, benches write machine-readable
 *                         BENCH_<name>.json perf records there
 */

#ifndef DDP_BENCH_COMMON_HH
#define DDP_BENCH_COMMON_HH

#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/sweep_runner.hh"
#include "stats/table.hh"

namespace ddp::bench {

inline std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 10) : fallback;
}

/**
 * Sweep worker-thread count: `--jobs N` on the command line, else
 * DDP_BENCH_JOBS, else 1 (serial). 0 means one job per hardware
 * thread.
 */
inline unsigned
benchJobs(int argc = 0, char **argv = nullptr)
{
    auto resolve = [](unsigned long v) {
        return v == 0 ? sim::ThreadPool::hardwareThreads()
                      : static_cast<unsigned>(v);
    };
    for (int i = 1; argv != nullptr && i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0)
            return resolve(std::strtoul(argv[i + 1], nullptr, 10));
    }
    const char *env = std::getenv("DDP_BENCH_JOBS");
    return env ? resolve(std::strtoul(env, nullptr, 10)) : 1u;
}

/** Paper Table 5 default configuration. */
inline cluster::ClusterConfig
paperConfig(core::DdpModel model)
{
    cluster::ClusterConfig cfg;
    cfg.model = model;
    cfg.numServers = 5;
    cfg.clientsPerServer = 20;
    cfg.keyCount = 100000;
    cfg.workload = workload::WorkloadSpec::ycsbA(cfg.keyCount);
    cfg.warmup = envOr("DDP_BENCH_WARMUP_US", 1000) * sim::kMicrosecond;
    cfg.measure =
        envOr("DDP_BENCH_MEASURE_US", 3000) * sim::kMicrosecond;
    cfg.seed = 42;
    return cfg;
}

/** Build and run one experiment. */
inline cluster::RunResult
runOne(const cluster::ClusterConfig &cfg)
{
    cluster::Cluster c(cfg);
    return c.run();
}

/**
 * Deferred sweep: queue independent configurations, run them all (at
 * most `jobs` concurrently), then consume the results in submission
 * order. The two-pass pattern keeps the bench loops' structure — first
 * pass add()s configs, runAll() fans out, second pass next()s results
 * in exactly the order the serial code produced them.
 */
class SweepQueue
{
  public:
    explicit SweepQueue(unsigned jobs) : jobCount(jobs) {}

    /** Queue one run; returns its index. */
    std::size_t
    add(cluster::ClusterConfig cfg)
    {
        cfgs.push_back(std::move(cfg));
        return cfgs.size() - 1;
    }

    /** Execute every queued run and print an events/sec summary. */
    void
    runAll(const char *label = "sweep")
    {
        auto t0 = std::chrono::steady_clock::now();
        sim::SweepRunner runner(jobCount);
        results = runner.map(cfgs.size(), [this](std::size_t i) {
            return runOne(cfgs[i]);
        });
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        std::uint64_t events = 0;
        for (const cluster::RunResult &r : results)
            events += r.eventsExecuted;
        std::cerr << label << ": " << results.size() << " runs, "
                  << events << " events in " << wall << " s ("
                  << (wall > 0 ? static_cast<double>(events) / wall
                               : 0.0)
                  << " events/s, " << runner.jobs() << " jobs)\n";
        cursor = 0;
    }

    /** Result of run @p i (after runAll()). */
    const cluster::RunResult &
    result(std::size_t i) const
    {
        assert(i < results.size());
        return results[i];
    }

    /** Next result in submission order (for two-pass loops). */
    const cluster::RunResult &
    next()
    {
        assert(cursor < results.size());
        return results[cursor++];
    }

    std::size_t size() const { return cfgs.size(); }

  private:
    unsigned jobCount;
    std::vector<cluster::ClusterConfig> cfgs;
    std::vector<cluster::RunResult> results;
    std::size_t cursor = 0;
};

/** Short model label, e.g. "Linear+Synchronous". */
inline std::string
shortName(const core::DdpModel &m)
{
    std::string c;
    switch (m.consistency) {
      case core::Consistency::Linearizable: c = "Linear"; break;
      case core::Consistency::ReadEnforced: c = "Read-Enforc"; break;
      case core::Consistency::Transactional: c = "Xactional"; break;
      case core::Consistency::Causal: c = "Causal"; break;
      case core::Consistency::Eventual: c = "Eventual"; break;
    }
    return c + "+" + core::persistencyName(m.persistency);
}

inline void
printHeader(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

// --------------------------------------------------------------------------
// Machine-readable perf records (BENCH_*.json)
// --------------------------------------------------------------------------

/**
 * Streaming writer for a JSON array of flat records. One field per
 * line so nondeterministic host-timing fields (wall_seconds,
 * events_per_sec) can be stripped with `grep -v` when byte-comparing
 * outputs across runs.
 */
class JsonArrayWriter
{
  public:
    explicit JsonArrayWriter(std::ostream &os) : os(os) { os << "[\n"; }

    void
    beginRecord()
    {
        os << (firstRecord ? "  {\n" : ",\n  {\n");
        firstRecord = false;
        firstField = true;
    }

    void
    field(const char *key, const std::string &v)
    {
        sep();
        os << '"' << key << "\": \"";
        for (char c : v) {
            switch (c) {
              case '"': os << "\\\""; break;
              case '\\': os << "\\\\"; break;
              case '\n': os << "\\n"; break;
              case '\t': os << "\\t"; break;
              case '\r': os << "\\r"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    os << buf;
                } else {
                    os << c;
                }
            }
        }
        os << '"';
    }

    void field(const char *key, const char *v) { field(key, std::string(v)); }

    void
    field(const char *key, double v)
    {
        sep();
        os << '"' << key << "\": ";
        if (!std::isfinite(v)) {
            // JSON has no NaN/Inf literals; null keeps the record
            // parseable and is unambiguous in downstream tooling.
            os << "null";
            return;
        }
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.*g",
                      std::numeric_limits<double>::max_digits10, v);
        os << buf;
    }

    void
    field(const char *key, std::uint64_t v)
    {
        sep();
        os << '"' << key << "\": " << v;
    }

    void
    field(const char *key, bool v)
    {
        sep();
        os << '"' << key << "\": " << (v ? "true" : "false");
    }

    /**
     * Numeric array field, one value per element. NaN/Inf elements
     * become null (same policy as scalar doubles), keeping the record
     * parseable whatever the series holds.
     */
    void
    arrayField(const char *key, const std::vector<double> &vs)
    {
        sep();
        os << '"' << key << "\": [";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            if (i > 0)
                os << ", ";
            if (!std::isfinite(vs[i])) {
                os << "null";
                continue;
            }
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.*g",
                          std::numeric_limits<double>::max_digits10,
                          vs[i]);
            os << buf;
        }
        os << ']';
    }

    void endRecord() { os << "\n  }"; }

    void finish() { os << "\n]\n"; }

  private:
    void
    sep()
    {
        os << (firstField ? "    " : ",\n    ");
        firstField = false;
    }

    std::ostream &os;
    bool firstRecord = true;
    bool firstField = true;
};

/**
 * Emit the standard perf fields of one run — the schema ddpsim
 * `--format json` and every BENCH_*.json artifact share, so the perf
 * trajectory can be tracked across PRs with one parser.
 */
inline void
jsonPerfFields(JsonArrayWriter &w, const core::DdpModel &m,
               std::uint64_t seed, const cluster::RunResult &r)
{
    w.field("model", core::modelName(m));
    w.field("consistency", core::consistencyName(m.consistency));
    w.field("persistency", core::persistencyName(m.persistency));
    w.field("seed", seed);
    w.field("ops_per_sec", r.throughput);
    w.field("reads", r.reads);
    w.field("writes", r.writes);
    w.field("mean_read_ns", r.meanReadNs);
    w.field("mean_write_ns", r.meanWriteNs);
    w.field("p50_read_ns", r.p50ReadNs);
    w.field("p95_read_ns", r.p95ReadNs);
    w.field("p99_read_ns", r.p99ReadNs);
    w.field("p50_write_ns", r.p50WriteNs);
    w.field("p95_write_ns", r.p95WriteNs);
    w.field("p99_write_ns", r.p99WriteNs);
    w.field("messages", r.messages);
    w.field("persists", r.persistsIssued);
    w.field("events_executed", r.eventsExecuted);
    // Per-phase latency breakdown (reads + writes pooled). The phase
    // means sum to the pooled mean latency: per request, phase spans
    // sum exactly to end-to-end latency (asserted in recordOp).
    for (std::size_t p = 0; p < sim::kPhaseCount; ++p) {
        std::string name = sim::phaseName(static_cast<sim::Phase>(p));
        const cluster::RunResult::PhaseStat &ps = r.phaseBreakdown[p];
        w.field(("phase_" + name + "_mean_ns").c_str(), ps.meanNs);
        w.field(("phase_" + name + "_p95_ns").c_str(), ps.p95Ns);
    }
    // Throughput-over-time series (runs with cfg.timelineBucket > 0
    // only). Downtime buckets are explicit zeros; the SLO field is
    // null when no crash happened or the SLO was never regained.
    if (r.timelineBucket > 0) {
        w.field("timeline_bucket_us",
                static_cast<double>(r.timelineBucket) /
                    static_cast<double>(sim::kMicrosecond));
        w.arrayField("timeline_ops_per_sec", r.timelineRate);
        w.field("recovery_time_to_slo_us", r.recoveryTimeToSloUs);
        w.field("served_during_recovery", r.servedDuringRecovery);
        w.field("recovery_fault_ins", r.recoveryFaultIns);
    }
    // YCSB-E scan accounting (zeros unless the workload mixes scans).
    w.field("scans", r.scans);
    w.field("scan_keys_visited", r.scanKeysVisited);
    // Sharded multi-group topology (cfg.numShards > 0 runs only).
    // tools/validate_bench_json.py checks the layout and routing
    // invariants: shard_ranges_final == shard_teams + shard_splits,
    // sum(shard_team_served) == shard_served_ops, and
    // shard_served_ops >= reads + writes.
    w.field("sharded", r.sharded);
    if (r.sharded) {
        w.field("shard_teams",
                static_cast<std::uint64_t>(r.shardTeams));
        w.field("shard_ranges_final",
                static_cast<std::uint64_t>(r.shardRangesFinal));
        w.field("shard_splits", r.shardSplits);
        w.field("shard_migrations", r.shardMigrations);
        w.field("shard_keys_migrated", r.shardKeysMigrated);
        w.field("shard_stray_writes", r.shardStrayWrites);
        w.field("shard_acquire_fault_ins", r.shardAcquireFaultIns);
        w.field("shard_served_ops", r.shardServedOps);
        std::vector<double> teamServed(r.shardTeamServed.begin(),
                                       r.shardTeamServed.end());
        w.arrayField("shard_team_served", teamServed);
    }
    // Open-loop multi-tenant traffic (cfg.openLoop runs only).
    // Per-tenant fields are flattened as tenant_<i>_* so the record
    // stays a flat map; tools/validate_bench_json.py checks the
    // arrival-accounting invariants (served <= offered and
    // shed + served + timed_out == issued).
    w.field("open_loop", r.openLoop);
    if (r.openLoop) {
        w.field("offered_load_ops_s", r.offeredLoadOpsPerSec);
        w.field("tenant_count",
                static_cast<std::uint64_t>(r.tenants.size()));
        for (std::size_t t = 0; t < r.tenants.size(); ++t) {
            const cluster::RunResult::TenantResult &tr = r.tenants[t];
            std::string p = "tenant_" + std::to_string(t) + "_";
            w.field((p + "name").c_str(), tr.name);
            w.field((p + "arrival").c_str(), tr.arrival);
            w.field((p + "offered").c_str(), tr.offered);
            w.field((p + "issued").c_str(), tr.issued);
            w.field((p + "served").c_str(), tr.served);
            w.field((p + "shed").c_str(), tr.shed);
            w.field((p + "timed_out").c_str(), tr.timedOut);
            w.field((p + "p50_ns").c_str(), tr.p50Ns);
            w.field((p + "p99_ns").c_str(), tr.p99Ns);
            w.field((p + "slo_target_us").c_str(), tr.sloTargetUs);
            w.field((p + "slo_attainment").c_str(), tr.sloAttainment);
            w.arrayField((p + "offered_ops_per_sec").c_str(),
                         tr.offeredRate);
            w.arrayField((p + "served_ops_per_sec").c_str(),
                         tr.servedRate);
        }
    }
    // Gray-failure mitigation accounting: zeros unless the run used
    // fail-slow injection with hedging/shedding enabled. Emitted
    // unconditionally to keep the record schema stable.
    w.field("shed_requests", r.shedRequests);
    w.field("hedges_sent", r.hedgesSent);
    w.field("hedges_won", r.hedgesWon);
    w.field("hedges_cancelled", r.hedgesCancelled);
    // Event-loop hot path: how well doorbell-coalesced delivery
    // batched. Deterministic (unlike the host-timing tail): drain
    // counts are a pure function of the simulated message streams.
    w.field("doorbell_drains", r.doorbellDrains);
    w.field("batch_drain_messages", r.drainedMessages);
    w.field("batch_drain_msgs_mean", r.meanMessagesPerDrain());
    // Host-timing fields last and one per line: strip with
    //   grep -vE '"(wall_seconds|events_per_sec)"'
    // before byte-comparing across runs.
    w.field("wall_seconds", r.wallSeconds);
    w.field("events_per_sec", r.eventsPerSec());
}

/**
 * Write BENCH_<bench>.json into $DDP_BENCH_JSON_DIR (no-op when the
 * variable is unset). @p models and @p results are parallel arrays.
 */
inline void
writeBenchJson(const char *bench,
               const std::vector<core::DdpModel> &models,
               std::uint64_t seed,
               const std::vector<cluster::RunResult> &results)
{
    const char *dir = std::getenv("DDP_BENCH_JSON_DIR");
    if (dir == nullptr || *dir == '\0')
        return;
    assert(models.size() == results.size());
    std::string path =
        std::string(dir) + "/BENCH_" + bench + ".json";
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    JsonArrayWriter w(out);
    for (std::size_t i = 0; i < models.size(); ++i) {
        w.beginRecord();
        w.field("schema", "ddp-bench-v1");
        w.field("bench", bench);
        jsonPerfFields(w, models[i], seed, results[i]);
        w.endRecord();
    }
    w.finish();
    std::cerr << "wrote " << path << "\n";
}

} // namespace ddp::bench

#endif // DDP_BENCH_COMMON_HH

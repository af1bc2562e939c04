/**
 * @file
 * Results of one cluster experiment run.
 */

#ifndef DDP_CLUSTER_RUN_RESULT_HH
#define DDP_CLUSTER_RUN_RESULT_HH

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "net/message.hh"
#include "sim/phase.hh"
#include "sim/ticks.hh"

namespace ddp::cluster {

/** Measured metrics of one run (measurement window only). */
struct RunResult
{
    /** Client requests (reads + writes) completed per second. */
    double throughput = 0.0;

    double meanReadNs = 0.0;
    double meanWriteNs = 0.0;
    double meanNs = 0.0;
    double p50ReadNs = 0.0;
    double p95ReadNs = 0.0;
    double p99ReadNs = 0.0;
    double p50WriteNs = 0.0;
    double p95WriteNs = 0.0;
    double p99WriteNs = 0.0;

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Range scans completed (YCSB-E; counted apart from reads). */
    std::uint64_t scans = 0;
    /** Keys all completed scans visited in their ordered walks. */
    std::uint64_t scanKeysVisited = 0;

    // --- Per-phase latency breakdown (measurement window) ------------------
    /** Mean + p95 of one request phase, in nanoseconds. */
    struct PhaseStat
    {
        double meanNs = 0.0;
        double p95Ns = 0.0;
    };
    /**
     * Breakdown of end-to-end request latency by sim::Phase, over all
     * completed reads+writes (every request contributes to every
     * phase, zero when it skipped the phase, so the phase means sum
     * exactly to meanNs). Indexed by static_cast<size_t>(sim::Phase).
     */
    std::array<PhaseStat, sim::kPhaseCount> phaseBreakdown{};

    const PhaseStat &
    phase(sim::Phase p) const
    {
        return phaseBreakdown[static_cast<std::size_t>(p)];
    }

    std::uint64_t messages = 0;
    std::uint64_t networkBytes = 0;
    std::uint64_t persistsIssued = 0;

    std::uint64_t readsStalledVisibility = 0;
    std::uint64_t readsStalledPersist = 0;

    std::uint64_t xactStarted = 0;
    std::uint64_t xactCommitted = 0;
    std::uint64_t xactAborted = 0;
    std::uint64_t xactConflicts = 0;

    /** Peak out-of-order UPD buffering across nodes (Causal). */
    std::uint64_t causalBufferPeak = 0;

    /** Property-checker verdicts (when a checker was attached). */
    std::uint64_t monotonicViolations = 0;
    std::uint64_t staleReads = 0;
    std::uint64_t lostAckedWriteKeys = 0;
    /** Individual acked writes lost across all crash epochs (the whole
     *  lost suffix per key, not just the latest). */
    std::uint64_t lostAckedWrites = 0;
    /** Crash epochs the checker audited during the run. */
    std::uint64_t crashEpochs = 0;

    // --- Torn-persist accounting (whole-run totals) ------------------------
    /** Mid-persist values recovery detected via checksum and rolled
     *  back to the last intact version. */
    std::uint64_t tornPersistsDetected = 0;
    /** Torn values recovery installed as current (commit-record
     *  ablation only; always 0 with commit records on). */
    std::uint64_t tornValuesInstalled = 0;
    /** Client reads that returned a torn value. */
    std::uint64_t tornReadsServed = 0;

    // --- Restart / failover accounting (whole-run totals) ------------------
    /** Nodes that came back from a staged partial crash. */
    std::uint64_t nodeRestarts = 0;
    /** Keys where a restarted node failed to converge with survivors. */
    std::uint64_t convergenceFailures = 0;
    /** Client request timeouts that triggered coordinator failover. */
    std::uint64_t clientFailovers = 0;
    /** Requests a client retransmitted after failover. */
    std::uint64_t clientRetransmits = 0;
    /** Retransmitted writes a coordinator recognized and deduped. */
    std::uint64_t clientRetransmitsDeduped = 0;
    /** Transaction batches abandoned after xactMaxAttempts. */
    std::uint64_t xactAbandoned = 0;

    // --- Gray-failure mitigation accounting (whole-run totals) --------------
    /** Speculative requests the admission controller rejected. */
    std::uint64_t shedRequests = 0;
    /** Hedged reads the clients issued. */
    std::uint64_t hedgesSent = 0;
    /** Hedges that beat their primary (the tail the technique cuts). */
    std::uint64_t hedgesWon = 0;
    /** Hedges whose primary answered first (duplicate work wasted). */
    std::uint64_t hedgesCancelled = 0;

    // --- Fault / reliability accounting (whole-run totals) -----------------
    /** Messages lost to injected drops or severed links. */
    std::uint64_t netDropped = 0;
    /** Duplicate copies the fault plan put on the wire. */
    std::uint64_t netDuplicated = 0;
    /** Messages the fault plan delayed. */
    std::uint64_t netDelayed = 0;
    /** Messages the fault plan delivered out of order. */
    std::uint64_t netReordered = 0;
    /** Messages swallowed by partitions or node outages. */
    std::uint64_t netPartitionDrops = 0;
    /** Retransmissions issued by the reliable-delivery layer. */
    std::uint64_t netRetransmits = 0;
    /** Retransmission timeouts that fired. */
    std::uint64_t netRtoTimeouts = 0;
    /** Messages abandoned after the retransmission retry cap. */
    std::uint64_t netGiveUps = 0;
    /** Link-level NET_ACKs the reliable layer sent. */
    std::uint64_t netAcks = 0;
    /** Arrivals the reliable layer discarded as duplicates. */
    std::uint64_t netDuplicateArrivals = 0;
    /** Arrivals the reliable layer parked for resequencing. */
    std::uint64_t netOutOfOrderArrivals = 0;
    /** Trace entries evicted from an attached MessageTracer's ring. */
    std::uint64_t tracerDropped = 0;

    // --- Degraded-mode recovery accounting (summed over recoveries) --------
    std::uint64_t recoveryTimeouts = 0;
    std::uint64_t recoveryRetries = 0;
    /** Recovery batches that completed short of a full replica set. */
    std::uint64_t recoveryQuorumBatches = 0;
    /** Recovery batches that fell below even the majority quorum. */
    std::uint64_t recoveryQuorumFailures = 0;
    /** Nodes some recovery declared unreachable (sorted, deduped). */
    std::vector<net::NodeId> unreachableNodes;

    // --- Throughput-over-time series (cfg.timelineBucket > 0 only) ---------
    /** Completion rate (ops/sec) per bucket over the whole run,
     *  including warmup; empty when the timeline was disabled. Buckets
     *  with no completions (e.g. crash downtime) are explicit zeros. */
    std::vector<double> timelineRate;
    /** Bucket width of timelineRate; 0 = timeline disabled. */
    sim::Tick timelineBucket = 0;
    /**
     * Microseconds from the first crash until throughput first
     * regained cfg.recoverySloFrac of the pre-crash baseline (bucket
     * granularity). NaN when no crash was injected, the timeline was
     * off, or the SLO was never regained — serialized as JSON null.
     */
    double recoveryTimeToSloUs =
        std::numeric_limits<double>::quiet_NaN();
    /** Read/write completions while a node was instant-recovering. */
    std::uint64_t servedDuringRecovery = 0;
    /** On-demand fault-ins instant recovery performed (whole run). */
    std::uint64_t recoveryFaultIns = 0;

    // --- Sharded multi-group accounting (cfg.numShards > 0 only) -----------
    /** True when the run used the sharded multi-group topology. */
    bool sharded = false;
    /** Replica teams (== cfg.numShards). */
    std::uint32_t shardTeams = 0;
    /** Key ranges in the layout at run end (teams + splits). */
    std::uint32_t shardRangesFinal = 0;
    /** Hot-range splits the data distributor executed (whole run). */
    std::uint64_t shardSplits = 0;
    /** Range migrations the data distributor executed (whole run). */
    std::uint64_t shardMigrations = 0;
    /** Keys whose ownership those migrations moved. */
    std::uint64_t shardKeysMigrated = 0;
    /** Writes that completed at a team that had ceded the key while
     *  the write was in flight (forwarded to the new owner; see
     *  Cluster::noteShardWrite). */
    std::uint64_t shardStrayWrites = 0;
    /** Fault-ins migration range-acquires performed (whole run). */
    std::uint64_t shardAcquireFaultIns = 0;
    /** Measurement-window client ops routed to each team; sums to
     *  shardServedOps. */
    std::vector<std::uint64_t> shardTeamServed;
    /** Sum of shardTeamServed (>= reads + writes: scan and xact
     *  cycles contribute every routed sub-op). */
    std::uint64_t shardServedOps = 0;

    // --- Per-tenant open-loop accounting (cfg.openLoop only) ---------------
    /**
     * One tenant's traffic outcome over the measurement window. Every
     * offered arrival lands in exactly one of {served, shed, timedOut}
     * by run end: served ops completed, shed arrivals were dropped at
     * a full client queue, and timedOut folds together abandoned
     * requests and work still queued or in flight at the horizon.
     * Invariants (validated by tools/validate_bench_json.py):
     * served <= offered and shed + served + timedOut == issued, with
     * issued == offered (all arrivals enter the client engine).
     */
    struct TenantResult
    {
        std::string name;
        std::string arrival; ///< arrival-process kind label
        std::uint64_t offered = 0;
        std::uint64_t issued = 0;
        std::uint64_t served = 0;
        std::uint64_t shed = 0;
        std::uint64_t timedOut = 0;
        /** Arrival-to-completion latency percentiles, ns. */
        double p50Ns = 0.0;
        double p99Ns = 0.0;
        /** SLO target in us; NaN when the tenant set none. */
        double sloTargetUs = std::numeric_limits<double>::quiet_NaN();
        /** Fraction of served ops within the SLO; NaN without one. */
        double sloAttainment = std::numeric_limits<double>::quiet_NaN();
        /** Offered and served rates (ops/s) per timeline bucket. */
        std::vector<double> offeredRate;
        std::vector<double> servedRate;
    };
    std::vector<TenantResult> tenants;
    /** True when the run drove open-loop arrival traffic. */
    bool openLoop = false;
    /** Aggregate configured offered load (ops/s) across tenants. */
    double offeredLoadOpsPerSec = 0.0;

    // --- Event-loop hot path (whole-run, deterministic) --------------------
    /** Doorbell-coalesced ring drains the fabric fired (0 when batched
     *  delivery is off). */
    std::uint64_t doorbellDrains = 0;
    /** Messages those drains delivered (>= doorbellDrains). */
    std::uint64_t drainedMessages = 0;

    /** Mean messages delivered per doorbell drain (batching efficacy;
     *  1.0 = no coalescing happened, 0 when batching is off). */
    double
    meanMessagesPerDrain() const
    {
        return doorbellDrains == 0
                   ? 0.0
                   : static_cast<double>(drainedMessages) /
                         static_cast<double>(doorbellDrains);
    }

    // --- Simulator throughput (whole run, host-side) -----------------------
    /** Simulated events the run's EventQueue executed, start to end. */
    std::uint64_t eventsExecuted = 0;
    /** Host wall-clock seconds Cluster::run() took. Nondeterministic —
     *  never fold into simulated metrics or reproducibility checks. */
    double wallSeconds = 0.0;

    /** Simulator throughput: simulated events per host second. */
    double
    eventsPerSec() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(eventsExecuted) / wallSeconds;
    }

    /** All raw counters diffed over the measurement window. */
    std::map<std::string, std::uint64_t> counters;

    /** True when the run saw injected faults or degraded recovery. */
    bool
    degraded() const
    {
        return netDropped > 0 || netPartitionDrops > 0 ||
               netGiveUps > 0 || recoveryQuorumBatches > 0 ||
               recoveryQuorumFailures > 0 || !unreachableNodes.empty();
    }

    /** Fraction of reads that stalled on an unpersisted write. */
    double
    persistStallFraction() const
    {
        return reads == 0 ? 0.0
                          : static_cast<double>(readsStalledPersist) /
                                static_cast<double>(reads);
    }

    /** Fraction of started transactions squashed by conflicts. */
    double
    conflictRate() const
    {
        return xactStarted == 0
                   ? 0.0
                   : static_cast<double>(xactAborted) /
                         static_cast<double>(xactStarted);
    }
};

/** Outcome of a crash + recovery event. */
struct RecoveryStats
{
    std::uint64_t keysInstalled = 0;
    /** Keys whose replicas disagreed in NVM before voting. */
    std::uint64_t divergentKeys = 0;
    /** Modeled wall-clock cost of the recovery protocol. */
    sim::Tick recoveryTime = 0;
    /** Acked writes (latest per key) that did not survive. */
    std::uint64_t lostAckedWriteKeys = 0;
    /** Individual acked writes (whole lost suffix) that did not
     *  survive this crash epoch. */
    std::uint64_t lostAckedWrites = 0;
    /** True for the restart/re-join leg of a staged partial crash. */
    bool restart = false;
    /** Torn values detected + rolled back during this recovery. */
    std::uint64_t tornDetected = 0;
    /** Keys where a restarted node diverged from survivors after
     *  re-join state transfer (restart legs only). */
    std::uint64_t convergenceFailures = 0;

    // --- Degraded-mode accounting (SimulatedVoting only) -------------------
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t quorumBatches = 0;
    std::uint64_t quorumFailures = 0;
    /** Replicas that never answered after all retries (sorted). */
    std::vector<net::NodeId> unreachable;
};

} // namespace ddp::cluster

#endif // DDP_CLUSTER_RUN_RESULT_HH

/**
 * @file
 * Cluster-level experiment configuration (paper Table 5 defaults).
 *
 * The defaults model the paper's evaluated system: 5 servers, 20
 * clients per server (100 total), 20 worker cores per server, DRAM +
 * NVM per server, 200 Gb/s NICs with a 1 us round trip, YCSB-A over a
 * zipfian key space, transactions of 5 client requests and scopes of
 * 10 client requests.
 */

#ifndef DDP_CLUSTER_CONFIG_HH
#define DDP_CLUSTER_CONFIG_HH

#include <cstdint>

#include <string>
#include <vector>

#include "ddp/models.hh"
#include "ddp/protocol_node.hh"
#include "net/fabric.hh"
#include "net/fault.hh"
#include "sim/ticks.hh"
#include "workload/arrival.hh"
#include "workload/trace.hh"
#include "workload/ycsb.hh"

namespace ddp::cluster {

/** How the cluster reconstructs state after a crash. */
enum class RecoveryPolicy
{
    /** Each node restores only its own NVM contents. */
    LocalOnly,
    /**
     * Voting-based recovery (paper Sec. 9): nodes exchange persisted
     * versions and install the cluster-wide maximum everywhere.
     * Applied instantaneously with a closed-form time estimate.
     */
    Voting,
    /**
     * The same voting algorithm executed as an actual message protocol
     * over the simulated fabric (ddp/recovery.hh): recovery time
     * emerges from network and processing timing.
     */
    SimulatedVoting,
    /**
     * MM-DIRECT-style instant recovery: a restarting node builds a
     * cheap index over its PersistImage instead of replaying it,
     * re-joins immediately, and admits requests at once — cold keys
     * are faulted in on demand (checksum-verified through the commit-
     * record rollback path) while a background backfill drains the
     * rest. Requires commit records for multi-line values.
     */
    Instant,
};

/**
 * One tenant's traffic contract (open-loop mode). A run partitions its
 * client connections among tenants; each tenant drives its share with
 * its own workload mix and arrival process and is accounted separately
 * (RunResult::tenants: offered/served, p50/p99, SLO attainment).
 *
 * The model binding is per-tenant by contract but per-run by mechanism:
 * one simulated cluster executes a single DDP protocol, so every
 * tenant's binding must equal the run's model — heterogeneous bindings
 * are expressed as separate runs (what --offered-sweep does per model).
 */
struct TenantSpec
{
    std::string name = "default";
    workload::WorkloadSpec workload = workload::WorkloadSpec::ycsbA();
    /** Arrival process driving this tenant's open-loop traffic. */
    workload::ArrivalSpec arrival = workload::ArrivalSpec::poisson(1e6);
    /** DDP binding this tenant contracted for (must match the run's). */
    core::DdpModel model{};
    /**
     * Per-op latency SLO (arrival to completion); 0 = no SLO. Served
     * ops at or under the target count toward sloAttainment.
     */
    sim::Tick sloLatency = 0;
    /** Client connections; 0 = an equal share of the run's pool. */
    std::uint32_t clients = 0;
};

/** Everything an experiment needs to build and run a cluster. */
struct ClusterConfig
{
    core::DdpModel model{};

    std::uint32_t numServers = 5;
    std::uint32_t clientsPerServer = 20;
    /** Replicas per key; 0 = full replication (the paper's setting). */
    std::uint32_t replicationFactor = 0;
    std::uint64_t keyCount = 100000;

    workload::WorkloadSpec workload =
        workload::WorkloadSpec::ycsbA(100000);

    /**
     * Optional recorded trace: when set, clients replay it (cyclically,
     * each client starting at a different offset) instead of drawing
     * from the workload generator — the paper's Pin-trace methodology.
     * The trace's keys must lie within keyCount. Not owned.
     */
    const workload::Trace *trace = nullptr;

    net::NetworkParams network{};

    /**
     * Fault-injection plan (drops, duplicates, delays, reorders,
     * partitions, node outages). When any fault is configured the
     * cluster automatically enables the fabric's reliable-delivery
     * layer (network.reliability) so protocol invariants survive the
     * lossy wire. faults.seed = 0 derives the chaos stream from the
     * experiment seed, keeping whole runs bit-reproducible.
     */
    net::FaultConfig faults{};
    /** Per-node cost/substrate parameters; model, numNodes and
     *  keyCount are overridden from this config. */
    core::NodeParams node{};

    /** Requests per transaction (Transactional consistency). */
    std::uint32_t xactLength = 5;
    /** Requests per scope (Scope persistency). */
    std::uint32_t scopeLength = 10;
    /** Base client backoff window after a squashed transaction
     *  (doubles per consecutive squash, capped at 6 doublings). */
    sim::Tick xactRetryBackoff = 2 * sim::kMicrosecond;

    /**
     * Client-side request timeout. 0 (the default) disables it: a
     * request waits forever and runs carry no retransmission identity,
     * keeping the wire byte-identical to earlier builds. When > 0,
     * every client request arms a timer; on expiry the client presumes
     * its coordinator dead, rotates to the next server, and
     * retransmits. Writes then carry a per-client sequence number that
     * coordinators dedup, making retried writes exactly-once.
     */
    sim::Tick clientRequestTimeout = 0;

    /**
     * Attempts per transaction batch (first try + retries) before the
     * client abandons the batch and moves on; abandoned batches are
     * tallied in RunResult::xactAbandoned.
     */
    std::uint32_t xactMaxAttempts = 64;

    /**
     * Pause between a completion and the client's next request.
     * 0 = saturating closed loop (the default); larger values emulate
     * clients that are rate-limited by their own work.
     */
    sim::Tick clientThinkTime = 0;

    /**
     * Hedged reads (Dean & Barroso's tail-at-scale defence): when a
     * plain read's primary has not answered within the cluster's
     * adaptive p99 latency estimate for that node, the client
     * speculatively re-issues the read to an *admissible* quorum peer
     * (one whose visible copy cannot be staler than what the bound
     * consistency model may serve — see hedgePeerFor) and takes
     * whichever answer arrives first. Requires no protocol changes:
     * the loser's reply is discarded by the attempt-token guard.
     */
    bool hedgedReads = false;
    /** Floor for the hedge trigger delay (estimates below this are
     *  noise at simulation start). */
    sim::Tick hedgeMinDelay = 3 * sim::kMicrosecond;
    /**
     * Per-client hedge budget, a token bucket: at most hedgeBurst
     * hedges outstanding-or-recent, one token refilled every
     * hedgeRefill. Bounds the duplicate-work amplification to a few
     * percent of load, as the tail-at-scale paper prescribes.
     */
    std::uint32_t hedgeBurst = 8;
    sim::Tick hedgeRefill = 100 * sim::kMicrosecond;

    // --- Open-loop multi-tenant traffic -------------------------------------
    /**
     * Open-loop mode: clients issue on arrival-process arrivals
     * regardless of completions (bounded by inflightWindow), instead
     * of the closed think-time loop. Offered load is then set by the
     * tenants' arrival rates, not by the system's own latency — the
     * regime where saturation knees appear.
     */
    bool openLoop = false;
    /**
     * Per-client cap on requests in flight (open-loop). Arrivals
     * beyond it queue client-side; the wait is charged to the
     * ClientQueue phase of the op's end-to-end latency.
     */
    std::uint32_t inflightWindow = 16;
    /**
     * Per-client cap on the client-side arrival queue (open-loop).
     * Arrivals past a full queue are shed at the client and counted in
     * the tenant's shed tally — an unbounded queue at oversaturation
     * would just measure memory, not the knee.
     */
    std::uint32_t clientQueueCap = 64;
    /**
     * Connection churn period (open-loop): every interval each client
     * deterministically rotates to the next coordinator, modeling
     * production connection cycling. 0 = no churn.
     */
    sim::Tick churnInterval = 0;
    /**
     * Tenant table. Empty = one implicit tenant using `workload`, a
     * Poisson arrival at 1M ops/s, and no SLO. Non-empty entries
     * partition totalClients() among tenants (TenantSpec::clients, or
     * equal shares for entries left at 0). Each tenant's model binding
     * must equal `model`, and the explicit counts must leave a client
     * for every unset entry (validate()).
     */
    std::vector<TenantSpec> tenants;

    sim::Tick warmup = 2 * sim::kMillisecond;
    sim::Tick measure = 10 * sim::kMillisecond;

    RecoveryPolicy recovery = RecoveryPolicy::Voting;
    /** Keys per recovery query batch (SimulatedVoting). */
    std::uint32_t recoveryBatch = 1024;

    // --- Sharded multi-group mode -------------------------------------------
    /**
     * Number of key-range shards; 0 (the default) = one replica team of
     * every server, no router hop and no data distributor (the paper's
     * single replication group). When > 0 the servers are carved into
     * numShards replica *teams* of numServers / numShards nodes each
     * (must divide evenly, with teams of at least 2), every team
     * running its own full-replication instance of the configured DDP
     * model over a contiguous key range, behind a range-partitioned
     * router (shard::ShardLayout). Incompatible with fault and slow plans,
     * SimulatedVoting recovery, partial replication, and hedged reads
     * (validate()).
     */
    std::uint32_t numShards = 0;
    /** Data-distributor decision cadence (split/migration checks). */
    sim::Tick shardRebalanceInterval = 200 * sim::kMicrosecond;
    /**
     * Ops per rebalance interval above which the distributor splits a
     * hot range at its midpoint (metadata-only); 0 disables splits.
     */
    std::uint64_t shardSplitThreshold = 0;
    /**
     * Ops per rebalance interval above which a team counts as
     * overloaded and the distributor migrates its hottest range to the
     * least-loaded healthy team; 0 disables migrations.
     */
    std::uint64_t shardMaxOps = 0;

    /**
     * Completion-rate timeline bucket width; 0 (default) disables the
     * cluster-owned throughput-over-time series. When > 0 the run
     * records every read/write completion into fixed buckets covering
     * the whole run (downtime shows as explicit zero samples) and
     * RunResult carries the series plus recovery_time_to_slo_us.
     */
    sim::Tick timelineBucket = 0;
    /**
     * Recovery SLO: fraction of the pre-crash throughput baseline the
     * post-restart rate must regain for recovery_time_to_slo_us; in
     * (0, 1].
     */
    double recoverySloFrac = 0.9;

    std::uint64_t seed = 1;

    /** Total clients across the cluster. */
    std::uint32_t
    totalClients() const
    {
        return numServers * clientsPerServer;
    }

    /**
     * The one rulebook of which combinations a cluster can run: the
     * message of the first rule this config breaks, or "" when it is
     * valid. Cluster's constructor throws std::invalid_argument with
     * it; ddpsim prints it before any run starts. O(shards + tenants +
     * fault entries + trace ops), never O(keys).
     */
    std::string validate() const;

    /**
     * The rule a partial crash's victim list must keep on this
     * cluster: every id names a server, and every replica team (the
     * whole cluster when unsharded) keeps a survivor. Returns the
     * message of the broken rule, or "" when the list is valid.
     */
    std::string
    validateCrashVictims(const std::vector<net::NodeId> &victims) const;

    /**
     * The rule a staged partial crash (victims down for a while, then
     * restarted) keeps on this cluster: clients need request timeouts,
     * or the victims' clients hang for the whole downtime. Returns the
     * message of the broken rule, or "" when staging is allowed.
     */
    std::string validateStagedCrash() const;
};

} // namespace ddp::cluster

#endif // DDP_CLUSTER_CONFIG_HH

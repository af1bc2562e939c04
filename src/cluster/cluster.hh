/**
 * @file
 * Cluster assembly and experiment runner.
 *
 * A Cluster builds the full simulated system from a ClusterConfig —
 * servers (protocol nodes with their cores, caches, DRAM/NVM, store
 * backends), the NIC fabric, and the closed-loop clients — and runs
 * warmup + measurement windows, returning the metrics the paper's
 * evaluation reports. It also provides full-system crash injection with
 * voting-based or local-only recovery for the durability experiments.
 */

#ifndef DDP_CLUSTER_CLUSTER_HH
#define DDP_CLUSTER_CLUSTER_HH

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <vector>

#include "cluster/client.hh"
#include "cluster/config.hh"
#include "cluster/run_result.hh"
#include "ddp/checkers.hh"
#include "ddp/protocol_node.hh"
#include "ddp/replication.hh"
#include "ddp/xact_table.hh"
#include "net/fabric.hh"
#include "shard/distributor.hh"
#include "shard/keymap.hh"
#include "sim/event_queue.hh"
#include "sim/phase.hh"
#include "sim/trace.hh"
#include "stats/counter.hh"
#include "stats/histogram.hh"
#include "stats/timeseries.hh"

namespace ddp::cluster {

/** A fully assembled simulated cluster. */
class Cluster
{
  public:
    /** @throws std::invalid_argument with ClusterConfig::validate()'s
     *  message when @p config breaks one of its rules. */
    explicit Cluster(const ClusterConfig &config);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Attach a property checker to every node's observation stream. */
    void setChecker(core::PropertyChecker *c);

    /**
     * Attach a message tracer to the fabric (nullptr detaches; not
     * owned). Its ring-buffer evictions are surfaced in
     * RunResult::tracerDropped.
     */
    void setTracer(net::MessageTracer *t);

    /**
     * Attach a timeline recorder (nullptr detaches; not owned): the
     * fabric, every node's protocol engine and memory devices, and the
     * cluster-level crash/recovery machinery emit Chrome-trace events
     * into it. Track layout: pid i = node i (tid 0 requests, 1 nic,
     * 2 nvm, 3 dram); pid numNodes() = cluster-level instants.
     */
    void setTrace(sim::TraceRecorder *t);

    /**
     * Attach a completion-rate timeline: every client request
     * completion (including warmup) is recorded into @p series,
     * enabling throughput-over-time plots such as the dip and ramp
     * around an injected crash.
     */
    void setTimeline(stats::RateSeries *series) { timeline = series; }

    /**
     * Inject a full-system crash at absolute simulated time @p at
     * (must be before the run ends). Volatile state is lost, recovery
     * runs per the configured policy, and clients resume afterwards.
     */
    void scheduleCrash(sim::Tick at);

    /**
     * Inject a partial crash: the listed @p victims lose their volatile
     * state and rebuild each key from the freshest surviving copy
     * (surviving replicas' volatile state or any replica's NVM);
     * survivors only abandon in-flight protocol exchanges, as their
     * timeouts would in a real deployment.
     */
    void schedulePartialCrash(sim::Tick at,
                              std::vector<net::NodeId> victims);

    /**
     * Staged partial crash with downtime: at @p at the @p victims lose
     * volatile state and go dark (messages to and from them are
     * swallowed, client requests at them hang); survivors keep serving
     * whatever the live replica set allows. After @p restart_after the
     * victims come back up, recover their keys from the freshest
     * surviving copy (own NVM vs. survivor volatile state), and
     * re-join.
     * @throws std::invalid_argument with
     *         ClusterConfig::validateStagedCrash()'s message when
     *         clients have no request timeout (only client timeout +
     *         failover keeps victims' clients making progress during
     *         the downtime).
     */
    void schedulePartialCrash(sim::Tick at,
                              std::vector<net::NodeId> victims,
                              sim::Tick restart_after);

    /** Run warmup + measurement; may be called once per Cluster. */
    RunResult run();

    // --- Introspection (tests, benches) -----------------------------------
    const ClusterConfig &config() const { return cfg; }
    sim::EventQueue &queue() { return eq; }
    net::Fabric &fabric() { return *fabrics[0]; }
    core::ProtocolNode &node(std::size_t i) { return *nodes[i]; }
    std::size_t numNodes() const { return nodes.size(); }
    stats::CounterRegistry &counters() { return ctr; }
    const std::vector<RecoveryStats> &recoveries() const
    {
        return recoveryLog;
    }

    // --- Client support ------------------------------------------------------
    /**
     * Record a completed client request (measurement window only).
     * @p phases is the request's per-phase time breakdown; for reads
     * and writes it must sum exactly to @p latency (asserted).
     * @p key routes the op's load accounting in sharded mode (per-team
     * served tallies + the data distributor's range-load feedback).
     */
    void recordOp(core::OpKind kind, sim::Tick latency,
                  const sim::PhaseAccum &phases, net::KeyId key = 0);
    sim::Tick now() const { return eq.now(); }

    /**
     * Coordinator a client should use for @p key, inside the key's
     * team: under partial replication, one of the key's replicas
     * (clients are partition-aware, as real smart clients are); under
     * full replication, the client's affinity member.
     */
    core::ProtocolNode &nodeForKey(net::KeyId key,
                                   std::uint32_t client_id);

    /** A client request timed out and rotated coordinators. */
    void
    noteClientFailover()
    {
        ++clientFailoverCount;
        if (trace)
            trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                           "client_failover", eq.now());
    }
    /** A client retransmitted a request after failover. */
    void
    noteClientRetransmit()
    {
        ++clientRetransmitCount;
        if (trace)
            trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                           "client_retransmit", eq.now());
    }
    /** A client abandoned a transaction batch (attempt cap). */
    void noteXactAbandoned() { ++xactAbandonedCount; }

    // --- Replica teams ---------------------------------------------------------
    // Every cluster is a ShardLayout over one or more replica teams; an
    // unsharded cluster is one team owning one range. sharded() only
    // switches on the router hop, the data distributor, the shard_*
    // result fields and two recoverAll() forks (DESIGN.md decision 21).
    /** True when the cluster runs cfg.numShards teams behind a router. */
    bool sharded() const { return cfg.numShards > 0; }
    /** Replica teams (1 when unsharded). */
    std::uint32_t numTeams() const
    {
        return sharded() ? cfg.numShards : 1;
    }
    /** Nodes per team (numServers when unsharded). */
    std::uint32_t teamSize() const { return rmap.numNodes(); }
    /** Team of global node @p n. */
    shard::TeamId teamOf(net::NodeId n) const { return n / teamSize(); }
    /** Team currently owning @p key per the shard layout. */
    shard::TeamId teamForKey(net::KeyId key) const
    {
        return layout.teamFor(key);
    }
    /** Deterministic member pick inside @p team (by global node id). */
    core::ProtocolNode &
    nodeInTeam(shard::TeamId team, std::uint32_t pick)
    {
        return *nodes[team * teamSize() + pick % teamSize()];
    }
    /** Router hop charged on every client dispatch (0 when unsharded). */
    sim::Tick routerHop() const
    {
        return sharded() ? cfg.network.routerHop : 0;
    }
    /** Per-team slices of the scan [key, key+len) into @p out, clamped
     *  exactly the way a node-side scan clamps its window. */
    void scanSlices(net::KeyId key, std::uint32_t len,
                    std::vector<shard::RangeSlice> &out) const;
    /**
     * A write of @p key completed at team @p served_by (the owner at
     * dispatch time). If a migration moved the key while the write was
     * in flight, forward version @p v to the new owner (monotone
     * adopt) and remember the serving team for durability audits —
     * otherwise the version would be durable only where nobody looks.
     */
    void noteShardWrite(net::KeyId key, shard::TeamId served_by,
                        net::Version v);
    /** Current range layout (tests, benches). */
    const shard::ShardLayout &shardLayout() const { return layout; }
    /** The run's data distributor (tests; sharded() only). */
    const shard::DataDistributor &dataDistributor() const
    {
        return *distributor;
    }

    // --- Multi-tenant traffic ------------------------------------------------
    /**
     * Effective tenant table entry @p t. Always non-empty: an empty
     * cfg.tenants resolves to one implicit tenant running
     * cfg.workload (Poisson arrivals at 1M ops/s, no SLO).
     */
    const TenantSpec &tenantSpec(std::uint32_t t) const
    {
        return tenantTable[t];
    }
    std::uint32_t numTenants() const
    {
        return static_cast<std::uint32_t>(tenantTable.size());
    }
    /** Clients assigned to tenant @p t after pool partitioning. */
    std::uint32_t tenantClientCount(std::uint32_t t) const
    {
        return tenantClients[t];
    }
    /** Shared Latest-insertion frontier of tenant @p t's workload. */
    workload::SharedFrontier *frontierFor(std::uint32_t t)
    {
        return &frontiers[t];
    }
    /** Zipfian constants every client of tenant @p t samples from. */
    const workload::ZipfTable &zipfFor(std::uint32_t t) const
    {
        return zipfTables[t];
    }
    /** Client @p i (tests); ids follow tenant order. */
    const Client &client(std::uint32_t i) const { return *clients[i]; }
    std::uint32_t numClients() const
    {
        return static_cast<std::uint32_t>(clients.size());
    }
    /** An open-loop arrival landed for tenant @p t at @p at. */
    void noteTenantOffered(std::uint32_t t, sim::Tick at);
    /** An arrival was dropped at a full client-side queue. */
    void noteTenantShed(std::uint32_t t);
    /**
     * A request cycle of tenant @p t ended: @p served tells whether it
     * completed (vs. was abandoned); @p latency is arrival-anchored.
     */
    void noteTenantDone(std::uint32_t t, bool served,
                        sim::Tick latency);

    // --- Hedged reads --------------------------------------------------------
    /**
     * Feed the adaptive per-server latency estimator with a completed
     * request's (server, latency) pair. Every primary completion
     * reports here; the p99 of the resulting window is the hedge
     * trigger threshold for that server.
     */
    void
    noteServerResponse(net::NodeId node, sim::Tick latency)
    {
        hedgeEstimator.observe(node, latency);
    }

    /**
     * Delay after which a read outstanding at @p node should hedge:
     * the adaptive p99 latency estimate, floored at
     * cfg.hedgeMinDelay. 0 = no estimate yet, don't hedge.
     */
    sim::Tick hedgeDelayFor(net::NodeId node) const;

    /**
     * Admissible hedge target for a read of @p key whose primary is
     * @p primary, or net::kNoNode when no peer qualifies. Under
     * Eventual consistency any live replica is admissible (any copy
     * is a legal read); under every stronger model only a live
     * replica holding the freshest visible version across the live
     * replica set is — a hedge may change *which* copy answers, never
     * weaken what the bound model guarantees. One-team clusters only
     * (ClusterConfig::validate() rejects hedging with shards).
     */
    net::NodeId hedgePeerFor(net::KeyId key, net::NodeId primary);

    /** A client issued a hedged read. */
    void
    noteHedgeSent()
    {
        ++hedgesSentCount;
        if (trace)
            trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                           "hedge_sent", eq.now());
    }
    /** A hedge answered before its primary. */
    void noteHedgeWon() { ++hedgesWonCount; }
    /** A primary answered before its hedge (wasted duplicate). */
    void noteHedgeCancelled() { ++hedgesCancelledCount; }

  private:
    void crashNow();
    /** Checks @p victims (ClusterConfig::validateCrashVictims, throws
     *  std::invalid_argument) and returns them as a per-node mask. */
    std::vector<bool>
    beginPartialCrash(const std::vector<net::NodeId> &victims);
    void crashPartial(const std::vector<net::NodeId> &victims);
    void crashPartialStaged(const std::vector<net::NodeId> &victims,
                            sim::Tick restart_after);
    void restartVictims(const std::vector<net::NodeId> &victims);
    /**
     * Hermes-style write replay: per key, the freshest in-flight
     * invalidation a *surviving* replica holds from a *crashed*
     * writer. An INV carries the value, so these are writes the dead
     * coordinator may already have acknowledged in the ack->VAL
     * window; the crash paths fold them into reconciliation so no
     * acked write is lost. Must run before abortInFlight() wipes the
     * survivors' transient state.
     */
    std::vector<net::Version>
    pendingReplaySnapshot(const std::vector<bool> &crashed) const;
    /** Instant-mode re-join: admit at once, fault in on demand. */
    void restartVictimsInstant(const std::vector<net::NodeId> &victims);
    /** Index-build downtime of an instant restart (cheap scan). */
    sim::Tick instantScanTicks() const;
    RecoveryStats recoverAll();
    /** Audit acked-write durability for one crash epoch. */
    void auditEpoch(RecoveryStats &rs,
                    const std::function<net::Version(net::KeyId)>
                        &recovered_version);

    /**
     * Visit the global id of every node that may hold a copy of
     * @p key: the key's replicas in its owning team, plus those in
     * every team the key's data may still be draining from (an active
     * migration's source, residual sources of crashed-out migrations,
     * the server of a stray write). Crash recovery and durability
     * audits route through this one notion of "where can this key
     * live".
     */
    template <typename Fn>
    void
    forEachReplica(net::KeyId key, Fn &&fn) const
    {
        auto visit = [&](shard::TeamId t) {
            for (std::uint32_t i = 0; i < rmap.factor(); ++i)
                fn(static_cast<net::NodeId>(t * teamSize() +
                                            rmap.replica(key, i)));
        };
        const shard::TeamId home = layout.teamFor(key);
        visit(home);
        if (!migration.active && residualSources.empty() &&
            straySource.empty())
            return;
        std::vector<shard::TeamId> teams{home};
        auto add = [&](shard::TeamId t) {
            if (std::find(teams.begin(), teams.end(), t) != teams.end())
                return;
            teams.push_back(t);
            visit(t);
        };
        if (migration.active && key >= migration.lo &&
            key < migration.hi)
            add(migration.srcTeam);
        for (const shard::Range &r : residualSources)
            if (r.contains(key))
                add(r.team);
        if (auto it = straySource.find(key); it != straySource.end())
            add(it->second);
    }

    /** Set/clear @p victim's down mark at its teammates (peer tables
     *  are team-local). */
    void setPeerDownAll(net::NodeId victim, bool down);
    /** Merge each returning victim's surviving teammates' causal
     *  clocks into it. */
    void transferCausalProgress(const std::vector<net::NodeId> &victims);
    /** Every member of @p t up, fully recovered, and not shedding. */
    bool teamHealthy(shard::TeamId t) const;
    /** Distributor hook: cut range @p range_idx at @p mid. */
    void executeSplit(std::size_t range_idx, net::KeyId mid);
    /** Distributor hook: flip range @p range_idx to @p dst and start
     *  the background range-acquire backfill at its members. */
    void executeMigration(std::size_t range_idx, shard::TeamId dst);
    /** Freshest visible version of @p key across the live members of
     *  the active migration's source team. */
    net::Version migrationFreshest(net::KeyId key) const;
    /** One destination member finished its range acquire. */
    void onAcquireDone();
    void finishMigration();
    /** @p victim is about to crash: drop its in-flight range acquire
     *  (and remember the source if no acquirer remains). */
    void noteAcquireCancelled(net::NodeId victim);

    ClusterConfig cfg;
    /** Replica placement inside one team (team-local node ids). */
    core::ReplicaMap rmap;
    sim::EventQueue eq;
    stats::CounterRegistry ctr;
    core::XactConflictTable xactTable;
    std::unique_ptr<net::FaultPlan> faultPlan;
    /** One fabric per replica team. */
    std::vector<std::unique_ptr<net::Fabric>> fabrics;
    std::vector<std::unique_ptr<core::ProtocolNode>> nodes;
    std::vector<std::unique_ptr<Client>> clients;
    core::PropertyChecker *checker = nullptr;
    stats::RateSeries *timeline = nullptr;
    /** Cluster-owned timeline when cfg.timelineBucket > 0. */
    std::unique_ptr<stats::RateSeries> ownTimeline;
    net::MessageTracer *tracerPtr = nullptr;
    sim::TraceRecorder *trace = nullptr;

    bool recording = false;
    stats::Histogram readLat;
    stats::Histogram writeLat;
    stats::Histogram allLat;
    /** Per-phase latency contributions (reads + writes). */
    std::array<stats::Histogram, sim::kPhaseCount> phaseLat;

    // --- Multi-tenant state ------------------------------------------------
    /** Resolved tenant table (never empty; see tenantSpec()). */
    std::vector<TenantSpec> tenantTable;
    /** Clients each tenant received from the pool partitioning. */
    std::vector<std::uint32_t> tenantClients;
    /** One shared Latest frontier per tenant workload. */
    std::vector<workload::SharedFrontier> frontiers;
    /** Per-tenant zipfian constants; tenants with equal (keyCount,
     *  theta) share one set. */
    std::vector<workload::ZipfTable> zipfTables;
    /**
     * Whole-run per-tenant traffic tallies (not window-diffed: every
     * offered arrival must land in exactly one outcome bin, so the
     * books only balance over the entire run).
     */
    struct TenantAccum
    {
        std::uint64_t offered = 0;
        std::uint64_t served = 0;
        std::uint64_t shed = 0;
        /** Served cycles within the tenant's SLO. */
        std::uint64_t sloMet = 0;
        stats::Histogram lat;
        stats::RateSeries offeredSeries;
        stats::RateSeries servedSeries;
        explicit TenantAccum(sim::Tick bucket)
            : offeredSeries(bucket), servedSeries(bucket)
        {
        }
    };
    std::vector<TenantAccum> tenantStats;

    std::vector<RecoveryStats> recoveryLog;
    std::uint64_t lostKeysTotal = 0;
    std::uint64_t lostWritesTotal = 0;
    std::uint64_t clientFailoverCount = 0;
    std::uint64_t clientRetransmitCount = 0;
    std::uint64_t xactAbandonedCount = 0;
    /** Per-server response-latency window behind hedgeDelayFor(). */
    core::PhiAccrualDetector hedgeEstimator;
    std::uint64_t hedgesSentCount = 0;
    std::uint64_t hedgesWonCount = 0;
    std::uint64_t hedgesCancelledCount = 0;
    std::uint64_t nodeRestartCount = 0;
    std::uint64_t convergenceFailTotal = 0;
    /** First injected crash (0 = none); anchors recovery-SLO timing. */
    sim::Tick firstCrashAt = 0;
    /** When post-crash service resumed (instant re-join or client
     *  restart); the SLO scan starts here. */
    sim::Tick serviceResumeAt = 0;
    /** Nodes currently in instant recovery (fault-in/backfill). */
    std::uint32_t recoveringCount = 0;
    /** Read/write completions while recoveringCount > 0. */
    std::uint64_t servedDuringRecoveryCount = 0;
    bool ran = false;

    // --- Replica-team state ------------------------------------------------
    /** Range-partitioned keymap (one range on team 0 when unsharded). */
    shard::ShardLayout layout;
    /** Splits and migrates ranges (sharded() only). */
    std::unique_ptr<shard::DataDistributor> distributor;
    /** The one in-flight migration (the distributor serializes them).
     *  Bounds are stored, never a range index — later splits shift
     *  layout indices under an active migration. */
    struct ActiveMigration
    {
        bool active = false;
        net::KeyId lo = 0;
        net::KeyId hi = 0;
        shard::TeamId srcTeam = 0;
        shard::TeamId dstTeam = 0;
        /** Destination replicas still draining their range acquire. */
        std::uint32_t pending = 0;
        /** A destination replica crashed mid-acquire. */
        bool crashedOut = false;
        sim::Tick startedAt = 0;
        std::uint64_t spanId = 0;
    };
    ActiveMigration migration;
    /**
     * Ranges whose migration ended with a destination replica crashed
     * mid-acquire: the source team stays in those keys' replica set
     * (its NVM may hold the only durable copy) for the rest of the
     * run.
     */
    std::vector<shard::Range> residualSources;
    /** key -> team that served a stray write (completed at the old
     *  owner after a migration flip); audits keep consulting it. */
    std::map<net::KeyId, shard::TeamId> straySource;
    /** Measurement-window client ops served per team. */
    std::vector<std::uint64_t> teamServed;
    std::uint64_t shardKeysMigratedCount = 0;
    std::uint64_t shardStrayWriteCount = 0;
    std::uint64_t migrationSpanSeq = 0;
};

} // namespace ddp::cluster

#endif // DDP_CLUSTER_CLUSTER_HH

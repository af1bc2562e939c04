/**
 * @file
 * Sharded multi-group cluster tests: N key-range shards of R-node
 * replica teams behind a router, with the data distributor splitting
 * hot ranges and migrating them between teams mid-run. Every run is a
 * deterministic discrete-event simulation, so the assertions are
 * exact-repeatable.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <string>

#include "cluster/cluster.hh"

using namespace ddp;
using namespace ddp::cluster;
using core::Consistency;
using core::DdpModel;
using core::Persistency;

namespace {

ClusterConfig
shardConfig(DdpModel model, std::uint32_t servers,
            std::uint32_t shards)
{
    ClusterConfig cfg;
    cfg.model = model;
    cfg.numServers = servers;
    cfg.numShards = shards;
    cfg.clientsPerServer = 4;
    cfg.keyCount = 2000;
    cfg.workload = workload::WorkloadSpec::ycsbA(2000);
    cfg.warmup = 200 * sim::kMicrosecond;
    cfg.measure = 800 * sim::kMicrosecond;
    cfg.seed = 13;
    return cfg;
}

/**
 * Knobs tuned so the zipfian head (key 0 is hottest under the
 * unscrambled generator) forces both a split and a migration, and the
 * migration's backfill finishes inside the run: the split threshold is
 * high enough that splitting converges after a couple of rounds (a
 * round that splits re-zeroes the load vector and skips migration), so
 * the migration starts early.
 */
void
armRebalancing(ClusterConfig &cfg)
{
    cfg.shardRebalanceInterval = 100 * sim::kMicrosecond;
    cfg.shardSplitThreshold = 400;
    cfg.shardMaxOps = 250;
    cfg.measure = 1500 * sim::kMicrosecond;
}

} // namespace

// --------------------------------------------------------------------------
// Static sharded topology (no rebalancing)
// --------------------------------------------------------------------------

TEST(ShardCluster, StaticTopologyServesAndAccountsPerTeam)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 3);
    Cluster cluster(cfg);
    RunResult r = cluster.run();

    EXPECT_TRUE(r.sharded);
    EXPECT_EQ(r.shardTeams, 3u);
    EXPECT_EQ(r.shardRangesFinal, 3u);
    EXPECT_EQ(r.shardSplits, 0u);
    EXPECT_EQ(r.shardMigrations, 0u);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.reads, 100u);
    EXPECT_GT(r.writes, 100u);

    // Every measured op landed at exactly one team.
    ASSERT_EQ(r.shardTeamServed.size(), 3u);
    std::uint64_t sum = std::accumulate(r.shardTeamServed.begin(),
                                        r.shardTeamServed.end(),
                                        std::uint64_t{0});
    EXPECT_EQ(sum, r.shardServedOps);
    EXPECT_EQ(r.shardServedOps, r.reads + r.writes);
    // Zipfian head keys all live in team 0's initial range, so it
    // serves the most.
    EXPECT_GT(r.shardTeamServed[0], r.shardTeamServed[2]);
    // Every request crossed the router once.
    EXPECT_GT(r.phase(sim::Phase::Router).meanNs, 0.0);
}

TEST(ShardCluster, AllConsistencyModelsRunSharded)
{
    for (Consistency c :
         {Consistency::Eventual, Consistency::Causal,
          Consistency::Linearizable}) {
        ClusterConfig cfg =
            shardConfig({c, Persistency::Synchronous}, 4, 2);
        Cluster cluster(cfg);
        RunResult r = cluster.run();
        EXPECT_GT(r.reads + r.writes, 500u)
            << "consistency " << static_cast<int>(c);
        EXPECT_EQ(r.shardServedOps, r.reads + r.writes);
    }
}

TEST(ShardCluster, ScansFanOutAcrossShardBoundaries)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 3);
    cfg.workload = workload::WorkloadSpec::ycsbE(2000);
    cfg.node.storeKind = kv::StoreKind::SkipList; // scans need order
    Cluster cluster(cfg);
    RunResult r = cluster.run();

    EXPECT_GT(r.scans, 100u);
    EXPECT_GT(r.scanKeysVisited, r.scans);
    // Scan sub-ops are routed per overlapping team, so the routed-op
    // tally exceeds the plain reads+writes+scans cycle count.
    EXPECT_GT(r.shardServedOps, r.reads + r.writes);
}

TEST(ShardCluster, CrossShardTransactionsCommit)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Transactional, Persistency::Synchronous}, 4, 2);
    Cluster cluster(cfg);
    RunResult r = cluster.run();

    EXPECT_GT(r.xactStarted, 0u);
    EXPECT_GT(r.xactCommitted, 100u);
    // Batches span shards: per-team enrollment means more InitX than
    // client-level batches would need on one group.
    EXPECT_GT(r.reads + r.writes, 500u);
}

// --------------------------------------------------------------------------
// Data distribution: splits + migrations under a hot range
// --------------------------------------------------------------------------

TEST(ShardCluster, HotRangeSplitsAndMigrates)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 3);
    armRebalancing(cfg);
    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    RunResult r = cluster.run();

    EXPECT_GE(r.shardSplits, 1u) << "hot range must split";
    EXPECT_GE(r.shardMigrations, 1u) << "hot range must migrate";
    EXPECT_EQ(r.shardRangesFinal, r.shardTeams + r.shardSplits);
    EXPECT_GT(r.shardKeysMigrated, 0u);
    // The backfill rode the fault-in path.
    EXPECT_GT(r.shardAcquireFaultIns, 0u);
    // Rebalancing must not cost durability: no acked write lost, no
    // torn value served. (Hand-off staleness is a separate, accepted
    // property — see PROTOCOLS.md.)
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.tornReadsServed, 0u);
    std::uint64_t sum = std::accumulate(r.shardTeamServed.begin(),
                                        r.shardTeamServed.end(),
                                        std::uint64_t{0});
    EXPECT_EQ(sum, r.shardServedOps);
}

TEST(ShardCluster, RebalancedRunIsSeedDeterministic)
{
    auto once = [] {
        ClusterConfig cfg = shardConfig(
            {Consistency::Causal, Persistency::Synchronous}, 6, 3);
        armRebalancing(cfg);
        Cluster cluster(cfg);
        return cluster.run();
    };
    RunResult a = once();
    RunResult b = once();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.shardSplits, b.shardSplits);
    EXPECT_EQ(a.shardMigrations, b.shardMigrations);
    EXPECT_EQ(a.shardTeamServed, b.shardTeamServed);
    EXPECT_EQ(a.messages, b.messages);
}

// --------------------------------------------------------------------------
// Crashes on the sharded topology
// --------------------------------------------------------------------------

TEST(ShardCluster, CrashMidMigrationKeepsAckedWritesDurable)
{
    // Crash one destination-team member early enough that a migration
    // backfill is likely in flight; the residual-source bookkeeping
    // must keep every acked write durable somewhere the audit looks.
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Strict}, 6, 3);
    armRebalancing(cfg);
    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    cfg.recovery = RecoveryPolicy::Instant;
    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 2, {3},
                                 200 * sim::kMicrosecond);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_EQ(r.crashEpochs, 1u);
    EXPECT_EQ(r.nodeRestarts, 1u);
    EXPECT_GE(r.shardMigrations + r.shardSplits, 1u);
    EXPECT_EQ(r.lostAckedWrites, 0u)
        << "Strict persistency promises zero acked-write loss";
    EXPECT_EQ(r.tornReadsServed, 0u);
    EXPECT_EQ(r.convergenceFailures, 0u);
}

TEST(ShardCluster, MultiTeamRestartRecoversPerShard)
{
    // Crash one member each of teams 1 and 2 (staged), leaving a
    // survivor per team; recovery and state transfer stay team-local.
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Strict}, 6, 3);
    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 3, {2, 4},
                                 200 * sim::kMicrosecond);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_EQ(r.nodeRestarts, 2u);
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.tornReadsServed, 0u);
}

// --------------------------------------------------------------------------
// Construction-time validation
// --------------------------------------------------------------------------

// --------------------------------------------------------------------------
// One request path: an unsharded cluster is a one-team cluster
// --------------------------------------------------------------------------

namespace {

bool
sameDouble(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

/** Counters minus the shard_* entries only a sharded cluster keeps. */
std::map<std::string, std::uint64_t>
withoutShardCounters(std::map<std::string, std::uint64_t> counters)
{
    std::erase_if(counters, [](const auto &kv) {
        return kv.first.rfind("shard_", 0) == 0;
    });
    return counters;
}

/**
 * Every simulated RunResult field of @p a and @p b must be equal,
 * except eventsExecuted (the data distributor's rebalance ticks are
 * events) and the shard_* accounting, which only a sharded cluster
 * reports. wallSeconds is host time and never compared.
 */
void
expectSameSimulatedResult(const RunResult &a, const RunResult &b,
                          const std::string &what)
{
#define SAME(f) EXPECT_EQ(a.f, b.f) << what << ": " #f
#define SAME_D(f) EXPECT_TRUE(sameDouble(a.f, b.f)) \
    << what << ": " #f " " << a.f << " vs " << b.f
    SAME_D(throughput);
    SAME_D(meanReadNs);
    SAME_D(meanWriteNs);
    SAME_D(meanNs);
    SAME_D(p50ReadNs);
    SAME_D(p95ReadNs);
    SAME_D(p99ReadNs);
    SAME_D(p50WriteNs);
    SAME_D(p95WriteNs);
    SAME_D(p99WriteNs);
    SAME(reads);
    SAME(writes);
    SAME(scans);
    SAME(scanKeysVisited);
    for (std::size_t p = 0; p < sim::kPhaseCount; ++p) {
        SAME_D(phaseBreakdown[p].meanNs);
        SAME_D(phaseBreakdown[p].p95Ns);
    }
    SAME(messages);
    SAME(networkBytes);
    SAME(persistsIssued);
    SAME(readsStalledVisibility);
    SAME(readsStalledPersist);
    SAME(xactStarted);
    SAME(xactCommitted);
    SAME(xactAborted);
    SAME(xactConflicts);
    SAME(causalBufferPeak);
    SAME(monotonicViolations);
    SAME(staleReads);
    SAME(lostAckedWriteKeys);
    SAME(lostAckedWrites);
    SAME(crashEpochs);
    SAME(tornPersistsDetected);
    SAME(tornValuesInstalled);
    SAME(tornReadsServed);
    SAME(nodeRestarts);
    SAME(convergenceFailures);
    SAME(clientFailovers);
    SAME(clientRetransmits);
    SAME(clientRetransmitsDeduped);
    SAME(xactAbandoned);
    SAME(shedRequests);
    SAME(hedgesSent);
    SAME(hedgesWon);
    SAME(hedgesCancelled);
    SAME(netDropped);
    SAME(netDuplicated);
    SAME(netDelayed);
    SAME(netReordered);
    SAME(netPartitionDrops);
    SAME(netRetransmits);
    SAME(netRtoTimeouts);
    SAME(netGiveUps);
    SAME(netAcks);
    SAME(netDuplicateArrivals);
    SAME(netOutOfOrderArrivals);
    SAME(tracerDropped);
    SAME(recoveryTimeouts);
    SAME(recoveryRetries);
    SAME(recoveryQuorumBatches);
    SAME(recoveryQuorumFailures);
    SAME(unreachableNodes);
    SAME(timelineRate);
    SAME(timelineBucket);
    SAME_D(recoveryTimeToSloUs);
    SAME(servedDuringRecovery);
    SAME(recoveryFaultIns);
    SAME(tenants.size());
    SAME(openLoop);
    SAME_D(offeredLoadOpsPerSec);
    SAME(doorbellDrains);
    SAME(drainedMessages);
    EXPECT_EQ(withoutShardCounters(a.counters),
              withoutShardCounters(b.counters))
        << what << ": counters";
#undef SAME_D
#undef SAME
}

/** The shardConfig() cluster as one team: numShards = 1, a zero-cost
 *  router hop and no split threshold. */
ClusterConfig
oneTeam(ClusterConfig cfg)
{
    cfg.numShards = 1;
    cfg.network.routerHop = 0;
    cfg.shardSplitThreshold = 0;
    return cfg;
}

RunResult
runChecked(const ClusterConfig &cfg,
           const std::vector<net::NodeId> &staged_victims = {})
{
    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    if (!staged_victims.empty())
        cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 2,
                                     staged_victims,
                                     100 * sim::kMicrosecond);
    return cluster.run();
}

} // namespace

TEST(ShardCluster, OneTeamClusterMatchesUnshardedForAllModels)
{
    for (const DdpModel &m : core::allModels()) {
        ClusterConfig cfg = shardConfig(m, 6, 0);
        cfg.warmup = 100 * sim::kMicrosecond;
        cfg.measure = 300 * sim::kMicrosecond;
        RunResult flat = runChecked(cfg);
        RunResult team = runChecked(oneTeam(cfg));
        ASSERT_GT(flat.reads + flat.writes, 0u) << core::modelName(m);
        EXPECT_FALSE(flat.sharded);
        EXPECT_TRUE(team.sharded);
        expectSameSimulatedResult(flat, team, core::modelName(m));
    }
}

TEST(ShardCluster, OneTeamClusterMatchesUnshardedThroughStagedCrash)
{
    for (RecoveryPolicy policy :
         {RecoveryPolicy::Voting, RecoveryPolicy::Instant}) {
        for (const DdpModel &m :
             {DdpModel{Consistency::Linearizable, Persistency::Strict},
              DdpModel{Consistency::Causal, Persistency::Synchronous}}) {
            ClusterConfig cfg = shardConfig(m, 6, 0);
            cfg.recovery = policy;
            cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
            RunResult flat = runChecked(cfg, {1});
            RunResult team = runChecked(oneTeam(cfg), {1});
            std::string what =
                core::modelName(m) +
                (policy == RecoveryPolicy::Voting ? " voting" : " instant");
            ASSERT_EQ(flat.nodeRestarts, 1u) << what;
            expectSameSimulatedResult(flat, team, what);
        }
    }
}

TEST(ShardCluster, LegacyModeIsUntouched)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 0);
    cfg.numShards = 0;
    Cluster cluster(cfg);
    RunResult r = cluster.run();
    EXPECT_FALSE(r.sharded);
    EXPECT_EQ(r.shardTeams, 0u);
    EXPECT_TRUE(r.shardTeamServed.empty());
    EXPECT_EQ(r.phase(sim::Phase::Router).meanNs, 0.0);
}

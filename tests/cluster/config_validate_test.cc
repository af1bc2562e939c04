/**
 * @file
 * ClusterConfig::validate() is the one rulebook of which combinations
 * a cluster can run. One case per rule: the message names the rule,
 * and Cluster's constructor refuses the config with that message.
 * The benchmark's four workload configs must validate clean.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cluster/cluster.hh"

using namespace ddp;
using namespace ddp::cluster;
using core::Consistency;
using core::Persistency;

namespace {

ClusterConfig
tinyConfig()
{
    ClusterConfig c;
    c.model = {Consistency::Linearizable, Persistency::Synchronous};
    c.numServers = 3;
    c.clientsPerServer = 2;
    c.keyCount = 64;
    c.workload = workload::WorkloadSpec::ycsbA(64);
    c.warmup = 50 * sim::kMicrosecond;
    c.measure = 150 * sim::kMicrosecond;
    return c;
}

/** Two shard teams of two servers each. */
ClusterConfig
shardedConfig()
{
    ClusterConfig c = tinyConfig();
    c.numServers = 4;
    c.numShards = 2;
    return c;
}

/** validate() names the rule by @p needle and Cluster refuses @p cfg
 *  with the same message. */
void
expectRejected(const ClusterConfig &cfg, const std::string &needle)
{
    std::string err = cfg.validate();
    EXPECT_NE(err.find(needle), std::string::npos)
        << "want '" << needle << "' in '" << err << "'";
    try {
        Cluster c(cfg);
        ADD_FAILURE() << "Cluster accepted a config breaking '" << needle
                      << "'";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(err, e.what());
    }
}

TenantSpec
tenant(const std::string &name, const ClusterConfig &cfg,
       std::uint32_t clients = 0)
{
    TenantSpec t;
    t.name = name;
    t.workload = cfg.workload;
    t.model = cfg.model;
    t.clients = clients;
    return t;
}

} // namespace

TEST(ConfigValidate, TinyConfigIsValidAndRuns)
{
    ClusterConfig cfg = tinyConfig();
    EXPECT_EQ(cfg.validate(), "");
    Cluster c(cfg);
    EXPECT_GT(c.run().writes, 0u);
}

TEST(ConfigValidate, NeedsTwoServers)
{
    ClusterConfig cfg = tinyConfig();
    cfg.numServers = 1;
    expectRejected(cfg, "at least 2 servers");
}

TEST(ConfigValidate, ReplicationFactorWithinServers)
{
    ClusterConfig cfg = tinyConfig();
    cfg.replicationFactor = 4;
    expectRejected(cfg, "replication factor 4 exceeds the 3 servers");
}

TEST(ConfigValidate, ShardGeometry)
{
    ClusterConfig cfg = shardedConfig();
    cfg.numServers = 7;
    cfg.numShards = 3;
    expectRejected(cfg, "into teams of at least 2 nodes");
    cfg.numServers = 4;
    cfg.numShards = 4; // teams of one: no follower
    expectRejected(cfg, "into teams of at least 2 nodes");
}

TEST(ConfigValidate, ShardsNeedAKeyEach)
{
    ClusterConfig cfg = shardedConfig();
    cfg.keyCount = 1;
    cfg.workload = workload::WorkloadSpec::ycsbA(1);
    expectRejected(cfg, "non-empty key range");
}

TEST(ConfigValidate, ShardsExcludePartialReplication)
{
    ClusterConfig cfg = shardedConfig();
    cfg.replicationFactor = 2;
    expectRejected(cfg, "sharding and partial replication are exclusive");
}

TEST(ConfigValidate, ShardsExcludeSimulatedVoting)
{
    ClusterConfig cfg = shardedConfig();
    cfg.recovery = RecoveryPolicy::SimulatedVoting;
    expectRejected(cfg, "simulated-voting recovery is not available");
}

TEST(ConfigValidate, ShardsExcludeFaultPlans)
{
    ClusterConfig cfg = shardedConfig();
    cfg.faults.allLinks.dropRate = 0.01;
    expectRejected(cfg, "fault injection is not available with sharding");
}

TEST(ConfigValidate, ShardsExcludeSlowPlans)
{
    ClusterConfig cfg = shardedConfig();
    net::SlowWindow w;
    w.node = 1;
    w.factor = 5.0;
    cfg.faults.slow.push_back(w);
    expectRejected(cfg, "fail-slow injection is not available");
}

TEST(ConfigValidate, ShardsExcludeHedging)
{
    ClusterConfig cfg = shardedConfig();
    cfg.hedgedReads = true;
    expectRejected(cfg, "hedged reads are not available with sharding");
}

TEST(ConfigValidate, TenantModelsEqualTheRunsModel)
{
    ClusterConfig cfg = tinyConfig();
    cfg.openLoop = true;
    cfg.tenants.push_back(tenant("web", cfg));
    cfg.tenants.back().model = {Consistency::Eventual,
                                Persistency::Eventual};
    expectRejected(cfg, "tenant 'web' binds <Eventual, Eventual>");
}

TEST(ConfigValidate, TenantCountsFitThePool)
{
    // 3 x 4 = 12 clients, all claimed by tenant a: tenant b would get
    // none and silently offer zero load.
    ClusterConfig cfg = tinyConfig();
    cfg.clientsPerServer = 4;
    cfg.openLoop = true;
    cfg.tenants.push_back(tenant("a", cfg, 12));
    cfg.tenants.push_back(tenant("b", cfg));
    expectRejected(cfg, "shrink the counts or grow the pool");
    cfg.tenants.front().clients = 11;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ConfigValidate, ScansNeedAnOrderedStore)
{
    // YCSB-E on the hash store would "complete" scans visiting 0 keys.
    ClusterConfig cfg = tinyConfig();
    cfg.workload = workload::WorkloadSpec::ycsbE(64);
    expectRejected(cfg, "need an ordered store");
    cfg.node.storeKind = kv::StoreKind::SkipList;
    EXPECT_EQ(cfg.validate(), "");

    // A scanning tenant counts too.
    ClusterConfig ten = tinyConfig();
    ten.openLoop = true;
    ten.tenants.push_back(tenant("scan", ten));
    ten.tenants.back().workload = workload::WorkloadSpec::ycsbE(64);
    expectRejected(ten, "need an ordered store");
}

TEST(ConfigValidate, InstantRecoveryNeedsCommitRecords)
{
    ClusterConfig cfg = tinyConfig();
    cfg.recovery = RecoveryPolicy::Instant;
    cfg.node.commitRecords = false;
    expectRejected(cfg, "instant recovery requires commit records");
}

TEST(ConfigValidate, PartialReplicationNeedsAStrongOrEventualModel)
{
    for (Consistency c :
         {Consistency::Causal, Consistency::Transactional}) {
        ClusterConfig cfg = tinyConfig();
        cfg.model = {c, Persistency::Synchronous};
        cfg.replicationFactor = 2;
        expectRejected(cfg, "partial replication requires");
        // R == N is full replication, which every model supports.
        cfg.replicationFactor = 3;
        EXPECT_EQ(cfg.validate(), "");
    }
}

TEST(ConfigValidate, FaultAndSlowNodesExist)
{
    // A slow window on node 7 and an outage on node 9 of a 3-server
    // cluster would otherwise run as a healthy cluster.
    ClusterConfig cfg = tinyConfig();
    cfg.faults.outages.push_back(net::NodeOutage{9, 0, sim::kTickNever});
    expectRejected(cfg, "fault plan isolates node 9 out of range");

    cfg = tinyConfig();
    net::SlowWindow w;
    w.node = 7;
    w.factor = 5.0;
    cfg.faults.slow.push_back(w);
    expectRejected(cfg, "slow plan degrades node 7 out of range");

    cfg = tinyConfig();
    net::PartitionWindow p;
    p.groupA = {0, 5};
    cfg.faults.partitions.push_back(p);
    expectRejected(cfg, "fault plan partitions node 5 out of range");
}

TEST(ConfigValidate, TraceKeysLieInTheKeySpace)
{
    // A replayed key past keyCount would index past every node's
    // key table.
    ClusterConfig cfg = tinyConfig();
    workload::Trace trace;
    trace.append({workload::OpType::Read, 5});
    trace.append({workload::OpType::Write, 64});
    cfg.trace = &trace;
    expectRejected(cfg, "the trace touches key 64, outside the 64-key");
}

TEST(ConfigValidate, CrashVictimsLeaveSurvivors)
{
    ClusterConfig cfg = tinyConfig();
    EXPECT_EQ(cfg.validateCrashVictims({1}), "");
    EXPECT_NE(cfg.validateCrashVictims({3}).find(
                  "crash victim node 3 out of range"),
              std::string::npos);
    EXPECT_NE(cfg.validateCrashVictims({0, 1, 2}).find("no survivor"),
              std::string::npos);

    ClusterConfig sh = shardedConfig();
    EXPECT_EQ(sh.validateCrashVictims({1, 2}), "");
    EXPECT_NE(sh.validateCrashVictims({2, 3}).find(
                  "all 2 nodes of shard team 1; each team needs a "
                  "survivor"),
              std::string::npos);

    // The cluster applies the same rule when the crash fires.
    Cluster c(cfg);
    c.schedulePartialCrash(cfg.warmup, {0, 1, 2});
    EXPECT_THROW(c.run(), std::invalid_argument);
}

TEST(ConfigValidate, StagedCrashNeedsRequestTimeouts)
{
    ClusterConfig cfg = tinyConfig();
    ASSERT_EQ(cfg.clientRequestTimeout, 0u);
    std::string err = cfg.validateStagedCrash();
    EXPECT_NE(err.find("a staged partial crash needs a client request "
                       "timeout"),
              std::string::npos)
        << err;

    // Refused when scheduled, before any simulated time passes.
    Cluster c(cfg);
    try {
        c.schedulePartialCrash(100 * sim::kMicrosecond, {1},
                               50 * sim::kMicrosecond);
        ADD_FAILURE() << "a staged crash without timeouts was scheduled";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(err, e.what());
    }

    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    EXPECT_EQ(cfg.validateStagedCrash(), "");
}

TEST(ConfigValidate, BenchmarkWorkloadConfigsAreValid)
{
    // paper-closed: Table 5 defaults, <Linearizable, Strict>.
    ClusterConfig paper;
    paper.model = {Consistency::Linearizable, Persistency::Strict};
    EXPECT_EQ(paper.validate(), "");

    // open-read-heavy: one open-loop YCSB-B tenant owning the pool.
    ClusterConfig open = paper;
    open.workload = workload::WorkloadSpec::ycsbB(open.keyCount);
    open.openLoop = true;
    open.tenants.push_back(tenant("default", open));
    EXPECT_EQ(open.validate(), "");

    // shard-rebalance: 25 servers in 5 teams, <Causal, Synchronous>.
    ClusterConfig shard;
    shard.model = {Consistency::Causal, Persistency::Synchronous};
    shard.numServers = 25;
    shard.clientsPerServer = 2;
    shard.keyCount = 5000;
    shard.workload = workload::WorkloadSpec::ycsbA(5000);
    shard.numShards = 5;
    shard.shardSplitThreshold = 1500;
    shard.shardMaxOps = 400;
    EXPECT_EQ(shard.validate(), "");

    // crash-recovery: 4-line values, instant recovery, node 1 crashes.
    ClusterConfig crash = paper;
    crash.node.valueLines = 4;
    crash.node.commitRecords = true;
    crash.recovery = RecoveryPolicy::Instant;
    crash.clientRequestTimeout = 50 * sim::kMicrosecond;
    EXPECT_EQ(crash.validate(), "");
    EXPECT_EQ(crash.validateCrashVictims({1}), "");
}

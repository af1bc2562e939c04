/**
 * @file
 * Integration tests: full cluster runs across all 25 DDP models,
 * crash-injection durability/intuition signatures (Table 4), recovery
 * policies, and client accounting.
 *
 * Every run is a deterministic discrete-event simulation for a fixed
 * seed, so the assertions are exact-repeatable, not statistical.
 */

#include <gtest/gtest.h>

#include "cluster/client.hh"
#include "cluster/cluster.hh"

using namespace ddp;
using namespace ddp::cluster;
using core::Consistency;
using core::DdpModel;
using core::Persistency;

namespace {

ClusterConfig
smallConfig(DdpModel m)
{
    ClusterConfig c;
    c.model = m;
    c.numServers = 3;
    c.clientsPerServer = 4;
    c.keyCount = 2000;
    c.workload = workload::WorkloadSpec::ycsbA(2000);
    c.warmup = 200 * sim::kMicrosecond;
    c.measure = 500 * sim::kMicrosecond;
    c.seed = 7;
    return c;
}

} // namespace

// --------------------------------------------------------------------------
// All 25 models run and produce sane metrics.
// --------------------------------------------------------------------------

class AllModelsRun : public ::testing::TestWithParam<DdpModel>
{
};

TEST_P(AllModelsRun, CompletesWithSaneMetrics)
{
    Cluster cluster(smallConfig(GetParam()));
    RunResult r = cluster.run();

    EXPECT_GT(r.throughput, 0.0) << core::modelName(GetParam());
    EXPECT_GT(r.reads, 100u);
    EXPECT_GT(r.writes, 100u);
    EXPECT_GT(r.meanReadNs, 0.0);
    EXPECT_GT(r.meanWriteNs, 0.0);
    EXPECT_GE(r.p95ReadNs, r.meanReadNs * 0.5);
    EXPECT_GT(r.messages, 0u);
    EXPECT_GT(r.networkBytes, 0u);
    // Scope persistency defers persists to the barrier but still
    // issues them; only a run with no persist trigger at all would
    // report zero.
    EXPECT_GT(r.persistsIssued, 0u) << core::modelName(GetParam());

    if (GetParam().consistency == Consistency::Transactional) {
        EXPECT_GT(r.xactStarted, 0u);
        EXPECT_GT(r.xactCommitted, 0u);
        EXPECT_LE(r.xactCommitted + r.xactAborted, r.xactStarted + 12);
    } else {
        EXPECT_EQ(r.xactStarted, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllModelsRun, ::testing::ValuesIn(core::allModels()),
    [](const ::testing::TestParamInfo<DdpModel> &info) {
        std::string s = core::modelName(info.param);
        std::string out;
        for (char ch : s) {
            if (std::isalnum(static_cast<unsigned char>(ch)))
                out += ch;
            else if (ch == ',')
                out += '_';
        }
        return out;
    });

// --------------------------------------------------------------------------
// Cross-model performance relations (paper Sec. 8.1).
// --------------------------------------------------------------------------

namespace {

RunResult
runModel(Consistency c, Persistency p)
{
    Cluster cluster(smallConfig({c, p}));
    return cluster.run();
}

} // namespace

TEST(ModelRelations, CausalOutperformsLinearizable)
{
    RunResult lin = runModel(Consistency::Linearizable,
                             Persistency::Synchronous);
    RunResult causal = runModel(Consistency::Causal,
                                Persistency::Synchronous);
    EXPECT_GT(causal.throughput, lin.throughput * 1.3);
    EXPECT_LT(causal.meanWriteNs, lin.meanWriteNs);
}

TEST(ModelRelations, StrictPersistencySlowsWrites)
{
    RunResult strict = runModel(Consistency::Causal,
                                Persistency::Strict);
    RunResult sync = runModel(Consistency::Causal,
                              Persistency::Synchronous);
    EXPECT_GT(strict.meanWriteNs, sync.meanWriteNs * 2);
    EXPECT_LT(strict.throughput, sync.throughput);
}

TEST(ModelRelations, ReadEnforcedPersistencyStallsReads)
{
    RunResult rep = runModel(Consistency::Causal,
                             Persistency::ReadEnforced);
    RunResult sync = runModel(Consistency::Causal,
                              Persistency::Synchronous);
    EXPECT_GT(rep.meanReadNs, sync.meanReadNs);
    EXPECT_GT(rep.readsStalledPersist, 0u);
    EXPECT_EQ(sync.readsStalledPersist, 0u);
}

TEST(ModelRelations, ReadEnforcedConsistencySpeedsWrites)
{
    RunResult rec = runModel(Consistency::ReadEnforced,
                             Persistency::Synchronous);
    RunResult lin = runModel(Consistency::Linearizable,
                             Persistency::Synchronous);
    EXPECT_LT(rec.meanWriteNs, lin.meanWriteNs);
}

TEST(ModelRelations, CausalCarriesMoreBytesPerMessageThanEventual)
{
    RunResult causal = runModel(Consistency::Causal,
                                Persistency::Eventual);
    RunResult eventual = runModel(Consistency::Eventual,
                                  Persistency::Eventual);
    double causal_bpm = static_cast<double>(causal.networkBytes) /
                        static_cast<double>(causal.messages);
    double eventual_bpm = static_cast<double>(eventual.networkBytes) /
                          static_cast<double>(eventual.messages);
    EXPECT_GT(causal_bpm, eventual_bpm); // cauhist payloads
}

// --------------------------------------------------------------------------
// Crash injection: Table 4 durability / intuition signatures.
// --------------------------------------------------------------------------

namespace {

RunResult
runWithCrash(Consistency c, Persistency p, core::PropertyChecker &pc)
{
    ClusterConfig cfg = smallConfig({c, p});
    Cluster cluster(cfg);
    cluster.setChecker(&pc);
    cluster.scheduleCrash(cfg.warmup + cfg.measure / 2);
    return cluster.run();
}

} // namespace

TEST(CrashSignatures, LinearizableSynchronousLosesNothing)
{
    core::PropertyChecker pc;
    RunResult r = runWithCrash(Consistency::Linearizable,
                               Persistency::Synchronous, pc);
    EXPECT_EQ(r.lostAckedWriteKeys, 0u);
    EXPECT_EQ(r.staleReads, 0u);
    EXPECT_EQ(r.monotonicViolations, 0u);
}

TEST(CrashSignatures, StrictLosesNothingUnderAnyConsistency)
{
    for (Consistency c :
         {Consistency::Linearizable, Consistency::Causal}) {
        core::PropertyChecker pc;
        RunResult r = runWithCrash(c, Persistency::Strict, pc);
        EXPECT_EQ(r.lostAckedWriteKeys, 0u) << core::consistencyName(c);
    }
}

TEST(CrashSignatures, EventualPersistencyLosesAckedWrites)
{
    core::PropertyChecker pc;
    RunResult r = runWithCrash(Consistency::Linearizable,
                               Persistency::Eventual, pc);
    EXPECT_GT(r.lostAckedWriteKeys, 0u);
}

TEST(CrashSignatures, ScopePersistencyLosesOpenScopes)
{
    core::PropertyChecker pc;
    RunResult r = runWithCrash(Consistency::Linearizable,
                               Persistency::Scope, pc);
    // Writes whose scope had not persisted yet are discarded.
    EXPECT_GT(r.lostAckedWriteKeys, 0u);
}

TEST(CrashSignatures, ReadEnforcedConsistencyCanLoseUnreadWrites)
{
    core::PropertyChecker pc;
    RunResult r = runWithCrash(Consistency::ReadEnforced,
                               Persistency::Synchronous, pc);
    // Read-Enforced consistency acks before the persist round ends:
    // some acked writes may be lost, but nothing a read returned is.
    EXPECT_EQ(r.monotonicViolations, 0u);
}

TEST(NoCrashSignatures, EventualConsistencyViolatesIntuition)
{
    core::PropertyChecker pc;
    ClusterConfig cfg = smallConfig(
        {Consistency::Eventual, Persistency::Synchronous});
    Cluster cluster(cfg);
    cluster.setChecker(&pc);
    RunResult r = cluster.run();
    // Arrival-order application and lazy propagation break both
    // monotonic and non-stale reads even without failures.
    EXPECT_GT(r.staleReads, 0u);
}

TEST(NoCrashSignatures, CausalSynchronousKeepsMonotonicReads)
{
    core::PropertyChecker pc;
    ClusterConfig cfg = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    Cluster cluster(cfg);
    cluster.setChecker(&pc);
    RunResult r = cluster.run();
    EXPECT_EQ(r.monotonicViolations, 0u);
    EXPECT_GT(r.staleReads, 0u); // but staleness is possible
}

TEST(NoCrashSignatures, LinearizableSynchronousFullyIntuitive)
{
    core::PropertyChecker pc;
    ClusterConfig cfg = smallConfig(
        {Consistency::Linearizable, Persistency::Synchronous});
    Cluster cluster(cfg);
    cluster.setChecker(&pc);
    RunResult r = cluster.run();
    EXPECT_EQ(r.monotonicViolations, 0u);
    EXPECT_EQ(r.staleReads, 0u);
}

// --------------------------------------------------------------------------
// Recovery machinery
// --------------------------------------------------------------------------

TEST(Recovery, VotingInstallsClusterMaximum)
{
    core::PropertyChecker pc;
    ClusterConfig cfg = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    Cluster cluster(cfg);
    cluster.setChecker(&pc);
    // Crash at the very end of the run: recovery executes, and no new
    // traffic re-diverges the replicas before we inspect them.
    cluster.scheduleCrash(cfg.warmup + cfg.measure - sim::kMicrosecond);
    cluster.run();

    ASSERT_EQ(cluster.recoveries().size(), 1u);
    const RecoveryStats &rs = cluster.recoveries()[0];
    EXPECT_GT(rs.keysInstalled, 0u);
    EXPECT_GT(rs.recoveryTime, 0u);
    // After voting every node agrees on every key.
    for (net::KeyId k = 0; k < 50; ++k) {
        net::Version v = cluster.node(0).persistedVersion(k);
        for (std::size_t n = 1; n < cluster.numNodes(); ++n)
            EXPECT_EQ(cluster.node(n).persistedVersion(k), v);
    }
}

TEST(Recovery, EventualPersistencyShowsDivergence)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Eventual, Persistency::Eventual});
    Cluster cluster(cfg);
    cluster.scheduleCrash(cfg.warmup + cfg.measure / 2);
    cluster.run();
    ASSERT_EQ(cluster.recoveries().size(), 1u);
    // Lazy propagation + lazy persists leave replicas' NVM divergent.
    EXPECT_GT(cluster.recoveries()[0].divergentKeys, 0u);
}

TEST(Recovery, LocalOnlyPolicyRuns)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Linearizable, Persistency::Synchronous});
    cfg.recovery = RecoveryPolicy::LocalOnly;
    Cluster cluster(cfg);
    cluster.scheduleCrash(cfg.warmup + cfg.measure / 2);
    RunResult r = cluster.run();
    EXPECT_GT(r.throughput, 0.0);
    ASSERT_EQ(cluster.recoveries().size(), 1u);
    EXPECT_GT(cluster.recoveries()[0].recoveryTime, 0u);
}

TEST(Recovery, ClusterKeepsServingAfterCrash)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    Cluster cluster(cfg);
    // Crash early in the measurement window; most of the window
    // happens post-recovery.
    cluster.scheduleCrash(cfg.warmup + 50 * sim::kMicrosecond);
    RunResult r = cluster.run();
    EXPECT_GT(r.reads + r.writes, 1000u);
}

// --------------------------------------------------------------------------
// Workload plumbing
// --------------------------------------------------------------------------

TEST(Workloads, WriteHeavyWorkloadShiftsMix)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    cfg.workload = workload::WorkloadSpec::ycsbW(cfg.keyCount);
    Cluster cluster(cfg);
    RunResult r = cluster.run();
    EXPECT_GT(r.writes, r.reads * 5);
}

TEST(Workloads, ReadHeavyWorkloadShiftsMix)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    cfg.workload = workload::WorkloadSpec::ycsbB(cfg.keyCount);
    Cluster cluster(cfg);
    RunResult r = cluster.run();
    EXPECT_GT(r.reads, r.writes * 5);
}

TEST(Workloads, MoreClientsMoreConcurrency)
{
    ClusterConfig a = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    a.clientsPerServer = 2;
    ClusterConfig b = a;
    b.clientsPerServer = 8;
    Cluster ca(a), cb(b);
    RunResult ra = ca.run(), rb = cb.run();
    // Causal doesn't stall, so throughput scales with client count.
    EXPECT_GT(rb.throughput, ra.throughput * 2);
}

TEST(Workloads, DeterministicForSameSeed)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Linearizable, Persistency::ReadEnforced});
    Cluster a(cfg), b(cfg);
    RunResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.reads, rb.reads);
    EXPECT_EQ(ra.writes, rb.writes);
    EXPECT_EQ(ra.messages, rb.messages);
    EXPECT_DOUBLE_EQ(ra.meanReadNs, rb.meanReadNs);
}

TEST(Workloads, DifferentSeedsDiffer)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    Cluster a(cfg);
    cfg.seed = 99;
    Cluster b(cfg);
    RunResult ra = a.run(), rb = b.run();
    EXPECT_NE(ra.reads + ra.messages, rb.reads + rb.messages);
}

// --------------------------------------------------------------------------
// Scope / transaction pacing
// --------------------------------------------------------------------------

TEST(Pacing, ScopePersistsHappenEveryScopeLength)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Linearizable, Persistency::Scope});
    Cluster cluster(cfg);
    RunResult r = cluster.run();
    // One PERSIST broadcast per scopeLength ops per client: messages
    // include persist rounds; just check persists were triggered.
    EXPECT_GT(r.persistsIssued, 0u);
    EXPECT_GT(r.counters["persists_issued"], r.writes / 4);
}

TEST(Pacing, TransactionalConflictRateReasonable)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Transactional, Persistency::Synchronous});
    Cluster cluster(cfg);
    RunResult r = cluster.run();
    EXPECT_GT(r.xactStarted, 100u);
    // Most transactions commit; the abort path exists but is bounded.
    EXPECT_GT(static_cast<double>(r.xactCommitted),
              0.5 * static_cast<double>(r.xactStarted));
}

TEST(Workloads, ThinkTimeThrottlesClients)
{
    ClusterConfig fast = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    ClusterConfig slow = fast;
    slow.clientThinkTime = 10 * sim::kMicrosecond;
    Cluster cf(fast), cs(slow);
    RunResult rf = cf.run(), rs = cs.run();
    // ~1.3 us service + 10 us think ~ 8x fewer requests.
    EXPECT_LT(rs.throughput, rf.throughput / 4);
    EXPECT_GT(rs.throughput, 0.0);
}

TEST(PartialCrash, SurvivorsPreserveAckedWrites)
{
    core::PropertyChecker pc;
    ClusterConfig cfg = smallConfig(
        {Consistency::Linearizable, Persistency::Eventual});
    Cluster cluster(cfg);
    cluster.setChecker(&pc);
    // One node dies; <Linearizable, *> replicated every acked write to
    // all nodes' volatile memory, so the survivors cover everything
    // even under lazy persistency.
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 2, {1});
    RunResult r = cluster.run();
    EXPECT_EQ(r.lostAckedWriteKeys, 0u);
    ASSERT_EQ(cluster.recoveries().size(), 1u);
    EXPECT_GT(cluster.recoveries()[0].keysInstalled, 0u);
}

TEST(PartialCrash, ClusterKeepsServing)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    Cluster cluster(cfg);
    cluster.schedulePartialCrash(cfg.warmup + 100 * sim::kMicrosecond,
                                 {0, 2});
    RunResult r = cluster.run();
    EXPECT_GT(r.reads + r.writes, 1000u);
}

TEST(PartialCrash, VictimRebuildsFromSurvivors)
{
    ClusterConfig cfg = smallConfig(
        {Consistency::Linearizable, Persistency::Scope});
    Cluster cluster(cfg);
    // Scope persistency keeps NVM mostly empty (open scopes), so the
    // victim's recovery must come from survivors' volatile state.
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure - sim::kMicrosecond,
                                 {1});
    cluster.run();
    // After recovery the victim agrees with the survivors on a sample
    // of keys.
    for (net::KeyId k = 0; k < 200; ++k) {
        EXPECT_EQ(cluster.node(1).visibleVersion(k),
                  cluster.node(0).visibleVersion(k))
            << "key " << k;
    }
}

TEST(Workloads, TraceReplayDrivesClients)
{
    // Record a write-only trace over a narrow key band and replay it:
    // every write the cluster performs must hit that band.
    workload::WorkloadSpec spec = workload::WorkloadSpec::ycsbW(50);
    workload::OpGenerator gen(spec, 5, 1);
    workload::Trace trace = workload::Trace::record(gen, 400);

    ClusterConfig cfg = smallConfig(
        {Consistency::Causal, Persistency::Synchronous});
    cfg.trace = &trace;
    Cluster cluster(cfg);
    RunResult r = cluster.run();
    EXPECT_GT(r.writes, r.reads * 5); // trace is 95% writes
    // Keys outside [0, 50) were never written on any node.
    for (net::KeyId k = 50; k < 200; ++k) {
        for (std::size_t n = 0; n < cluster.numNodes(); ++n)
            ASSERT_EQ(cluster.node(n).visibleVersion(k).number, 0u);
    }
}

TEST(Workloads, TraceReplayIsDeterministic)
{
    workload::WorkloadSpec spec = workload::WorkloadSpec::ycsbA(100);
    workload::OpGenerator gen(spec, 5, 2);
    workload::Trace trace = workload::Trace::record(gen, 300);

    ClusterConfig cfg = smallConfig(
        {Consistency::Linearizable, Persistency::Synchronous});
    cfg.trace = &trace;
    Cluster a(cfg), b(cfg);
    RunResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.reads, rb.reads);
    EXPECT_EQ(ra.messages, rb.messages);
}

// --------------------------------------------------------------------------
// Zipfian constants are computed once per distinct tenant workload.
// --------------------------------------------------------------------------

TEST(ZipfSharing, ClientsOfATenantShareOneTable)
{
    ClusterConfig cfg = smallConfig({Consistency::Causal,
                                     Persistency::Synchronous});
    TenantSpec hot;
    hot.name = "hot";
    hot.workload = workload::WorkloadSpec::ycsbA(2000);
    hot.model = cfg.model;
    TenantSpec flat = hot;
    flat.name = "flat";
    flat.workload = workload::WorkloadSpec::ycsbB(1000);
    flat.workload.zipfTheta = 0.5;
    TenantSpec twin = hot; // same (keyCount, theta) as "hot"
    twin.name = "twin";
    cfg.tenants = {hot, flat, twin};
    Cluster cluster(cfg);

    ASSERT_EQ(cluster.numTenants(), 3u);
    const workload::ZipfTable &h = cluster.zipfFor(0);
    const workload::ZipfTable &f = cluster.zipfFor(1);
    EXPECT_NE(h, f);
    EXPECT_EQ(h->itemCount(), 2000u);
    EXPECT_EQ(f->itemCount(), 1000u);
    EXPECT_EQ(f->skew(), 0.5);
    // Equal parameters: one set of constants across tenants too.
    EXPECT_EQ(cluster.zipfFor(2), h);

    std::uint32_t seen[3] = {0, 0, 0};
    for (std::uint32_t i = 0; i < cluster.numClients(); ++i) {
        const Client &c = cluster.client(i);
        ++seen[c.tenantIdx()];
        EXPECT_EQ(c.generator().zipfTable(), cluster.zipfFor(c.tenantIdx()))
            << "client " << i;
    }
    for (std::uint32_t t = 0; t < 3; ++t)
        EXPECT_EQ(seen[t], cluster.tenantClientCount(t));
}

// --------------------------------------------------------------------------
// Cache directories follow the working set: constructing a cluster fills
// no LLC set, and a run fills at most one set per value line.
// --------------------------------------------------------------------------

TEST(CacheFootprint, LlcDirectoriesGrowWithTheLinesARunFills)
{
    ClusterConfig c;
    c.model = {Consistency::Causal, Persistency::Synchronous};
    c.numServers = 25;
    c.numShards = 5;
    c.clientsPerServer = 2;
    c.keyCount = 5000;
    c.workload = workload::WorkloadSpec::ycsbA(c.keyCount);
    c.warmup = 100 * sim::kMicrosecond;
    c.measure = 300 * sim::kMicrosecond;
    c.seed = 42;
    Cluster cluster(c);
    ASSERT_EQ(cluster.numNodes(), 25u);
    for (std::size_t i = 0; i < cluster.numNodes(); ++i) {
        EXPECT_EQ(cluster.node(i).caches().llc().materializedSets(), 0u)
            << "node " << i;
    }

    RunResult r = cluster.run();
    EXPECT_GT(r.reads + r.writes, 0u);
    const std::uint64_t bound = c.keyCount * c.node.valueLines;
    for (std::size_t i = 0; i < cluster.numNodes(); ++i) {
        std::uint32_t sets = cluster.node(i).caches().llc().materializedSets();
        EXPECT_GT(sets, 0u) << "node " << i;
        EXPECT_LE(sets, bound) << "node " << i;
    }
}

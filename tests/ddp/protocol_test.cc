/**
 * @file
 * Behavioural tests of the DDP protocol engine on a small cluster.
 *
 * A harness builds N protocol nodes on a shared fabric and drives the
 * client API directly, asserting the visibility/durability semantics
 * each <consistency, persistency> binding promises. A variant harness
 * adds a raw "driver" fabric endpoint that can inject crafted protocol
 * messages (out-of-order causal UPDs, arrival-order eventual UPDs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "ddp/protocol_node.hh"
#include "net/fabric.hh"
#include "sim/event_queue.hh"
#include "stats/counter.hh"

using namespace ddp;
using namespace ddp::core;
using net::KeyId;
using net::Message;
using net::MsgType;
using net::NodeId;
using net::Version;
using sim::kMicrosecond;
using sim::kNanosecond;
using sim::Tick;

namespace {

struct Harness
{
    sim::EventQueue eq;
    net::NetworkParams netp;
    std::unique_ptr<net::Fabric> fabric;
    stats::CounterRegistry ctr;
    XactConflictTable xt;
    std::vector<std::unique_ptr<ProtocolNode>> nodes;
    std::vector<Message> driverInbox;
    bool hasDriver = false;

    explicit Harness(DdpModel model, std::uint32_t servers = 3,
                     bool with_driver = false,
                     bool persist_coalescing = true)
        : hasDriver(with_driver)
    {
        std::uint32_t total = servers + (with_driver ? 1 : 0);
        fabric = std::make_unique<net::Fabric>(eq, netp, total);
        NodeParams np;
        np.model = model;
        np.numNodes = total;
        np.keyCount = 64;
        // Small local costs so protocol delays dominate assertions.
        np.opProcessing = 100 * kNanosecond;
        np.msgProcessing = 50 * kNanosecond;
        np.probeCost = 0;
        np.persistCoalescing = persist_coalescing;
        for (std::uint32_t n = 0; n < servers; ++n) {
            nodes.push_back(std::make_unique<ProtocolNode>(
                eq, *fabric, n, np, ctr, &xt));
        }
        if (with_driver) {
            fabric->attach(servers, [this](const Message &m) {
                driverInbox.push_back(m);
            });
        }
    }

    NodeId driverId() const
    {
        return static_cast<NodeId>(nodes.size());
    }

    /** Issue a write and run until it completes. */
    OpResult
    writeAndWait(NodeId node, KeyId key, OpContext ctx = {})
    {
        std::optional<OpResult> out;
        nodes[node]->clientWrite(key, ctx,
                                 [&](const OpResult &r) { out = r; });
        runUntilSet(out);
        return *out;
    }

    OpResult
    readAndWait(NodeId node, KeyId key, OpContext ctx = {})
    {
        std::optional<OpResult> out;
        nodes[node]->clientRead(key, ctx,
                                [&](const OpResult &r) { out = r; });
        runUntilSet(out);
        return *out;
    }

    void
    runUntilSet(std::optional<OpResult> &out)
    {
        while (!out && eq.step()) {
        }
        ASSERT_TRUE(out.has_value()) << "operation never completed";
    }

    void drain() { eq.run(); }
    void runFor(Tick d) { eq.runUntil(eq.now() + d); }
};

} // namespace

// --------------------------------------------------------------------------
// Linearizable consistency
// --------------------------------------------------------------------------

TEST(LinearizableSync, WriteReplicatesAndPersistsEverywhere)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    bool checked = false;
    h.nodes[0]->clientWrite(7, {}, [&](const OpResult &r) {
        // At client-ack time every follower has already persisted
        // (their combined ACK certified the persist).
        for (auto &n : h.nodes)
            EXPECT_EQ(n->persistedVersion(7), r.version);
        checked = true;
    });
    h.drain();
    ASSERT_TRUE(checked);
    // And after the VALs drain, the update is visible everywhere.
    for (auto &n : h.nodes)
        EXPECT_EQ(n->visibleVersion(7).number, 1u);
}

TEST(LinearizableSync, WriteLatencyIncludesRoundTrip)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    OpResult r = h.writeAndWait(0, 1);
    EXPECT_GE(r.latency(), h.netp.roundTrip);
}

TEST(LinearizableSync, ReadOfQuietKeyIsFast)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    h.writeAndWait(0, 1);
    h.drain();
    OpResult r = h.readAndWait(1, 1);
    EXPECT_LT(r.latency(), h.netp.roundTrip / 2);
    EXPECT_EQ(r.version.number, 1u);
}

TEST(LinearizableSync, FollowerReadStallsDuringWrite)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    std::optional<OpResult> write_done, read_done;
    h.nodes[0]->clientWrite(3, {},
                            [&](const OpResult &r) { write_done = r; });
    // Issue the read at a follower once the INV is in flight.
    h.eq.schedule(700 * kNanosecond, [&] {
        h.nodes[1]->clientRead(3, {},
                               [&](const OpResult &r) { read_done = r; });
    });
    h.drain();
    ASSERT_TRUE(write_done && read_done);
    // The read saw the new version (it waited for the VAL).
    EXPECT_EQ(read_done->version, write_done->version);
    EXPECT_GT(h.ctr.get("reads_stalled_visibility"), 0u);
}

TEST(LinearizableSync, SameKeyWritesSerializePerCoordinator)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    std::optional<OpResult> first, second;
    h.nodes[0]->clientWrite(5, {},
                            [&](const OpResult &r) { first = r; });
    // Issue the second write strictly after the first one's round is
    // in flight, so it must queue behind it.
    h.eq.schedule(400 * kNanosecond, [&] {
        h.nodes[0]->clientWrite(5, {},
                                [&](const OpResult &r) { second = r; });
    });
    h.drain();
    ASSERT_TRUE(first && second);
    EXPECT_LT(first->version, second->version);
    EXPECT_LT(first->completedAt, second->completedAt);
    for (auto &n : h.nodes)
        EXPECT_EQ(n->visibleVersion(5), second->version);
}

TEST(LinearizableSync, ConcurrentCoordinatorsConverge)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    h.nodes[0]->clientWrite(9, {}, [](const OpResult &) {});
    h.nodes[1]->clientWrite(9, {}, [](const OpResult &) {});
    h.drain();
    Version v0 = h.nodes[0]->visibleVersion(9);
    for (auto &n : h.nodes)
        EXPECT_EQ(n->visibleVersion(9), v0);
    EXPECT_GT(v0.number, 0u);
}

// --------------------------------------------------------------------------
// Read-Enforced consistency
// --------------------------------------------------------------------------

TEST(ReadEnforcedSync, WriteCompletesBeforeRoundTrip)
{
    Harness h({Consistency::ReadEnforced, Persistency::Synchronous});
    OpResult w = h.writeAndWait(0, 2);
    EXPECT_LT(w.latency(), h.netp.roundTrip / 2);
    h.drain();
    for (auto &n : h.nodes) {
        EXPECT_EQ(n->visibleVersion(2), w.version);
        EXPECT_EQ(n->persistedVersion(2), w.version);
    }
}

TEST(ReadEnforcedSync, ReadAfterWriteWaitsForReplication)
{
    Harness h({Consistency::ReadEnforced, Persistency::Synchronous});
    OpResult w = h.writeAndWait(0, 2);
    // Immediately read at the coordinator: Read-Enforced consistency
    // stalls it until all replicas are updated (and persisted).
    bool checked = false;
    h.nodes[0]->clientRead(2, {}, [&](const OpResult &r) {
        EXPECT_EQ(r.version, w.version);
        for (auto &n : h.nodes)
            EXPECT_EQ(n->persistedVersion(2), w.version);
        checked = true;
    });
    h.drain();
    ASSERT_TRUE(checked);
    EXPECT_GT(h.ctr.get("reads_stalled_visibility"), 0u);
}

// --------------------------------------------------------------------------
// Strict persistency
// --------------------------------------------------------------------------

class StrictPersistency
    : public ::testing::TestWithParam<Consistency>
{
};

TEST_P(StrictPersistency, WriteCompletionImpliesDurableEverywhere)
{
    Harness h({GetParam(), Persistency::Strict});
    OpContext ctx;
    std::uint64_t xid = 0;
    if (GetParam() == Consistency::Transactional) {
        xid = 42;
        std::optional<OpResult> init;
        h.nodes[0]->clientInitXact(
            xid, [&](const OpResult &r) { init = r; });
        h.runUntilSet(init);
        ctx.xactId = xid;
    }
    bool checked = false;
    h.nodes[0]->clientWrite(4, ctx, [&](const OpResult &r) {
        ASSERT_FALSE(r.aborted);
        for (auto &n : h.nodes)
            EXPECT_EQ(n->persistedVersion(4), r.version)
                << "node " << n->id();
        checked = true;
    });
    h.drain();
    ASSERT_TRUE(checked);
}

INSTANTIATE_TEST_SUITE_P(
    AllConsistencies, StrictPersistency,
    ::testing::Values(Consistency::Linearizable,
                      Consistency::ReadEnforced,
                      Consistency::Transactional, Consistency::Causal,
                      Consistency::Eventual),
    [](const ::testing::TestParamInfo<Consistency> &info) {
        std::string s = consistencyName(info.param);
        s.erase(std::remove(s.begin(), s.end(), '-'), s.end());
        return s;
    });

// --------------------------------------------------------------------------
// Read-Enforced persistency
// --------------------------------------------------------------------------

TEST(LinearizableReadEnforcedP, ReadWaitsForGlobalPersist)
{
    Harness h({Consistency::Linearizable, Persistency::ReadEnforced});
    std::optional<OpResult> w;
    h.nodes[0]->clientWrite(6, {}, [&](const OpResult &r) { w = r; });
    h.runUntilSet(w);
    bool checked = false;
    h.nodes[0]->clientRead(6, {}, [&](const OpResult &r) {
        EXPECT_EQ(r.version, w->version);
        // Read-Enforced persistency: by read time the update is
        // durable on every replica.
        for (auto &n : h.nodes)
            EXPECT_GE(n->persistedVersion(6), w->version);
        checked = true;
    });
    h.drain();
    ASSERT_TRUE(checked);
    EXPECT_GT(h.ctr.get("reads_stalled_persist"), 0u);
}

TEST(CausalReadEnforcedP, ReadWaitsForLocalPersist)
{
    Harness h({Consistency::Causal, Persistency::ReadEnforced});
    OpResult w = h.writeAndWait(0, 6);
    bool checked = false;
    h.nodes[0]->clientRead(6, {}, [&](const OpResult &r) {
        EXPECT_EQ(r.version, w.version);
        EXPECT_GE(h.nodes[0]->persistedVersion(6), w.version);
        checked = true;
    });
    h.drain();
    ASSERT_TRUE(checked);
}

// --------------------------------------------------------------------------
// Scope persistency
// --------------------------------------------------------------------------

TEST(LinearizableScope, WritesDeferPersistUntilScopeEnd)
{
    Harness h({Consistency::Linearizable, Persistency::Scope});
    OpContext ctx;
    ctx.scopeId = 77;
    OpResult w1 = h.writeAndWait(0, 10, ctx);
    OpResult w2 = h.writeAndWait(0, 11, ctx);
    h.drain();
    // Visible everywhere but durable nowhere.
    for (auto &n : h.nodes) {
        EXPECT_EQ(n->visibleVersion(10), w1.version);
        EXPECT_EQ(n->persistedVersion(10).number, 0u);
        EXPECT_EQ(n->persistedVersion(11).number, 0u);
    }
    bool checked = false;
    h.nodes[0]->clientPersistScope(77, [&](const OpResult &) {
        for (auto &n : h.nodes) {
            EXPECT_EQ(n->persistedVersion(10), w1.version);
            EXPECT_EQ(n->persistedVersion(11), w2.version);
        }
        checked = true;
    });
    h.drain();
    ASSERT_TRUE(checked);
}

TEST(LinearizableScope, EmptyScopePersistCompletes)
{
    Harness h({Consistency::Linearizable, Persistency::Scope});
    std::optional<OpResult> done;
    h.nodes[0]->clientPersistScope(123,
                                   [&](const OpResult &r) { done = r; });
    h.drain();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->kind, OpKind::PersistScope);
}

// --------------------------------------------------------------------------
// Causal consistency
// --------------------------------------------------------------------------

TEST(CausalSync, ReadReturnsPersistedVersion)
{
    Harness h({Consistency::Causal, Persistency::Synchronous});
    OpResult w = h.writeAndWait(0, 8);
    // Immediately after the (fast) write the local persist is still in
    // flight: a read returns the previous durable version.
    OpResult r1 = h.readAndWait(0, 8);
    EXPECT_LT(r1.version, w.version);
    h.drain();
    OpResult r2 = h.readAndWait(0, 8);
    EXPECT_EQ(r2.version, w.version);
}

TEST(CausalSync, WritesAreFast)
{
    Harness h({Consistency::Causal, Persistency::Synchronous});
    OpResult w = h.writeAndWait(0, 8);
    EXPECT_LT(w.latency(), h.netp.roundTrip / 2);
}

TEST(CausalSync, PropagatesToFollowers)
{
    Harness h({Consistency::Causal, Persistency::Synchronous});
    OpResult w = h.writeAndWait(0, 8);
    h.drain();
    for (auto &n : h.nodes) {
        EXPECT_EQ(n->visibleVersion(8), w.version);
        EXPECT_EQ(n->persistedVersion(8), w.version);
    }
}

TEST(CausalSync, UpdWithUnsatisfiedDepsIsBuffered)
{
    // Driver node 3 injects an UPD that causally depends on a write by
    // node 1 which has not happened yet: it must buffer until node 1's
    // update is applied (and, under Synchronous persistency, durable).
    Harness h({Consistency::Causal, Persistency::Synchronous}, 3,
              /*with_driver=*/true);
    NodeId drv = h.driverId();

    Message d2;
    d2.type = MsgType::Upd;
    d2.src = drv;
    d2.dst = 0;
    d2.key = 21;
    d2.version = Version{1, drv};
    d2.hasData = true;
    d2.cauhist = {0, 1, 0, 0}; // depends on node 1's first write

    h.fabric->send(d2);
    h.runFor(2 * kMicrosecond);
    EXPECT_EQ(h.nodes[0]->causalBufferSize(), 1u);
    EXPECT_EQ(h.nodes[0]->visibleVersion(21).number, 0u);

    // Node 1 now performs the write d2 depends on.
    OpResult w = h.writeAndWait(1, 20);
    h.drain();
    EXPECT_EQ(h.nodes[0]->causalBufferSize(), 0u);
    EXPECT_EQ(h.nodes[0]->visibleVersion(20), w.version);
    EXPECT_EQ(h.nodes[0]->visibleVersion(21).number, 1u);
    EXPECT_GE(h.nodes[0]->causalBufferPeak(), 1u);
    EXPECT_GT(h.ctr.get("causal_buffered"), 0u);
}

TEST(CausalSync, DurableGatingOrdersPersistsBeforeApply)
{
    // Under Synchronous persistency a buffered UPD may only apply once
    // its dependencies are durable locally: at apply time of the
    // dependent update, the dependency's persist must have completed.
    Harness h({Consistency::Causal, Persistency::Synchronous}, 3,
              /*with_driver=*/true);
    NodeId drv = h.driverId();

    Message d2;
    d2.type = MsgType::Upd;
    d2.src = drv;
    d2.dst = 0;
    d2.key = 21;
    d2.version = Version{1, drv};
    d2.hasData = true;
    d2.cauhist = {0, 1, 0, 0};
    h.fabric->send(d2);
    h.runFor(2 * kMicrosecond);

    OpResult w = h.writeAndWait(1, 20);
    h.drain();
    // Both updates applied and durable, in dependency order.
    EXPECT_GE(h.nodes[0]->persistedVersion(20), w.version);
    EXPECT_EQ(h.nodes[0]->persistedVersion(21).number, 1u);
}

TEST(CausalSync, CrossNodeDependencyRespected)
{
    Harness h({Consistency::Causal, Persistency::Synchronous});
    // Node 0 writes k1; after it propagates, node 1 writes k2 (which
    // causally depends on k1 through node 1's applied clock).
    OpResult w1 = h.writeAndWait(0, 1);
    h.drain();
    OpResult w2 = h.writeAndWait(1, 2);
    h.drain();
    // Everyone who sees k2 also sees k1.
    for (auto &n : h.nodes) {
        if (n->visibleVersion(2) == w2.version) {
            EXPECT_EQ(n->visibleVersion(1), w1.version);
        }
    }
}

// --------------------------------------------------------------------------
// Eventual consistency
// --------------------------------------------------------------------------

TEST(EventualSync, PropagationIsLazy)
{
    Harness h({Consistency::Eventual, Persistency::Synchronous});
    OpResult w = h.writeAndWait(0, 12);
    EXPECT_LT(w.latency(), h.netp.roundTrip / 2);
    // Well before the lazy delay the followers are stale.
    h.runFor(1 * kMicrosecond);
    EXPECT_EQ(h.nodes[1]->visibleVersion(12).number, 0u);
    h.drain();
    EXPECT_EQ(h.nodes[1]->visibleVersion(12), w.version);
}

TEST(EventualEventual, ArrivalOrderCanRegressVersions)
{
    Harness h({Consistency::Eventual, Persistency::Eventual}, 3,
              /*with_driver=*/true);
    NodeId drv = h.driverId();

    Message newer;
    newer.type = MsgType::Upd;
    newer.src = drv;
    newer.dst = 0;
    newer.key = 30;
    newer.version = Version{5, drv};
    newer.hasData = true;

    Message older = newer;
    older.version = Version{2, drv};

    // Same source QP: delivery order matches send order.
    h.fabric->send(newer);
    h.fabric->send(older);
    h.drain();
    // Arrival-order application leaves the *older* version visible —
    // exactly why Eventual consistency loses monotonic reads.
    EXPECT_EQ(h.nodes[0]->visibleVersion(30).number, 2u);
}

// --------------------------------------------------------------------------
// Transactional consistency
// --------------------------------------------------------------------------

namespace {

/** Run a full transaction of writes at @p node; returns versions. */
std::vector<Version>
runXact(Harness &h, NodeId node, std::uint64_t xid,
        const std::vector<KeyId> &keys, bool &committed)
{
    std::optional<OpResult> step;
    h.nodes[node]->clientInitXact(xid,
                                  [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    std::vector<Version> vers;
    OpContext ctx;
    ctx.xactId = xid;
    for (KeyId k : keys) {
        step.reset();
        h.nodes[node]->clientWrite(k, ctx,
                                   [&](const OpResult &r) { step = r; });
        h.runUntilSet(step);
        EXPECT_FALSE(step->aborted);
        vers.push_back(step->version);
    }
    step.reset();
    h.nodes[node]->clientEndXact(xid, true,
                                 [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    committed = !step->aborted;
    return vers;
}

} // namespace

TEST(TransactionalSync, CommitAppliesAndPersistsEverywhere)
{
    Harness h({Consistency::Transactional, Persistency::Synchronous});
    bool committed = false;
    auto vers = runXact(h, 0, 1, {40, 41}, committed);
    ASSERT_TRUE(committed);
    h.drain();
    for (auto &n : h.nodes) {
        EXPECT_EQ(n->visibleVersion(40), vers[0]);
        EXPECT_EQ(n->visibleVersion(41), vers[1]);
        EXPECT_EQ(n->persistedVersion(40), vers[0]);
        EXPECT_EQ(n->persistedVersion(41), vers[1]);
    }
    EXPECT_EQ(h.ctr.get("xact_committed"), 1u);
}

TEST(TransactionalSync, FollowersSeeNothingBeforeCommit)
{
    Harness h({Consistency::Transactional, Persistency::Synchronous});
    std::optional<OpResult> step;
    h.nodes[0]->clientInitXact(1, [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    OpContext ctx;
    ctx.xactId = 1;
    step.reset();
    h.nodes[0]->clientWrite(50, ctx,
                            [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    h.runFor(3 * kMicrosecond); // INVs delivered, ENDX not sent
    EXPECT_EQ(h.nodes[1]->visibleVersion(50).number, 0u);
    EXPECT_EQ(h.nodes[2]->visibleVersion(50).number, 0u);
    // Committed state at the coordinator is also untouched, but the
    // transaction reads its own write through its write set.
    EXPECT_EQ(h.nodes[0]->visibleVersion(50).number, 0u);
    step.reset();
    h.nodes[0]->clientRead(50, ctx, [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    EXPECT_EQ(step->version.number, 1u);
}

TEST(TransactionalSync, AbortRollsBackCoordinator)
{
    Harness h({Consistency::Transactional, Persistency::Synchronous});
    // Seed key 60 with a committed value (non-transactional writes
    // degenerate to an invalidation round).
    h.writeAndWait(0, 60);
    h.drain();
    Version before = h.nodes[0]->visibleVersion(60);

    std::optional<OpResult> step;
    h.nodes[0]->clientInitXact(2, [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    OpContext ctx;
    ctx.xactId = 2;
    step.reset();
    h.nodes[0]->clientWrite(60, ctx,
                            [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    Version uncommitted = step->version;
    EXPECT_GT(uncommitted, before);
    // Committed state is untouched while the transaction is open (no
    // dirty reads for other clients)...
    EXPECT_EQ(h.nodes[0]->visibleVersion(60), before);
    // ...but the transaction reads its own write.
    step.reset();
    h.nodes[0]->clientRead(60, ctx,
                           [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    EXPECT_EQ(step->version, uncommitted);

    step.reset();
    h.nodes[0]->clientEndXact(2, false,
                              [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    EXPECT_TRUE(step->aborted);
    h.drain();
    for (auto &n : h.nodes)
        EXPECT_EQ(n->visibleVersion(60), before);
    EXPECT_EQ(h.ctr.get("xact_aborted"), 1u);
}

TEST(TransactionalSync, ConflictSquashesYoungerXact)
{
    Harness h({Consistency::Transactional, Persistency::Synchronous});
    std::optional<OpResult> s1, s2;
    h.nodes[0]->clientInitXact(1, [&](const OpResult &r) { s1 = r; });
    h.nodes[1]->clientInitXact(2, [&](const OpResult &r) { s2 = r; });
    h.runUntilSet(s1);
    h.runUntilSet(s2);

    OpContext c1{1, 0}, c2{2, 0};
    s1.reset();
    s2.reset();
    // Write the same key from both coordinators at the same tick: the
    // second access falls inside the first one's conflict window.
    h.nodes[0]->clientWrite(45, c1,
                            [&](const OpResult &r) { s1 = r; });
    h.nodes[1]->clientWrite(45, c2,
                            [&](const OpResult &r) { s2 = r; });
    h.drain();
    ASSERT_TRUE(s1 && s2);
    // At least one of the two transactions experienced a conflict.
    EXPECT_GT(h.ctr.get("xact_conflicts"), 0u);
}

TEST(TransactionalSync, ReadSeesOwnUncommittedWrite)
{
    Harness h({Consistency::Transactional, Persistency::Synchronous});
    std::optional<OpResult> step;
    h.nodes[0]->clientInitXact(1, [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    OpContext ctx;
    ctx.xactId = 1;
    step.reset();
    h.nodes[0]->clientWrite(55, ctx,
                            [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    Version written = step->version;
    step.reset();
    h.nodes[0]->clientRead(55, ctx,
                           [&](const OpResult &r) { step = r; });
    h.runUntilSet(step);
    EXPECT_EQ(step->version, written);
}

// --------------------------------------------------------------------------
// Crash and recovery
// --------------------------------------------------------------------------

TEST(Crash, VolatileLostDurableSurvives)
{
    Harness h({Consistency::Linearizable, Persistency::Scope});
    OpContext ctx;
    ctx.scopeId = 5;
    OpResult w = h.writeAndWait(0, 15, ctx);
    h.drain();
    // Visible everywhere, durable nowhere (scope still open).
    EXPECT_EQ(h.nodes[1]->visibleVersion(15), w.version);
    for (auto &n : h.nodes)
        n->crashVolatile();
    for (auto &n : h.nodes) {
        EXPECT_EQ(n->visibleVersion(15).number, 0u);
        EXPECT_EQ(n->persistedVersion(15).number, 0u);
    }
}

TEST(Crash, SynchronousWriteSurvives)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    OpResult w = h.writeAndWait(0, 16);
    h.drain();
    for (auto &n : h.nodes)
        n->crashVolatile();
    for (auto &n : h.nodes) {
        EXPECT_EQ(n->persistedVersion(16), w.version);
        EXPECT_EQ(n->visibleVersion(16), w.version);
    }
}

TEST(Crash, InFlightTrafficIsDiscarded)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    std::optional<OpResult> w;
    h.nodes[0]->clientWrite(17, {}, [&](const OpResult &r) { w = r; });
    // Crash all nodes while INVs are in flight.
    h.eq.schedule(300 * kNanosecond, [&] {
        for (auto &n : h.nodes)
            n->crashVolatile();
    });
    h.drain();
    // The write never completed and no node ended up inconsistent.
    EXPECT_FALSE(w.has_value());
    for (auto &n : h.nodes)
        EXPECT_EQ(n->visibleVersion(17), n->persistedVersion(17));
}

TEST(Crash, CoalescedPersistStateIsDroppedAndKeyPersistsAfterRestart)
{
    Harness h({Consistency::Causal, Persistency::Synchronous});
    // A burst of writes to one key at one coordinator: the first starts
    // an NVM persist, the next ones coalesce into a pending follow-up.
    for (int i = 0; i < 6; ++i)
        h.nodes[0]->clientWrite(21, {}, [](const OpResult &) {});
    while (h.ctr.get("persists_coalesced") == 0 && h.eq.step()) {
    }
    ASSERT_GT(h.ctr.get("persists_coalesced"), 0u);
    // Node 0 holds the key's record (active + pending persists); the
    // followers have not been reached yet.
    ASSERT_EQ(h.nodes[0]->persistsInFlight(), 1u);
    EXPECT_EQ(h.nodes[1]->persistsInFlight(), 0u);
    EXPECT_EQ(h.nodes[0]->persistedVersion(21).number, 0u);

    for (auto &n : h.nodes)
        n->crashVolatile();
    // The crash retires every in-flight record; the lost persists'
    // completions (old epoch) must not resurrect one.
    for (auto &n : h.nodes)
        EXPECT_EQ(n->persistsInFlight(), 0u);
    h.drain();
    for (auto &n : h.nodes) {
        EXPECT_EQ(n->persistsInFlight(), 0u);
        EXPECT_EQ(n->persistedVersion(21).number, 0u);
    }

    // After the restart the key persists normally again.
    OpResult w = h.writeAndWait(0, 21);
    h.drain();
    for (auto &n : h.nodes) {
        EXPECT_EQ(n->persistedVersion(21), w.version);
        EXPECT_EQ(n->visibleVersion(21), w.version);
        EXPECT_EQ(n->persistsInFlight(), 0u);
    }
}

namespace {

/**
 * Driver-injected INVs of one key, opIds 101..103, that reach node 0
 * at one tick: under <Linearizable, Strict> each one obliges node 0 to
 * persist it and then ACK its opId to the driver. Returns the opIds of
 * the ACKs the driver received, in arrival order.
 */
std::vector<std::uint64_t>
injectBurstAndCollectAcks(Harness &h, bool crash_mid_persist)
{
    NodeId drv = h.driverId();
    for (std::uint64_t i = 1; i <= 3; ++i) {
        Message inv;
        inv.type = MsgType::Inv;
        inv.src = drv;
        inv.dst = 0;
        inv.key = 9;
        inv.version = Version{i, drv};
        inv.opId = 100 + i;
        inv.hasData = true;
        h.fabric->send(inv);
    }
    if (crash_mid_persist) {
        while (h.ctr.get("persists_issued") == 0 && h.eq.step()) {
        }
        h.nodes[0]->crashVolatile();
    }
    h.drain();
    std::vector<std::uint64_t> acks;
    for (const Message &m : h.driverInbox) {
        if (m.type == MsgType::Ack)
            acks.push_back(m.opId);
    }
    return acks;
}

} // namespace

TEST(PersistObligations, FireFifoAcrossCoalescedFollowUpWrite)
{
    Harness h({Consistency::Linearizable, Persistency::Strict}, 3,
              /*with_driver=*/true);
    std::vector<std::uint64_t> acks = injectBurstAndCollectAcks(h, false);
    // The first INV's persist was in flight when the other two arrived:
    // they coalesced into one follow-up write, whose two obligations
    // still fire in issue order.
    EXPECT_EQ(h.ctr.get("persists_issued"), 2u);
    EXPECT_EQ(h.ctr.get("persists_coalesced"), 2u);
    EXPECT_EQ(acks, (std::vector<std::uint64_t>{101, 102, 103}));
    EXPECT_EQ(h.nodes[0]->persistedVersion(9).number, 3u);
    EXPECT_EQ(h.nodes[0]->persistsInFlight(), 0u);
}

TEST(PersistObligations, NoneFiresAfterACrashClearsThem)
{
    Harness h({Consistency::Linearizable, Persistency::Strict}, 3,
              /*with_driver=*/true);
    std::vector<std::uint64_t> acks = injectBurstAndCollectAcks(h, true);
    EXPECT_TRUE(acks.empty());
    EXPECT_EQ(h.nodes[0]->persistsInFlight(), 0u);
    EXPECT_EQ(h.nodes[0]->persistedVersion(9).number, 0u);
}

TEST(PersistObligations, UncoalescedPersistsFireEveryObligation)
{
    Harness h({Consistency::Linearizable, Persistency::Strict}, 3,
              /*with_driver=*/true, /*persist_coalescing=*/false);
    std::vector<std::uint64_t> acks = injectBurstAndCollectAcks(h, false);
    EXPECT_EQ(h.ctr.get("persists_issued"), 3u);
    EXPECT_EQ(h.ctr.get("persists_coalesced"), 0u);
    std::sort(acks.begin(), acks.end());
    EXPECT_EQ(acks, (std::vector<std::uint64_t>{101, 102, 103}));
    EXPECT_EQ(h.nodes[0]->persistedVersion(9).number, 3u);
}

TEST(Crash, EpochIncrements)
{
    Harness h({Consistency::Causal, Persistency::Synchronous});
    EXPECT_EQ(h.nodes[0]->epoch(), 0u);
    h.nodes[0]->crashVolatile();
    EXPECT_EQ(h.nodes[0]->epoch(), 1u);
}

TEST(Crash, InstallRecoveredSetsBothViews)
{
    Harness h({Consistency::Causal, Persistency::Synchronous});
    Version v{9, 2};
    h.nodes[0]->installRecovered(33, v);
    EXPECT_EQ(h.nodes[0]->visibleVersion(33), v);
    EXPECT_EQ(h.nodes[0]->persistedVersion(33), v);
}

TEST(Crash, AbortInFlightKeepsVolatileData)
{
    Harness h({Consistency::Causal, Persistency::Eventual});
    OpResult w = h.writeAndWait(0, 18);
    h.drain();
    h.nodes[0]->abortInFlight();
    // Volatile value survives; only protocol state was dropped.
    EXPECT_EQ(h.nodes[0]->visibleVersion(18), w.version);
}

// --------------------------------------------------------------------------
// Traffic accounting
// --------------------------------------------------------------------------

TEST(Traffic, LinearizableWriteUsesInvAckVal)
{
    Harness h({Consistency::Linearizable, Persistency::Synchronous});
    h.writeAndWait(0, 1);
    h.drain();
    // 3 nodes: 2 INV + 2 ACK + 2 VAL = 6 messages.
    EXPECT_EQ(h.fabric->totalMessages(), 6u);
}

TEST(Traffic, ReadEnforcedPersistencyDoublesAcks)
{
    Harness h({Consistency::Linearizable, Persistency::ReadEnforced});
    h.writeAndWait(0, 1);
    h.drain();
    // 2 INV + 2 ACK_c + 2 ACK_p + 2 VAL_c + 2 VAL_p = 10.
    EXPECT_EQ(h.fabric->totalMessages(), 10u);
}

TEST(Traffic, CausalWriteSendsOnlyUpds)
{
    Harness h({Consistency::Causal, Persistency::Synchronous});
    h.writeAndWait(0, 1);
    h.drain();
    EXPECT_EQ(h.fabric->totalMessages(), 2u); // 2 UPDs
}

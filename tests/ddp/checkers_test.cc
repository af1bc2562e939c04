/**
 * @file
 * Unit tests for the property checkers.
 */

#include <gtest/gtest.h>

#include "ddp/checkers.hh"

using namespace ddp::core;
namespace net = ddp::net;
using ddp::net::Version;

TEST(PropertyChecker, MonotonicPerReplicaOk)
{
    PropertyChecker c;
    c.onRead(0, 1, Version{1, 0}, 10, 20);
    c.onRead(0, 1, Version{1, 0}, 30, 40); // same version ok
    c.onRead(0, 1, Version{2, 0}, 50, 60); // newer ok
    EXPECT_EQ(c.monotonicViolations(), 0u);
    EXPECT_EQ(c.readsObserved(), 3u);
}

TEST(PropertyChecker, MonotonicViolationDetected)
{
    PropertyChecker c;
    c.onRead(0, 1, Version{5, 0}, 10, 20);
    c.onRead(0, 1, Version{3, 0}, 30, 40);
    EXPECT_EQ(c.monotonicViolations(), 1u);
}

TEST(PropertyChecker, MonotonicTrackedPerReplica)
{
    PropertyChecker c;
    c.onRead(0, 1, Version{5, 0}, 10, 20);
    // A different node serving an older replica is not a per-replica
    // regression.
    c.onRead(1, 1, Version{3, 0}, 30, 40);
    EXPECT_EQ(c.monotonicViolations(), 0u);
}

TEST(PropertyChecker, MonotonicTrackedPerKeyAcrossNodesAndPages)
{
    PropertyChecker c;
    // Keys far apart and nodes first seen out of order each keep their
    // own last version, writer ids included.
    const net::KeyId keys[] = {0, 1023, 1024, 70000};
    for (net::KeyId k : keys)
        c.onRead(7, k, Version{10, 2}, 10, 20);
    c.onRead(2, 70000, Version{1, 0}, 30, 40); // another node: fine
    c.onRead(7, 1024, Version{10, 2}, 50, 60); // same version: fine
    c.onRead(7, 1023, Version{11, 0}, 50, 60); // newer: fine
    EXPECT_EQ(c.monotonicViolations(), 0u);
    c.onRead(7, 0, Version{10, 1}, 70, 80);     // lower writer: older
    c.onRead(7, 70000, Version{9, 4}, 70, 80);  // lower number: older
    c.onRead(7, 1023, Version{10, 2}, 70, 80);  // below the 11 read
    EXPECT_EQ(c.monotonicViolations(), 3u);
    c.resetObservations();
    c.onRead(7, 1023, Version{1, 0}, 90, 100); // state forgotten
    EXPECT_EQ(c.monotonicViolations(), 3u);
}

TEST(PropertyChecker, StaleReadDetected)
{
    PropertyChecker c;
    c.onWriteComplete(1, Version{7, 0}, 100);
    // Read issued after the write completed but returning older data.
    c.onRead(0, 1, Version{6, 0}, 200, 210);
    EXPECT_EQ(c.staleReads(), 1u);
}

TEST(PropertyChecker, ConcurrentReadNotStale)
{
    PropertyChecker c;
    c.onWriteComplete(1, Version{7, 0}, 100);
    // Read issued before the write completed: old data is fine.
    c.onRead(0, 1, Version{6, 0}, 50, 210);
    EXPECT_EQ(c.staleReads(), 0u);
}

TEST(PropertyChecker, FreshReadNotStale)
{
    PropertyChecker c;
    c.onWriteComplete(1, Version{7, 0}, 100);
    c.onRead(0, 1, Version{7, 0}, 200, 210);
    c.onRead(0, 1, Version{8, 1}, 300, 310); // even newer
    EXPECT_EQ(c.staleReads(), 0u);
}

TEST(PropertyChecker, AuditCountsLostKeys)
{
    PropertyChecker c;
    c.onWriteComplete(1, Version{3, 0}, 100);
    c.onWriteComplete(2, Version{5, 0}, 100);
    c.onWriteComplete(3, Version{9, 0}, 100);
    auto recovered = [](net::KeyId key) {
        // Key 1 fully recovered; key 2 lost entirely; key 3 partially.
        switch (key) {
          case 1: return Version{3, 0};
          case 2: return Version{0, 0};
          default: return Version{8, 0};
        }
    };
    EXPECT_EQ(c.auditLostWrites(recovered), 2u);
}

TEST(PropertyChecker, WriteCompletionKeepsNewest)
{
    PropertyChecker c;
    c.onWriteComplete(1, Version{5, 0}, 100);
    c.onWriteComplete(1, Version{3, 0}, 150); // older write, later ack
    c.onRead(0, 1, Version{5, 0}, 200, 210);
    EXPECT_EQ(c.staleReads(), 0u);
    EXPECT_EQ(c.writesObserved(), 2u);
}

TEST(PropertyChecker, ResetObservationsKeepsCounters)
{
    PropertyChecker c;
    c.onRead(0, 1, Version{5, 0}, 10, 20);
    c.onRead(0, 1, Version{3, 0}, 30, 40);
    c.resetObservations();
    // Violation counters survive; observation state does not.
    EXPECT_EQ(c.monotonicViolations(), 1u);
    c.onRead(0, 1, Version{1, 0}, 50, 60); // no prior state now
    EXPECT_EQ(c.monotonicViolations(), 1u);
}

TEST(PropertyChecker, ClearResetsEverything)
{
    PropertyChecker c;
    c.onRead(0, 1, Version{5, 0}, 10, 20);
    c.onRead(0, 1, Version{3, 0}, 30, 40);
    c.clear();
    EXPECT_EQ(c.monotonicViolations(), 0u);
    EXPECT_EQ(c.readsObserved(), 0u);
}

// --------------------------------------------------------------------------
// Multi-crash-epoch durability audits and the torn-value taxonomy
// --------------------------------------------------------------------------

namespace {

/** A recovered-version map with a default for unlisted keys. */
std::function<Version(net::KeyId)>
recoveredMap(std::map<net::KeyId, Version> m, Version dflt = Version{})
{
    return [m = std::move(m), dflt](net::KeyId k) {
        auto it = m.find(k);
        return it == m.end() ? dflt : it->second;
    };
}

constexpr DdpModel kStrict{Consistency::Linearizable,
                           Persistency::Strict};
constexpr DdpModel kWeak{Consistency::Eventual, Persistency::Eventual};

} // namespace

TEST(PropertyChecker, AuditCountsWholeLostSuffixPerKey)
{
    PropertyChecker c;
    c.onWriteComplete(1, Version{3, 0}, 10);
    c.onWriteComplete(1, Version{5, 0}, 20);
    c.onWriteComplete(1, Version{8, 0}, 30);

    // Recovery kept only v3: v5 and v8 are both lost, but key 1 counts
    // once as a lost key.
    auto a = c.auditDurability(kWeak, recoveredMap({{1, Version{3, 0}}}));
    EXPECT_EQ(a.lostAckedWrites, 2u);
    EXPECT_EQ(a.lostAckedKeys, 1u);
    EXPECT_FALSE(a.zeroLossRequired);
    EXPECT_FALSE(a.violation());
    EXPECT_EQ(c.crashEpochs(), 1u);
}

TEST(PropertyChecker, AuditZeroLossBindingFlagsViolation)
{
    PropertyChecker c;
    c.onWriteComplete(4, Version{2, 0}, 10);
    auto a = c.auditDurability(kStrict, recoveredMap({}));
    EXPECT_TRUE(a.zeroLossRequired);
    EXPECT_EQ(a.lostAckedWrites, 1u);
    EXPECT_TRUE(a.violation());
}

TEST(PropertyChecker, SecondEpochJudgesOnlySurvivingWrites)
{
    PropertyChecker c;
    c.onWriteComplete(1, Version{3, 0}, 10);
    c.onWriteComplete(1, Version{5, 0}, 20);

    // Epoch 1 loses v5; it is pruned from the alive history.
    auto e1 = c.auditDurability(kWeak, recoveredMap({{1, Version{3, 0}}}));
    EXPECT_EQ(e1.lostAckedWrites, 1u);

    // Epoch 2 recovers to the same v3: nothing newly lost — v5 must
    // not be double-counted.
    auto e2 = c.auditDurability(kWeak, recoveredMap({{1, Version{3, 0}}}));
    EXPECT_EQ(e2.lostAckedWrites, 0u);
    EXPECT_EQ(e2.lostAckedKeys, 0u);
    EXPECT_EQ(c.crashEpochs(), 2u);

    // A write acked between the epochs is judged fresh in epoch 3.
    c.onWriteComplete(1, Version{7, 0}, 30);
    auto e3 = c.auditDurability(kWeak, recoveredMap({{1, Version{3, 0}}}));
    EXPECT_EQ(e3.lostAckedWrites, 1u);
    EXPECT_EQ(e3.lostAckedKeys, 1u);
    EXPECT_EQ(c.crashEpochs(), 3u);
}

TEST(PropertyChecker, SecondEpochCanLoseWritesTheFirstKept)
{
    PropertyChecker c;
    c.onWriteComplete(2, Version{4, 0}, 10);
    c.onWriteComplete(2, Version{6, 0}, 20);

    // Epoch 1 keeps everything.
    auto e1 = c.auditDurability(kWeak, recoveredMap({{2, Version{6, 0}}}));
    EXPECT_EQ(e1.lostAckedWrites, 0u);

    // Epoch 2 rolls the key back to v4: v6 — kept alive by epoch 1 —
    // is lost now.
    auto e2 = c.auditDurability(kWeak, recoveredMap({{2, Version{4, 0}}}));
    EXPECT_EQ(e2.lostAckedWrites, 1u);
    EXPECT_EQ(e2.lostAckedKeys, 1u);
}

TEST(PropertyChecker, TornServeIsDetectedAndViolatesAnyBinding)
{
    PropertyChecker c;
    // Recovery (ablation mode) installed a torn v9 as current.
    c.onTornInstall(0, 3, Version{9, 0});
    EXPECT_EQ(c.tornInstalls(), 1u);
    EXPECT_EQ(c.tornServed(), 0u);

    // Reads of other versions/keys are fine; serving the torn copy is
    // flagged even under the weakest binding.
    c.onRead(0, 3, Version{8, 0}, 10, 20);
    c.onRead(0, 4, Version{9, 0}, 30, 40);
    EXPECT_EQ(c.tornServed(), 0u);
    c.onRead(1, 3, Version{9, 0}, 50, 60);
    EXPECT_EQ(c.tornServed(), 1u);

    auto a = c.auditDurability(kWeak, recoveredMap({}));
    EXPECT_EQ(a.tornServed, 1u);
    EXPECT_TRUE(a.violation())
        << "a served torn value violates every model";
}

TEST(PropertyChecker, TornDetectionAloneIsNotAViolation)
{
    PropertyChecker c;
    c.onTornDetected(0, 3, Version{2, 0});
    EXPECT_EQ(c.tornDetected(), 1u);
    auto a = c.auditDurability(kStrict, recoveredMap({}));
    EXPECT_FALSE(a.violation())
        << "a detected-and-rolled-back tear is the defense working";
}

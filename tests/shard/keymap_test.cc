/**
 * @file
 * Unit tests for the shard subsystem's routing truth (ShardLayout)
 * and rebalancing policy (DataDistributor): initial partitioning,
 * point/range routing, split and move surgery, and the distributor's
 * split-then-migrate decision rules — all pure simulated state, no
 * cluster.
 */

#include <gtest/gtest.h>

#include "shard/distributor.hh"
#include "shard/keymap.hh"
#include "sim/event_queue.hh"
#include "stats/counter.hh"

using namespace ddp;
using shard::DataDistributor;
using shard::Range;
using shard::RangeSlice;
using shard::ShardLayout;
using shard::TeamId;

// --------------------------------------------------------------------------
// ShardLayout
// --------------------------------------------------------------------------

namespace {

/** Contiguity + ownership sanity, asserted after every mutation. */
void
expectWellFormed(const ShardLayout &l)
{
    ASSERT_GT(l.numRanges(), 0u);
    EXPECT_EQ(l.range(0).lo, 0u);
    EXPECT_EQ(l.range(l.numRanges() - 1).hi, l.keyCount());
    for (std::size_t i = 0; i + 1 < l.numRanges(); ++i)
        EXPECT_EQ(l.range(i).hi, l.range(i + 1).lo) << "gap at " << i;
    for (std::size_t i = 0; i < l.numRanges(); ++i) {
        EXPECT_LT(l.range(i).lo, l.range(i).hi);
        EXPECT_LT(l.range(i).team, l.numTeams());
    }
}

} // namespace

TEST(ShardLayout, InitialSplitsAreEvenAndDeterministic)
{
    ShardLayout l = ShardLayout::makeInitial(1000, 4);
    expectWellFormed(l);
    EXPECT_EQ(l.numRanges(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(l.range(i).width(), 250u);
        EXPECT_EQ(l.range(i).team, i);
    }
}

TEST(ShardLayout, InitialRemainderWidensLeadingRanges)
{
    // 10 keys over 3 teams: widths 4, 3, 3.
    ShardLayout l = ShardLayout::makeInitial(10, 3);
    expectWellFormed(l);
    EXPECT_EQ(l.range(0).width(), 4u);
    EXPECT_EQ(l.range(1).width(), 3u);
    EXPECT_EQ(l.range(2).width(), 3u);
}

TEST(ShardLayout, PointRoutingMatchesRangeBounds)
{
    ShardLayout l = ShardLayout::makeInitial(1003, 7);
    expectWellFormed(l);
    for (net::KeyId k = 0; k < 1003; ++k) {
        std::size_t idx = l.rangeOf(k);
        EXPECT_TRUE(l.range(idx).contains(k)) << "key " << k;
        EXPECT_EQ(l.teamFor(k), l.range(idx).team);
    }
}

TEST(ShardLayout, OverlappingClampsToTheWindow)
{
    ShardLayout l = ShardLayout::makeInitial(100, 4); // 25 keys/range
    std::vector<RangeSlice> s;
    l.overlapping(20, 60, s);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].lo, 20u);
    EXPECT_EQ(s[0].hi, 25u);
    EXPECT_EQ(s[0].team, 0u);
    EXPECT_EQ(s[1].lo, 25u);
    EXPECT_EQ(s[1].hi, 50u);
    EXPECT_EQ(s[2].lo, 50u);
    EXPECT_EQ(s[2].hi, 60u);
    // Single-range window.
    l.overlapping(30, 31, s);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0].team, 1u);
    // Empty / out-of-bounds windows.
    l.overlapping(40, 40, s);
    EXPECT_TRUE(s.empty());
    l.overlapping(100, 120, s);
    EXPECT_TRUE(s.empty());
}

TEST(ShardLayout, SplitKeepsOwnershipAndContiguity)
{
    ShardLayout l = ShardLayout::makeInitial(100, 2);
    std::size_t upper = l.split(0, 17);
    EXPECT_EQ(upper, 1u);
    expectWellFormed(l);
    EXPECT_EQ(l.numRanges(), 3u);
    EXPECT_EQ(l.range(0).hi, 17u);
    EXPECT_EQ(l.range(1).lo, 17u);
    EXPECT_EQ(l.range(1).hi, 50u);
    EXPECT_EQ(l.range(0).team, l.range(1).team);
    // Routing still resolves every key to a containing range.
    for (net::KeyId k = 0; k < 100; ++k)
        EXPECT_TRUE(l.range(l.rangeOf(k)).contains(k));
}

TEST(ShardLayout, MoveRangeFlipsOwnership)
{
    ShardLayout l = ShardLayout::makeInitial(100, 2);
    EXPECT_EQ(l.rangesOwnedBy(0), 1u);
    EXPECT_EQ(l.rangesOwnedBy(1), 1u);
    l.moveRange(0, 1);
    expectWellFormed(l);
    EXPECT_EQ(l.rangesOwnedBy(0), 0u);
    EXPECT_EQ(l.rangesOwnedBy(1), 2u);
    for (net::KeyId k = 0; k < 100; ++k)
        EXPECT_EQ(l.teamFor(k), 1u);
}

// --------------------------------------------------------------------------
// DataDistributor
// --------------------------------------------------------------------------

namespace {

struct DistHarness
{
    ShardLayout layout;
    stats::CounterRegistry ctr;
    std::vector<std::pair<std::size_t, net::KeyId>> splitCalls;
    std::vector<std::pair<std::size_t, TeamId>> migrateCalls;
    std::vector<bool> healthy;
    bool migrating = false;
    DataDistributor dist;

    DistHarness(std::uint64_t keys, std::uint32_t teams,
                DataDistributor::Params p)
        : layout(ShardLayout::makeInitial(keys, teams)),
          healthy(teams, true),
          dist(layout, ctr, p,
               {[this](TeamId t) { return healthy[t]; },
                [this] { return migrating; },
                [this](std::size_t idx, net::KeyId mid) {
                    splitCalls.emplace_back(idx, mid);
                    layout.split(idx, mid);
                },
                [this](std::size_t idx, TeamId dst) {
                    migrateCalls.emplace_back(idx, dst);
                    layout.moveRange(idx, dst);
                }})
    {
    }

    void
    load(net::KeyId key, std::uint64_t ops)
    {
        for (std::uint64_t i = 0; i < ops; ++i)
            dist.noteOp(key);
    }
};

} // namespace

TEST(DataDistributor, SplitsTheHottestRangeAtItsMidpoint)
{
    DataDistributor::Params p;
    p.splitThreshold = 100;
    DistHarness h(400, 4, p); // ranges of 100, team i owns range i
    h.load(10, 150);          // range 0 hot
    h.load(250, 120);         // range 2 warm but over threshold too
    h.dist.tick();
    // One split per round, hottest wins: range 0 cut at 50.
    ASSERT_EQ(h.splitCalls.size(), 1u);
    EXPECT_EQ(h.splitCalls[0].first, 0u);
    EXPECT_EQ(h.splitCalls[0].second, 50u);
    EXPECT_EQ(h.dist.splits(), 1u);
    EXPECT_EQ(h.ctr.get("shard_splits"), 1u);
    // Load resets between rounds: an idle round decides nothing.
    h.dist.tick();
    EXPECT_EQ(h.splitCalls.size(), 1u);
}

TEST(DataDistributor, BelowThresholdOrWidthOneNeverSplits)
{
    DataDistributor::Params p;
    p.splitThreshold = 100;
    DistHarness h(4, 2, p); // ranges of width 2
    h.load(0, 99);
    h.dist.tick();
    EXPECT_TRUE(h.splitCalls.empty());
    // Shrink range 0 to width 1, overload it: still no split.
    h.layout.split(0, 1);
    h.load(0, 500);
    h.dist.tick();
    ASSERT_EQ(h.splitCalls.size(), 0u);
}

TEST(DataDistributor, MigratesHotRangeToColdestHealthyTeam)
{
    DataDistributor::Params p;
    p.teamMaxOps = 100;
    DistHarness h(400, 4, p);
    h.load(10, 500);  // team 0 overloaded via range 0
    h.load(150, 20);  // team 1 warm
    h.dist.tick();
    // Team 0's hottest range moves to the least-loaded team (2 or 3
    // are both idle; the tie breaks deterministically to team 2).
    ASSERT_EQ(h.migrateCalls.size(), 1u);
    EXPECT_EQ(h.migrateCalls[0].first, 0u);
    EXPECT_EQ(h.migrateCalls[0].second, 2u);
    EXPECT_EQ(h.dist.migrations(), 1u);
    EXPECT_EQ(h.ctr.get("shard_migrations"), 1u);
}

TEST(DataDistributor, UnhealthyTeamsNeitherSourceNorReceive)
{
    DataDistributor::Params p;
    p.teamMaxOps = 100;
    DistHarness h(400, 4, p);
    h.healthy[2] = false;
    h.healthy[3] = false;
    h.load(10, 500); // team 0 overloaded
    h.load(150, 20); // team 1 the only healthy candidate
    h.dist.tick();
    ASSERT_EQ(h.migrateCalls.size(), 1u);
    EXPECT_EQ(h.migrateCalls[0].second, 1u);
    // Source unhealthy: nothing moves even under overload.
    h.healthy[1] = true;
    h.healthy[0] = false;
    h.load(20, 500);
    h.dist.tick();
    EXPECT_EQ(h.migrateCalls.size(), 1u);
}

TEST(DataDistributor, OneMigrationInFlightBlocksTheNext)
{
    DataDistributor::Params p;
    p.teamMaxOps = 100;
    DistHarness h(400, 4, p);
    h.migrating = true;
    h.load(10, 500);
    h.dist.tick();
    EXPECT_TRUE(h.migrateCalls.empty());
    h.migrating = false;
    h.load(10, 500);
    h.dist.tick();
    EXPECT_EQ(h.migrateCalls.size(), 1u);
}

TEST(DataDistributor, SplitThenMigrateInOneRoundIsolatesTheHotKey)
{
    // Both knobs armed: the round first cuts the hot range, then sheds
    // load; over rounds a single hot key ends up isolated in a narrow
    // range that can move alone.
    DataDistributor::Params p;
    p.splitThreshold = 50;
    p.teamMaxOps = 200;
    DistHarness h(400, 4, p);
    for (int round = 0; round < 8; ++round) {
        h.load(10, 300);
        h.dist.tick();
    }
    EXPECT_GE(h.dist.splits(), 1u);
    EXPECT_GE(h.dist.migrations(), 1u);
    // Key 10's range narrowed toward the hot key.
    std::size_t idx = h.layout.rangeOf(10);
    EXPECT_LT(h.layout.range(idx).width(), 100u);
    expectWellFormed(h.layout);
}

TEST(DataDistributor, PeriodicTimerTicksOnTheQueue)
{
    sim::EventQueue eq;
    DataDistributor::Params p;
    p.interval = 100; // ticks
    p.splitThreshold = 10;
    DistHarness h(100, 2, p);
    h.load(5, 50);
    h.dist.start(eq);
    while (eq.now() < 250 && eq.step()) {
    }
    EXPECT_EQ(h.dist.splits(), 1u);
}

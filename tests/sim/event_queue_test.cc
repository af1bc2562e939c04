/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sweep_runner.hh" // splitmix64

using namespace ddp::sim;

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(123, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 123u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleIn(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, ScheduleInUsesCurrentTime)
{
    EventQueue eq;
    Tick inner = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(50, [&] { inner = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(inner, 150u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2); // events at t<=20 run
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pendingEvents(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, ExecutedEventsCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 7u);
}

TEST(Timers, FireLikeEvents)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimerIn(100, [&] { ++fired; });
    EXPECT_NE(id, kNoTimer);
    EXPECT_TRUE(eq.timerPending(id));
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.timerPending(id));
}

TEST(Timers, CancelledTimerNeverFires)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimer(100, [&] { ++fired; });
    EXPECT_TRUE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.timerPending(id));
    EXPECT_EQ(eq.pendingEvents(), 0u);
    eq.run();
    EXPECT_EQ(fired, 0);
    // Cancelled entries are purged without advancing time.
    EXPECT_EQ(eq.now(), 0u);
}

TEST(Timers, CancelIsIdempotentAndRejectsUnknownIds)
{
    EventQueue eq;
    TimerId id = eq.scheduleTimer(100, [] {});
    EXPECT_TRUE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.cancelTimer(kNoTimer));
    EXPECT_FALSE(eq.cancelTimer(987654));
}

TEST(Timers, CancellingOneLeavesOthersTicking)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleTimer(10, [&] { order.push_back(1); });
    TimerId victim = eq.scheduleTimer(20, [&] { order.push_back(2); });
    eq.scheduleTimer(30, [&] { order.push_back(3); });
    eq.cancelTimer(victim);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Timers, FiredTimerCannotBeCancelled)
{
    EventQueue eq;
    TimerId id = eq.scheduleTimer(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancelTimer(id));
}

TEST(Timers, EventsAndTimersInterleaveFifoPerTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.scheduleTimer(10, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Timers, CancelFromInsideAnEarlierEvent)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimer(50, [&] { ++fired; });
    eq.schedule(20, [&] { eq.cancelTimer(id); });
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(Timers, RunUntilIgnoresCancelledHead)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimer(100, [&] { ++fired; });
    eq.schedule(300, [&] { ++fired; });
    eq.cancelTimer(id);
    eq.runUntil(200);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 200u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(Ticks, UnitConversions)
{
    EXPECT_EQ(kNanosecond, 1000u);
    EXPECT_EQ(kMicrosecond, 1000u * 1000u);
    EXPECT_DOUBLE_EQ(ticksToNs(1500), 1.5);
    EXPECT_DOUBLE_EQ(ticksToUs(2 * kMicrosecond), 2.0);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSecond), 1.0);
    // A 2 GHz core cycle is 500 ps.
    EXPECT_EQ(cyclePeriod(2'000'000'000ull), 500u);
}

TEST(Timers, StaleHandleAfterSlotReuseIsRejected)
{
    EventQueue eq;
    int fired = 0;
    TimerId a = eq.scheduleTimer(10, [&] { ++fired; });
    eq.run(); // a fires; its slot is recycled with a bumped generation
    TimerId b = eq.scheduleTimer(20, [&] { ++fired; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(eq.timerPending(a));
    EXPECT_FALSE(eq.cancelTimer(a)); // must not hit b's slot
    EXPECT_TRUE(eq.timerPending(b));
    eq.run();
    EXPECT_EQ(fired, 2);
}

namespace {

/** Self-driving churn: every tick schedules fresh timers and cancels a
 *  random pending one, exercising slot reuse and generation tags under
 *  thousands of cancel/reschedule cycles. */
struct TimerChurn
{
    explicit TimerChurn(EventQueue &q) : eq(q) {}

    void
    step()
    {
        if (++rounds > kRounds)
            return;
        for (int k = 0; k < 2; ++k) {
            ++scheduled;
            live.push_back(eq.scheduleTimerIn(
                1 + state() % 50, [this] { ++fired; }));
        }
        if (!live.empty() && state() % 2 == 0) {
            std::size_t j = state() % live.size();
            if (eq.cancelTimer(live[j]))
                ++cancelledOk;
            live.erase(live.begin() + j);
        }
        eq.scheduleIn(1, [this] { step(); });
    }

    /** Deterministic splitmix-driven choice stream. */
    std::uint64_t state() { return rngState = splitmix64(rngState); }

    static constexpr int kRounds = 3000;
    EventQueue &eq;
    std::vector<TimerId> live;
    std::uint64_t rngState = 0x1234;
    std::uint64_t scheduled = 0, cancelledOk = 0, fired = 0;
    int rounds = 0;
};

} // namespace

TEST(Timers, CancelRescheduleStress)
{
    EventQueue eq;
    TimerChurn churn(eq);
    eq.scheduleIn(0, [&churn] { churn.step(); });
    eq.run();
    EXPECT_EQ(churn.scheduled, 2u * TimerChurn::kRounds);
    // Every scheduled timer either fired or was successfully cancelled
    // while still pending — never both, never neither.
    EXPECT_EQ(churn.fired + churn.cancelledOk, churn.scheduled);
    EXPECT_GT(churn.cancelledOk, 0u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, RandomizedScheduleRunsInKeyOrder)
{
    // A deterministic splitmix schedule — clustered deadlines, same-tick
    // collisions, events scheduling events, cancellable timers — must
    // execute strictly in (when, schedule index) order, run every live
    // event exactly once, and never fire a cancelled timer. Schedule
    // index order is scheduling order, i.e. the FIFO tie-break.
    EventQueue eq;
    std::vector<std::pair<Tick, int>> key; // (when, index) per index
    std::vector<bool> cancelled;           // per schedule index
    std::vector<int> order;                // executed schedule indices
    auto record = [&](Tick when) {
        int idx = static_cast<int>(key.size());
        key.emplace_back(when, idx);
        cancelled.push_back(false);
        return [&order, idx] { order.push_back(idx); };
    };
    std::uint64_t rng = 0xddf0;
    for (int i = 0; i < 500; ++i) {
        rng = splitmix64(rng);
        Tick when = 1 + rng % 997;
        eq.schedule(when, record(when));
    }
    // Timers in the same window: the even ones are cancelled up front,
    // the odd ones from inside the second-wave event below (those that
    // already fired by then report false and stay live).
    std::vector<std::pair<TimerId, std::size_t>> timers;
    for (int i = 0; i < 20; ++i) {
        rng = splitmix64(rng);
        Tick when = 1 + rng % 997;
        std::size_t idx = key.size();
        TimerId t = eq.scheduleTimer(when, record(when));
        if (i % 2 == 0) {
            EXPECT_TRUE(eq.cancelTimer(t));
            cancelled[idx] = true;
        } else {
            timers.emplace_back(t, idx);
        }
    }
    // A second wave scheduled from inside an event, landing relative
    // to the running event's time (mid-run inserts behind events that
    // already fired).
    auto waveFired = record(500);
    eq.schedule(500, [&, waveFired] {
        waveFired();
        for (auto [t, idx] : timers)
            if (eq.cancelTimer(t))
                cancelled[idx] = true;
        for (int i = 0; i < 100; ++i) {
            rng = splitmix64(rng);
            Tick delay = 1 + rng % 800;
            eq.scheduleIn(delay, record(eq.now() + delay));
        }
    });
    eq.run();

    std::size_t live = 0;
    for (bool c : cancelled)
        live += c ? 0 : 1;
    ASSERT_EQ(order.size(), live); // complete, and nothing ran twice
    for (std::size_t i = 0; i < order.size(); ++i) {
        auto idx = static_cast<std::size_t>(order[i]);
        EXPECT_FALSE(cancelled[idx]) << "cancelled timer " << idx
                                     << " fired";
        if (i > 0) {
            EXPECT_LT(key[static_cast<std::size_t>(order[i - 1])],
                      key[idx])
                << "out of key order at position " << i;
        }
    }
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

// --------------------------------------------------------------------------
// Pinned scheduling + consumeIfNext: the doorbell-ring contract.
// --------------------------------------------------------------------------

TEST(PinnedSchedule, ReservedSeqKeepsFifoPosition)
{
    // Reserve a same-tick FIFO slot early, materialize it late: the
    // pinned event must still run in its reserved position.
    EventQueue eq;
    std::vector<int> order;
    std::uint64_t s = eq.allocSeq();
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedulePinned(10, s, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ConsumeIfNext, AcceptsWhenReservedKeyIsNext)
{
    EventQueue eq;
    bool accepted = false;
    std::uint64_t s = eq.allocSeq();
    eq.schedule(10, [&] {
        // Nothing else pending: the reserved (12, s) key is the front
        // of simulated time, so the caller may run it inline.
        accepted = eq.consumeIfNext(12, s);
        EXPECT_EQ(eq.now(), 12u);
    });
    eq.run();
    EXPECT_TRUE(accepted);
    // The consumed slot counts as an executed event (parity with the
    // unbatched schedule-then-pop path).
    EXPECT_EQ(eq.executedEvents(), 2u);
}

TEST(ConsumeIfNext, RefusesWhenAnotherEventIsEarlier)
{
    EventQueue eq;
    int laterFired = 0;
    eq.schedule(15, [&] { ++laterFired; });
    std::uint64_t s = eq.allocSeq();
    eq.schedule(10, [&] {
        // An event at 15 with an older seq beats both candidate keys.
        EXPECT_FALSE(eq.consumeIfNext(20, s));
        EXPECT_FALSE(eq.consumeIfNext(15, s));
        EXPECT_EQ(eq.now(), 10u);
        // ...but a strictly earlier candidate wins.
        EXPECT_TRUE(eq.consumeIfNext(14, s));
        EXPECT_EQ(eq.now(), 14u);
    });
    eq.run();
    EXPECT_EQ(laterFired, 1);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(ConsumeIfNext, RefusesBeyondRunUntilHorizon)
{
    // A drain loop must not swallow a message past the runUntil()
    // limit: the measurement window boundary has to preempt it just
    // as it preempts a scheduled event.
    EventQueue eq;
    std::uint64_t s = eq.allocSeq();
    bool consumed = true;
    eq.schedule(10, [&] { consumed = eq.consumeIfNext(12, s); });
    eq.runUntil(11);
    EXPECT_FALSE(consumed);
    EXPECT_EQ(eq.now(), 11u);
    EXPECT_EQ(eq.executedEvents(), 1u);
    // Outside runUntil() the same key is consumable again.
    eq.schedule(11, [&] { consumed = eq.consumeIfNext(12, s); });
    eq.run();
    EXPECT_TRUE(consumed);
}

TEST(ConsumeIfNext, CancelledHeadTimerDoesNotBlock)
{
    EventQueue eq;
    TimerId t = eq.scheduleTimer(12, [] { FAIL() << "cancelled"; });
    std::uint64_t s = eq.allocSeq();
    bool accepted = false;
    eq.schedule(10, [&] {
        eq.cancelTimer(t);
        // The cancelled timer at 12 never fires and never advances
        // time, so it must not veto a candidate behind it.
        accepted = eq.consumeIfNext(13, s);
    });
    eq.run();
    EXPECT_TRUE(accepted);
}

// --------------------------------------------------------------------------
// Reference-model property: the heap pops in std::set<(when, seq)> order.
// --------------------------------------------------------------------------

namespace {

/**
 * Drives an EventQueue with seeded random operations and mirrors every
 * pending, uncancelled event in a std::set of (when, seq) keys. The
 * queue's sequence counter is mirrored too: schedule(), scheduleTimer()
 * and allocSeq() each take the next number.
 */
struct QueueModel
{
    using Key = std::pair<Tick, std::uint64_t>;
    static constexpr int kOps = 100000;

    EventQueue eq;
    std::set<Key> pending;
    std::vector<Key> reserved; ///< allocSeq()'d, not yet materialized
    std::vector<std::pair<TimerId, Key>> timers;
    std::uint64_t seq = 0;
    std::uint64_t rng = 0x4a11;
    int ops = 0;
    bool inEvent = false;
    std::uint64_t fired = 0;
    std::uint64_t outOfOrder = 0;
    std::uint64_t consumed = 0;
    std::uint64_t consumeRefused = 0;

    std::uint64_t
    draw()
    {
        rng = splitmix64(rng);
        return rng;
    }

    EventFn
    firing(Key k)
    {
        return [this, k] { fire(k); };
    }

    void
    fire(Key k)
    {
        // Whatever the heap pops must be the reference minimum.
        if (pending.empty() || *pending.begin() != k)
            ++outOfOrder;
        pending.erase(k);
        ++fired;
        inEvent = true;
        for (int n = 1 + static_cast<int>(draw() % 3); n > 0 && ops < kOps;
             --n)
            randomOp();
        inEvent = false;
    }

    void
    randomOp()
    {
        ++ops;
        // Short horizons make many same-tick ties.
        Tick when = eq.now() + draw() % 48;
        switch (draw() % 6) {
          case 0:
          case 1: {
            Key k{when, seq++};
            pending.insert(k);
            eq.schedule(when, firing(k));
            break;
          }
          case 2: {
            Key k{when, seq++};
            pending.insert(k);
            timers.emplace_back(eq.scheduleTimer(when, firing(k)), k);
            break;
          }
          case 3: {
            if (timers.empty())
                break;
            std::size_t i = draw() % timers.size();
            auto [id, k] = timers[i];
            timers[i] = timers.back();
            timers.pop_back();
            // False once the timer fired; its key already left the set.
            if (eq.cancelTimer(id))
                pending.erase(k);
            break;
          }
          case 4: {
            std::uint64_t s = eq.allocSeq();
            EXPECT_EQ(s, seq);
            ++seq;
            reserved.emplace_back(when, s);
            break;
          }
          case 5: {
            if (reserved.empty())
                break;
            std::size_t i = draw() % reserved.size();
            Key k = reserved[i];
            reserved[i] = reserved.back();
            reserved.pop_back();
            if (k.first < eq.now())
                break; // time moved past the reservation: abandon it
            if (!inEvent || draw() % 2 == 0) {
                pending.insert(k);
                eq.schedulePinned(k.first, k.second, firing(k));
                break;
            }
            bool next = pending.empty() || k < *pending.begin();
            bool took = eq.consumeIfNext(k.first, k.second);
            EXPECT_EQ(took, next);
            if (took) {
                ++consumed;
                EXPECT_EQ(eq.now(), k.first);
            } else {
                ++consumeRefused;
                reserved.push_back(k);
            }
            break;
          }
        }
    }
};

} // namespace

TEST(EventQueue, RandomOperationsPopInReferenceSetOrder)
{
    QueueModel m;
    while (m.ops < QueueModel::kOps) {
        if (!m.eq.step())
            m.randomOp();
    }
    m.eq.run();
    EXPECT_EQ(m.ops, QueueModel::kOps);
    EXPECT_EQ(m.outOfOrder, 0u);
    EXPECT_TRUE(m.pending.empty());
    EXPECT_EQ(m.eq.pendingEvents(), 0u);
    // Every operation kind ran; consumeIfNext both took and refused.
    EXPECT_GT(m.fired, 10000u);
    EXPECT_GT(m.consumed, 0u);
    EXPECT_GT(m.consumeRefused, 0u);
}

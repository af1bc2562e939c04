/**
 * @file
 * Unit tests for the log-linear histogram, counters, and table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/random.hh"
#include "stats/counter.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"

using namespace ddp::stats;

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, ExactMean)
{
    Histogram h;
    h.record(10);
    h.record(20);
    h.record(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 30u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, SmallValuesAreExact)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    // Values below the sub-bucket count land in exact buckets.
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(1.0), 63u);
}

TEST(Histogram, QuantileRelativeErrorBounded)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100000; ++v)
        h.record(v);
    // p50 should be ~50000 within the ~1.6% bucket resolution.
    double p50 = static_cast<double>(h.quantile(0.5));
    EXPECT_NEAR(p50, 50000.0, 50000.0 * 0.03);
    double p95 = static_cast<double>(h.p95());
    EXPECT_NEAR(p95, 95000.0, 95000.0 * 0.03);
    double p99 = static_cast<double>(h.p99());
    EXPECT_NEAR(p99, 99000.0, 99000.0 * 0.03);
}

TEST(Histogram, QuantileNeverLeavesObservedRange)
{
    // Property: for any sample set and any q, the log-bucket
    // representative must be clamped into [min, max]. A single sample
    // near a bucket's lower edge once reported a p95 above the largest
    // value ever recorded.
    ddp::sim::Pcg32 rng(77, 2);
    for (int trial = 0; trial < 50; ++trial) {
        Histogram h;
        int samples = 1 + static_cast<int>(rng.nextU64() % 40);
        for (int i = 0; i < samples; ++i) {
            // Mix magnitudes so sparse high buckets are common.
            std::uint64_t mag = 1ull << (rng.nextU64() % 40);
            h.record(rng.nextU64() % (mag + 1));
        }
        for (double q = 0.0; q <= 1.0; q += 0.01) {
            std::uint64_t v = h.quantile(q);
            ASSERT_GE(v, h.min()) << "trial " << trial << " q " << q;
            ASSERT_LE(v, h.max()) << "trial " << trial << " q " << q;
        }
    }
}

TEST(Histogram, SingleSampleAllQuantilesEqualIt)
{
    Histogram h;
    h.record(123457);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 123457u);
}

TEST(Histogram, QuantilesMonotonic)
{
    Histogram h;
    ddp::sim::Pcg32 rng(77, 1);
    for (int i = 0; i < 20000; ++i)
        h.record(rng.nextU64() % 1000000);
    std::uint64_t prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        std::uint64_t v = h.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(Histogram, HugeValuesDoNotOverflow)
{
    Histogram h;
    h.record(~std::uint64_t{0} / 2);
    h.record(1);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_GE(h.max(), ~std::uint64_t{0} / 2);
}

TEST(Histogram, MergeCombines)
{
    Histogram a, b;
    a.record(10);
    b.record(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_EQ(a.max(), 1000u);
    EXPECT_DOUBLE_EQ(a.mean(), 505.0);
}

TEST(Histogram, ClearResets)
{
    Histogram h;
    h.record(5);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    h.record(7);
    EXPECT_EQ(h.min(), 7u);
}

TEST(CounterRegistry, AddAndGet)
{
    CounterRegistry c;
    EXPECT_EQ(c.get("x"), 0u);
    c.add("x");
    c.add("x", 4);
    EXPECT_EQ(c.get("x"), 5u);
}

TEST(CounterRegistry, DiffAgainstSnapshot)
{
    CounterRegistry c;
    c.add("a", 10);
    auto snap = c.snapshot();
    c.add("a", 5);
    c.add("b", 3);
    auto d = c.diff(snap);
    EXPECT_EQ(d["a"], 5u);
    EXPECT_EQ(d["b"], 3u);
}

TEST(CounterRegistry, UntouchedHandleLeavesNoKey)
{
    // A handle creates its entry on first add(), so binding handles
    // up front cannot change the counter set a run reports.
    CounterRegistry c;
    auto before = c.snapshot();
    CounterRegistry::Counter idle = c.counter("idle_handle");
    CounterRegistry::Counter busy = c.counter("busy_handle");
    busy.add(3);
    busy.add();
    EXPECT_EQ(c.snapshot().count("idle_handle"), 0u);
    EXPECT_EQ(c.get("busy_handle"), 4u);
    auto d = c.diff(before);
    EXPECT_EQ(d.count("idle_handle"), 0u);
    EXPECT_EQ(d.at("busy_handle"), 4u);
    // Name-based adds and the handle share one slot.
    c.add("busy_handle", 2);
    busy.add();
    EXPECT_EQ(c.get("busy_handle"), 7u);
    EXPECT_EQ(c.snapshot().size(), 1u);
    (void)idle;
}

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "2"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

#include "stats/timeseries.hh"

using ddp::sim::kMicrosecond;

TEST(RateSeries, BucketsEventsByInterval)
{
    RateSeries s(10 * kMicrosecond);
    s.record(1 * kMicrosecond);
    s.record(9 * kMicrosecond);
    s.record(15 * kMicrosecond);
    EXPECT_EQ(s.buckets(), 2u);
    EXPECT_EQ(s.countAt(0), 2u);
    EXPECT_EQ(s.countAt(1), 1u);
    EXPECT_EQ(s.countAt(5), 0u);
    EXPECT_EQ(s.totalEvents(), 3u);
}

TEST(RateSeries, RateConvertsToPerSecond)
{
    RateSeries s(kMicrosecond);
    for (int i = 0; i < 100; ++i)
        s.record(500); // all within bucket 0 (1 us wide)
    // 100 events / 1 us = 100 M/s.
    EXPECT_DOUBLE_EQ(s.rateAt(0), 100e6);
}

TEST(RateSeries, RecordNAndBucketStart)
{
    RateSeries s(10 * kMicrosecond);
    s.recordN(25 * kMicrosecond, 7);
    EXPECT_EQ(s.countAt(2), 7u);
    EXPECT_EQ(s.bucketStart(2), 20 * kMicrosecond);
}

TEST(RateSeries, MinBucketFindsDip)
{
    RateSeries s(kMicrosecond);
    for (int b = 0; b < 10; ++b) {
        int events = (b == 6) ? 2 : 50;
        for (int i = 0; i < events; ++i)
            s.record(static_cast<ddp::sim::Tick>(b) * kMicrosecond);
    }
    EXPECT_EQ(s.minBucket(0, 10), 6u);
}

TEST(RateSeries, ClearResets)
{
    RateSeries s(kMicrosecond);
    s.record(0);
    s.closeAt(kMicrosecond / 2);
    s.clear();
    EXPECT_EQ(s.buckets(), 0u);
    EXPECT_EQ(s.totalEvents(), 0u);
    // closeAt state is cleared too: a fresh record divides by the full
    // bucket width again.
    s.record(0);
    EXPECT_DOUBLE_EQ(s.rateAt(0), 1e6);
}

// Regression: a run whose length is not a bucket multiple used to
// divide the trailing partial bucket's count by the full bucketWidth,
// understating tail throughput (and with it the recovery-SLO crossing).
TEST(RateSeries, TrailingPartialBucketNormalizedByCoveredSpan)
{
    // 10 us buckets, run ends at 25 us: bucket 2 covers only 5 us.
    RateSeries s(10 * kMicrosecond);
    for (int i = 0; i < 100; ++i)
        s.record(3 * kMicrosecond); // bucket 0, full width
    for (int i = 0; i < 50; ++i)
        s.record(22 * kMicrosecond); // bucket 2, half covered
    s.extendTo(25 * kMicrosecond - 1);
    s.closeAt(25 * kMicrosecond);
    // Interior bucket: 100 events / 10 us = 10 M/s.
    EXPECT_DOUBLE_EQ(s.rateAt(0), 10e6);
    EXPECT_DOUBLE_EQ(s.rateAt(1), 0.0);
    // Trailing bucket: 50 events over the 5 us actually covered =
    // 10 M/s, the same steady rate — not 5 M/s as the unfixed
    // full-width divisor reported.
    EXPECT_DOUBLE_EQ(s.rateAt(2), 10e6);
}

TEST(RateSeries, RateBeyondClosedEndIsZero)
{
    RateSeries s(10 * kMicrosecond);
    s.record(kMicrosecond);
    s.closeAt(10 * kMicrosecond); // exactly one full bucket
    EXPECT_DOUBLE_EQ(s.rateAt(0), 0.1e6);
    // Buckets starting at or past the end cover nothing.
    EXPECT_DOUBLE_EQ(s.rateAt(1), 0.0);
    EXPECT_DOUBLE_EQ(s.rateAt(7), 0.0);
}

// Regression: minBucket(first, last) used to return `first` unchecked
// when the range missed the recorded buckets entirely, handing callers
// an out-of-range index.
TEST(RateSeries, MinBucketEmptyAndOutOfRange)
{
    RateSeries empty(kMicrosecond);
    EXPECT_EQ(empty.minBucket(0, 10), RateSeries::npos);

    RateSeries s(kMicrosecond);
    for (int b = 0; b < 4; ++b)
        s.record(static_cast<ddp::sim::Tick>(b) * kMicrosecond);
    EXPECT_EQ(s.minBucket(4, 10), RateSeries::npos);  // past the end
    EXPECT_EQ(s.minBucket(9, 20), RateSeries::npos);  // far past
    EXPECT_EQ(s.minBucket(2, 2), RateSeries::npos);   // empty range
    EXPECT_EQ(s.minBucket(3, 1), RateSeries::npos);   // inverted
    EXPECT_EQ(s.minBucket(2, 100), 2u); // clamped tail still works
}

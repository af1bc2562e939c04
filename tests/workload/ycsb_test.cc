/**
 * @file
 * Unit tests for the YCSB workload generator and trace replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "workload/trace.hh"
#include "workload/ycsb.hh"

using namespace ddp::workload;

namespace {

double
measuredReadFraction(const WorkloadSpec &spec, int n = 20000)
{
    OpGenerator gen(spec, 7, 1);
    int reads = 0;
    for (int i = 0; i < n; ++i) {
        if (gen.next().type == OpType::Read)
            ++reads;
    }
    return static_cast<double>(reads) / n;
}

} // namespace

TEST(Ycsb, WorkloadAMix)
{
    EXPECT_NEAR(measuredReadFraction(WorkloadSpec::ycsbA()), 0.50, 0.02);
}

TEST(Ycsb, WorkloadBMix)
{
    EXPECT_NEAR(measuredReadFraction(WorkloadSpec::ycsbB()), 0.95, 0.01);
}

TEST(Ycsb, WorkloadCIsReadOnly)
{
    EXPECT_DOUBLE_EQ(measuredReadFraction(WorkloadSpec::ycsbC()), 1.0);
}

TEST(Ycsb, WorkloadWIsWriteHeavy)
{
    EXPECT_NEAR(measuredReadFraction(WorkloadSpec::ycsbW()), 0.05, 0.01);
}

TEST(Ycsb, KeysWithinSpace)
{
    WorkloadSpec spec = WorkloadSpec::ycsbA(500);
    OpGenerator gen(spec, 7, 2);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(gen.next().key, 500u);
}

TEST(Ycsb, ZipfianSkewsTraffic)
{
    WorkloadSpec spec = WorkloadSpec::ycsbA(10000);
    OpGenerator gen(spec, 7, 3);
    int hot = 0;
    for (int i = 0; i < 50000; ++i) {
        if (gen.next().key == 0)
            ++hot;
    }
    // At theta 0.99 the top key draws several percent of traffic.
    EXPECT_GT(hot, 50000 * 3 / 100);
}

TEST(Ycsb, UniformSpreadsTraffic)
{
    WorkloadSpec spec = WorkloadSpec::ycsbA(10000);
    spec.distribution = KeyDistribution::Uniform;
    OpGenerator gen(spec, 7, 4);
    int hot = 0;
    for (int i = 0; i < 50000; ++i) {
        if (gen.next().key == 0)
            ++hot;
    }
    EXPECT_LT(hot, 30);
}

TEST(Ycsb, DeterministicPerSeedAndStream)
{
    WorkloadSpec spec = WorkloadSpec::ycsbA();
    OpGenerator a(spec, 11, 5), b(spec, 11, 5), c(spec, 11, 6);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        Op oa = a.next(), ob = b.next(), oc = c.next();
        ASSERT_EQ(oa, ob);
        if (!(oa == oc))
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(Trace, RecordCapturesOps)
{
    WorkloadSpec spec = WorkloadSpec::ycsbA(100);
    OpGenerator gen(spec, 3, 1);
    Trace t = Trace::record(gen, 500);
    EXPECT_EQ(t.size(), 500u);
    EXPECT_NEAR(t.writeFraction(), 0.5, 0.1);
}

TEST(Trace, SaveLoadRoundTrip)
{
    WorkloadSpec spec = WorkloadSpec::ycsbW(100);
    OpGenerator gen(spec, 4, 1);
    Trace t = Trace::record(gen, 200);
    std::stringstream ss;
    t.save(ss);
    Trace loaded;
    ASSERT_TRUE(Trace::load(ss, loaded));
    EXPECT_EQ(t, loaded);
}

TEST(Trace, LoadRejectsGarbage)
{
    std::stringstream ss("R 1\nX 2\n");
    Trace t;
    EXPECT_FALSE(Trace::load(ss, t));
}

TEST(Trace, CursorWrapsAround)
{
    Trace t;
    t.append({OpType::Read, 1});
    t.append({OpType::Write, 2});
    TraceCursor cur(t);
    EXPECT_EQ(cur.next().key, 1u);
    EXPECT_EQ(cur.next().key, 2u);
    EXPECT_EQ(cur.next().key, 1u); // wrapped
}

TEST(Trace, WriteFractionEmptyIsZero)
{
    Trace t;
    EXPECT_DOUBLE_EQ(t.writeFraction(), 0.0);
}

TEST(Ycsb, WorkloadDReadsFollowFrontier)
{
    WorkloadSpec spec = WorkloadSpec::ycsbD(10000);
    OpGenerator gen(spec, 9, 1);
    // Warm the frontier with some traffic.
    std::uint64_t last_write = 0;
    int near = 0, reads = 0;
    for (int i = 0; i < 50000; ++i) {
        Op op = gen.next();
        if (op.type == OpType::Write) {
            last_write = op.key;
        } else if (last_write > 1000) {
            ++reads;
            std::uint64_t gap = last_write >= op.key
                                    ? last_write - op.key
                                    : last_write + 10000 - op.key;
            if (gap < 100)
                ++near;
        }
    }
    ASSERT_GT(reads, 1000);
    // Most reads land within 100 keys of the newest insertion.
    EXPECT_GT(near, reads / 2);
}

TEST(Ycsb, WorkloadDMix)
{
    EXPECT_NEAR(measuredReadFraction(WorkloadSpec::ycsbD()), 0.95,
                0.01);
}

TEST(Ycsb, LatestKeysStayInRange)
{
    WorkloadSpec spec = WorkloadSpec::ycsbD(500);
    OpGenerator gen(spec, 9, 2);
    for (int i = 0; i < 20000; ++i)
        ASSERT_LT(gen.next().key, 500u);
}

// --- YCSB-E range scans -----------------------------------------------------

TEST(Ycsb, WorkloadEMixIsScanHeavy)
{
    WorkloadSpec spec = WorkloadSpec::ycsbE(10000);
    OpGenerator gen(spec, 7, 1);
    int scans = 0, reads = 0, writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        switch (gen.next().type) {
          case OpType::Scan: ++scans; break;
          case OpType::Read: ++reads; break;
          case OpType::Write: ++writes; break;
        }
    }
    // YCSB-E: 95% scans carved out of the whole read share, 5% writes.
    EXPECT_NEAR(static_cast<double>(scans) / n, 0.95, 0.01);
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.05, 0.01);
    EXPECT_EQ(reads, n - scans - writes);
}

TEST(Ycsb, ScanLengthsWithinBounds)
{
    WorkloadSpec spec = WorkloadSpec::ycsbE(10000);
    OpGenerator gen(spec, 11, 3);
    bool sawLong = false;
    for (int i = 0; i < 20000; ++i) {
        Op op = gen.next();
        if (op.type != OpType::Scan) {
            EXPECT_EQ(op.scanLen, 0u);
            continue;
        }
        ASSERT_GE(op.scanLen, 1u);
        ASSERT_LE(op.scanLen, spec.maxScanLen);
        if (op.scanLen > spec.maxScanLen / 2)
            sawLong = true;
    }
    // Lengths are uniform in [1, maxScanLen]; the top half must appear.
    EXPECT_TRUE(sawLong);
}

TEST(Ycsb, ScanFractionZeroPreservesRngStreams)
{
    // Carving scans out of the read share must not perturb existing
    // workloads: with scanFraction == 0 the generator draws exactly
    // the ops it drew before scans existed.
    WorkloadSpec spec = WorkloadSpec::ycsbA(10000);
    ASSERT_EQ(spec.scanFraction, 0.0);
    OpGenerator gen(spec, 13, 5);
    for (int i = 0; i < 5000; ++i)
        ASSERT_NE(gen.next().type, OpType::Scan);
}

// --- Shared Latest insertion frontier (YCSB-D fix) --------------------------

TEST(Ycsb, SharedFrontierIsWorkloadGlobal)
{
    // Two clients of one Latest workload must see one frontier: an
    // insertion by client A shifts where client B's reads land. The
    // pre-fix behavior (per-client frontiers) kept B's frontier at its
    // own last write, diverging from the workload-global newest key.
    WorkloadSpec spec = WorkloadSpec::ycsbD(10000);
    SharedFrontier shared;
    OpGenerator a(spec, 17, 1), b(spec, 17, 2);
    a.bindFrontier(&shared);
    b.bindFrontier(&shared);

    // Drive A until it has inserted far from key 0.
    std::uint64_t frontier = 0;
    for (int i = 0; i < 50000 && frontier < 1000; ++i) {
        Op op = a.next();
        if (op.type == OpType::Write)
            frontier = shared.value;
    }
    ASSERT_GE(frontier, 1000u);

    // B has never written, yet its Latest reads must chase A's
    // frontier, not B's private zero.
    int reads = 0, near = 0;
    for (int i = 0; i < 20000; ++i) {
        Op op = b.next();
        if (op.type != OpType::Read)
            continue;
        ++reads;
        std::uint64_t cur = shared.value;
        std::uint64_t gap = cur >= op.key
                                ? cur - op.key
                                : cur + spec.keyCount - op.key;
        if (gap < 100)
            ++near;
    }
    ASSERT_GT(reads, 1000);
    EXPECT_GT(near, reads / 2);
}

TEST(Ycsb, UnboundGeneratorKeepsPrivateFrontier)
{
    WorkloadSpec spec = WorkloadSpec::ycsbD(500);
    OpGenerator gen(spec, 9, 4); // no bindFrontier: single-client use
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(gen.next().key, 500u);
}

// --- Flash-crowd hot-key shift ----------------------------------------------

TEST(Ycsb, KeyShiftRotatesKeySpace)
{
    WorkloadSpec spec = WorkloadSpec::ycsbA(10000);
    spec.distribution = KeyDistribution::Zipfian;

    // Identical streams; one shifted. Every drawn key must differ by
    // exactly the shift (mod key count), keys staying in range.
    OpGenerator plain(spec, 21, 1), shifted(spec, 21, 1);
    shifted.setKeyShift(4321);
    EXPECT_EQ(shifted.currentKeyShift(), 4321u);
    for (int i = 0; i < 5000; ++i) {
        Op p = plain.next();
        Op s = shifted.next();
        ASSERT_EQ(s.type, p.type);
        ASSERT_EQ(s.key, (p.key + 4321) % spec.keyCount);
        ASSERT_LT(s.key, spec.keyCount);
    }
}

// --- Scan records in op traces ----------------------------------------------

TEST(Trace, ScanRecordsRoundTrip)
{
    Trace t;
    t.append({OpType::Write, 7, 0});
    t.append({OpType::Scan, 42, 17});
    t.append({OpType::Read, 3, 0});

    std::stringstream ss;
    t.save(ss);
    EXPECT_NE(ss.str().find("S 42 17"), std::string::npos);

    Trace back;
    ASSERT_TRUE(Trace::load(ss, back));
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[1].type, OpType::Scan);
    EXPECT_EQ(back[1].key, 42u);
    EXPECT_EQ(back[1].scanLen, 17u);
    EXPECT_TRUE(back == t);
}

// --- Shared zipfian constants -----------------------------------------------

TEST(ZipfTable, SharedConstantsMatchStandaloneSampler)
{
    // Generators over one shared table must draw exactly the keys a
    // standalone ZipfianGenerator(n, theta) draws from the same stream.
    for (std::uint64_t n : {1ull, 2ull, 5000ull, 100000ull}) {
        for (double theta : {0.0, 0.5, 0.99, 1.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " theta=" << theta);
            WorkloadSpec spec = WorkloadSpec::ycsbA(n);
            spec.zipfTheta = theta;
            ZipfTable shared = makeZipfTable(spec);
            OpGenerator a(spec, 31, 1, shared), b(spec, 31, 2, shared);
            ASSERT_EQ(a.zipfTable(), b.zipfTable());

            ddp::sim::ZipfianGenerator ref(n, theta);
            ddp::sim::Pcg32 ra(31, 1), rb(31, 2);
            for (int i = 0; i < 2000; ++i) {
                // OpGenerator::next draws the op type, then the key.
                ra.nextDouble();
                rb.nextDouble();
                ASSERT_EQ(a.next().key, ref.next(ra)) << "draw " << i;
                ASSERT_EQ(b.next().key, ref.next(rb)) << "draw " << i;
            }
        }
    }
}

TEST(ZipfTable, StandaloneGeneratorEqualsSharedOne)
{
    WorkloadSpec spec = WorkloadSpec::ycsbD(5000); // Latest: zipf reads
    OpGenerator standalone(spec, 5, 3);
    OpGenerator shared(spec, 5, 3, makeZipfTable(spec));
    for (int i = 0; i < 5000; ++i)
        ASSERT_EQ(standalone.next(), shared.next()) << "draw " << i;
}

/**
 * @file
 * Unit tests for the set-associative cache and hierarchy models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "sim/random.hh"
#include "sim/ticks.hh"

using namespace ddp::mem;
using namespace ddp::sim;

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(1024, 2); // 8 sets x 2 ways x 64B
    EXPECT_FALSE(c.access(0));
    c.insert(0);
    EXPECT_TRUE(c.access(0));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, SameLineDifferentOffsets)
{
    SetAssocCache c(1024, 2);
    c.insert(0);
    EXPECT_TRUE(c.access(63));  // same 64B line
    EXPECT_FALSE(c.access(64)); // next line
}

TEST(SetAssocCache, LruEvictionWithinSet)
{
    // Single-set cache: 2 ways, 2 lines capacity.
    SetAssocCache c(128, 2);
    ASSERT_EQ(c.numSets(), 1u);
    c.insert(0 * 64);
    c.insert(1 * 64);
    c.access(0 * 64); // make line 0 MRU
    c.insert(2 * 64); // evicts line 1 (LRU)
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(1 * 64));
    EXPECT_TRUE(c.contains(2 * 64));
}

TEST(SetAssocCache, InsertRefreshesExisting)
{
    SetAssocCache c(128, 2);
    c.insert(0 * 64);
    c.insert(1 * 64);
    c.insert(0 * 64); // refresh, not duplicate
    c.insert(2 * 64); // should evict line 1
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(1 * 64));
}

TEST(SetAssocCache, InvalidateRemoves)
{
    SetAssocCache c(1024, 2);
    c.insert(0);
    c.invalidate(0);
    EXPECT_FALSE(c.contains(0));
    // Invalidating an absent line is a no-op.
    c.invalidate(4096);
}

TEST(SetAssocCache, ClearDropsEverything)
{
    SetAssocCache c(1024, 2);
    for (std::uint64_t i = 0; i < 8; ++i)
        c.insert(i * 64);
    c.clear();
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_FALSE(c.contains(i * 64));
}

TEST(SetAssocCache, DdioConfinedToPartition)
{
    // One set, 4 ways, 1 DDIO way (the last).
    SetAssocCache c(256, 4, 64, 1);
    c.insert(0 * 64);
    c.insert(1 * 64);
    c.insert(2 * 64);
    c.insert(3 * 64); // set full: CPU lines in all 4 ways
    // DDIO insertions may only use the last way; repeated DDIO fills
    // evict each other, never the first three CPU lines.
    c.insertDdio(10 * 64);
    c.insertDdio(11 * 64);
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_TRUE(c.contains(1 * 64));
    EXPECT_TRUE(c.contains(2 * 64));
    EXPECT_FALSE(c.contains(10 * 64)); // evicted by 11
    EXPECT_TRUE(c.contains(11 * 64));
}

TEST(SetAssocCache, DdioZeroWaysFallsBackToFullSet)
{
    SetAssocCache c(256, 4, 64, 0);
    c.insertDdio(0);
    EXPECT_TRUE(c.contains(0));
}

TEST(CacheHierarchyParams, PaperLatencies)
{
    CacheHierarchyParams p = CacheHierarchyParams::paperDefault();
    EXPECT_EQ(p.l1Latency, 1 * kNanosecond);      // 2 cycles @ 2GHz
    EXPECT_EQ(p.l2Latency, 6 * kNanosecond);      // 12 cycles
    EXPECT_EQ(p.llcLatency, 19 * kNanosecond);    // 38 cycles
}

TEST(CacheHierarchy, MissFillsAllLevels)
{
    CacheHierarchy h(CacheHierarchyParams::paperDefault());
    auto first = h.access(0);
    EXPECT_FALSE(first.hit);
    auto second = h.access(0);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.latency, 1 * kNanosecond); // L1 hit
}

TEST(CacheHierarchy, L2HitAfterL1Eviction)
{
    CacheHierarchyParams p = CacheHierarchyParams::paperDefault();
    CacheHierarchy h(p);
    h.access(0);
    // Blow L1 (64KB, 8-way = 128 sets): access many conflicting lines.
    for (std::uint64_t i = 1; i < 4000; ++i)
        h.access(i * 64);
    auto r = h.access(0);
    EXPECT_TRUE(r.hit);
    EXPECT_GT(r.latency, p.l1Latency);
}

TEST(CacheHierarchy, DdioDeliversToLlc)
{
    CacheHierarchyParams p = CacheHierarchyParams::paperDefault();
    CacheHierarchy h(p);
    EXPECT_EQ(h.deliverDdio(0), p.llcLatency);
    EXPECT_TRUE(h.llc().contains(0));
    // Not in L1/L2: a CPU access hits at LLC.
    auto r = h.access(0);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, p.llcLatency);
}

TEST(CacheHierarchy, InvalidateDropsAllLevels)
{
    CacheHierarchy h(CacheHierarchyParams::paperDefault());
    h.access(0);
    h.invalidate(0);
    auto r = h.access(0);
    EXPECT_FALSE(r.hit);
}

TEST(CacheHierarchy, CrashWipesVolatileContents)
{
    CacheHierarchy h(CacheHierarchyParams::paperDefault());
    for (std::uint64_t i = 0; i < 32; ++i)
        h.access(i * 64);
    h.crash();
    auto r = h.access(0);
    EXPECT_FALSE(r.hit);
}

// --------------------------------------------------------------------------
// Differential test: the compact directory (8 B tag word + 1 B recency
// rank per way) against a reference copy of the original 24 B-line
// directory ({tag, valid, global LRU stamp}). Every return value, every
// presence probe and the hit/miss counters must agree, op for op.
// --------------------------------------------------------------------------

namespace {

/** The original directory, kept verbatim as the behavioral oracle. */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t capacity_bytes, std::uint32_t ways,
                   std::uint32_t line_bytes, std::uint32_t ddio_ways)
        : sets(static_cast<std::uint32_t>(
              capacity_bytes /
              (static_cast<std::uint64_t>(ways) * line_bytes))),
          waysPerSet(ways), lineBytes(line_bytes), ddioWays(ddio_ways),
          lines(static_cast<std::size_t>(sets) * ways)
    {
    }

    bool
    access(std::uint64_t addr)
    {
        if (Line *l = find(addr)) {
            l->lruStamp = ++stamp;
            ++hitCount;
            return true;
        }
        ++missCount;
        return false;
    }

    bool contains(std::uint64_t addr) { return find(addr) != nullptr; }

    void insert(std::uint64_t addr) { installInRange(addr, 0, waysPerSet); }

    void
    insertDdio(std::uint64_t addr)
    {
        if (ddioWays == 0) {
            insert(addr);
            return;
        }
        installInRange(addr, waysPerSet - ddioWays, waysPerSet);
    }

    void
    invalidate(std::uint64_t addr)
    {
        if (Line *l = find(addr))
            l->valid = false;
    }

    void
    clear()
    {
        for (auto &l : lines)
            l.valid = false;
    }

    std::uint32_t
    setOf(std::uint64_t addr) const
    {
        std::uint64_t h = (addr / lineBytes) * 0x9e3779b97f4a7c15ULL;
        return static_cast<std::uint32_t>((h >> 32) % sets);
    }

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        std::uint64_t lruStamp = 0;
    };

    Line *
    find(std::uint64_t addr)
    {
        std::uint64_t line = addr / lineBytes;
        Line *base = &lines[static_cast<std::size_t>(setOf(addr)) *
                            waysPerSet];
        for (std::uint32_t w = 0; w < waysPerSet; ++w) {
            if (base[w].valid && base[w].tag == line)
                return &base[w];
        }
        return nullptr;
    }

    void
    installInRange(std::uint64_t addr, std::uint32_t way_begin,
                   std::uint32_t way_end)
    {
        std::uint64_t line = addr / lineBytes;
        Line *base = &lines[static_cast<std::size_t>(setOf(addr)) *
                            waysPerSet];
        for (std::uint32_t w = 0; w < waysPerSet; ++w) {
            if (base[w].valid && base[w].tag == line) {
                base[w].lruStamp = ++stamp;
                return;
            }
        }
        Line *victim = nullptr;
        for (std::uint32_t w = way_begin; w < way_end; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (!victim || base[w].lruStamp < victim->lruStamp)
                victim = &base[w];
        }
        victim->valid = true;
        victim->tag = line;
        victim->lruStamp = ++stamp;
    }

    std::uint32_t sets;
    std::uint32_t waysPerSet;
    std::uint32_t lineBytes;
    std::uint32_t ddioWays;
    std::vector<Line> lines;
    std::uint64_t stamp = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

struct Geometry
{
    const char *name;
    std::uint64_t bytes;
    std::uint32_t ways;
    std::uint32_t ddioWays;
};

/**
 * Drive both directories through @p ops seeded random operations. Keys
 * come from a pool of lines confined to the first few sets (so a modest
 * op count still fills sets, evicts and re-touches), plus occasional
 * addresses anywhere in a 4 GB space.
 */
void
runDifferential(const Geometry &g, std::uint64_t ops, std::uint64_t seed)
{
    SCOPED_TRACE(g.name);
    SetAssocCache dut(g.bytes, g.ways, 64, g.ddioWays);
    ReferenceCache ref(g.bytes, g.ways, 64, g.ddioWays);
    Pcg32 rng(seed, 3);

    constexpr std::uint32_t kHotSets = 24;
    const std::size_t pool_size = std::size_t(kHotSets) * g.ways * 3;
    std::vector<std::uint64_t> pool;
    while (pool.size() < pool_size) {
        std::uint64_t addr = (rng.nextU64() % (1ULL << 32)) & ~63ULL;
        if (ref.setOf(addr) < kHotSets)
            pool.push_back(addr + rng.nextBounded(64));
    }
    auto pick = [&]() -> std::uint64_t {
        if (rng.nextBounded(16) == 0)
            return rng.nextU64() % (1ULL << 32);
        return pool[rng.nextBounded(
            static_cast<std::uint32_t>(pool.size()))];
    };

    for (std::uint64_t i = 0; i < ops; ++i) {
        std::uint64_t addr = pick();
        std::uint32_t kind = rng.nextBounded(100000);
        if (kind < 40000) {
            ASSERT_EQ(dut.access(addr), ref.access(addr)) << "op " << i;
        } else if (kind < 70000) {
            dut.insert(addr);
            ref.insert(addr);
        } else if (kind < 85000) {
            dut.insertDdio(addr);
            ref.insertDdio(addr);
        } else if (kind < 99995) {
            dut.invalidate(addr);
            ref.invalidate(addr);
        } else {
            dut.clear();
            ref.clear();
        }
        ASSERT_EQ(dut.contains(addr), ref.contains(addr)) << "op " << i;
        std::uint64_t probe = pick();
        ASSERT_EQ(dut.contains(probe), ref.contains(probe)) << "op " << i;
        ASSERT_EQ(dut.hits(), ref.hits()) << "op " << i;
        ASSERT_EQ(dut.misses(), ref.misses()) << "op " << i;
    }
    for (std::uint64_t addr : pool)
        ASSERT_EQ(dut.contains(addr), ref.contains(addr));
}

} // namespace

TEST(SetAssocCacheDifferential, MatchesReferenceOnHierarchyGeometries)
{
    const CacheHierarchyParams p = CacheHierarchyParams::paperDefault();
    const Geometry geometries[] = {
        {"L1", p.l1Bytes, p.l1Ways, 0},
        {"L2", p.l2Bytes, p.l2Ways, 0},
        {"LLC+DDIO", p.llcBytes, p.llcWays, p.llcDdioWays},
        {"LLC", p.llcBytes, p.llcWays, 0},
    };
    std::uint64_t seed = 1;
    for (const Geometry &g : geometries)
        runDifferential(g, 300000, seed++);
}

TEST(SetAssocCacheDifferential, MatchesReferenceOnTinySets)
{
    // One and two sets, all-DDIO and single-way partitions: corner
    // cases of the victim rule the large geometries rarely reach.
    const Geometry geometries[] = {
        {"1set-4way-ddio1", 256, 4, 1},
        {"2set-4way-ddio4", 512, 4, 4},
        {"1set-1way", 64, 1, 0},
    };
    std::uint64_t seed = 11;
    for (const Geometry &g : geometries)
        runDifferential(g, 50000, seed++);
}

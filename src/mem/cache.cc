#include "mem/cache.hh"

#include <algorithm>
#include <cassert>

namespace ddp::mem {

namespace {

std::uint32_t
computeSets(std::uint64_t capacity, std::uint32_t ways, std::uint32_t line)
{
    std::uint64_t s = capacity / (static_cast<std::uint64_t>(ways) * line);
    assert(s > 0);
    return static_cast<std::uint32_t>(s);
}

} // namespace

SetAssocCache::SetAssocCache(std::uint64_t capacity_bytes,
                             std::uint32_t ways, std::uint32_t line_bytes,
                             std::uint32_t ddio_ways)
    : sets(computeSets(capacity_bytes, ways, line_bytes)),
      waysPerSet(ways),
      lineBytes(line_bytes),
      ddioWays(ddio_ways),
      setWords(ways + (ways + 7) / 8),
      dir(static_cast<std::size_t>(sets) * setWords)
{
    assert(ways > 0 && ways <= 255);
    assert(ddio_ways <= ways);
}

std::uint64_t
SetAssocCache::lineAddr(std::uint64_t addr) const
{
    return addr / lineBytes;
}

std::uint32_t
SetAssocCache::setOf(std::uint64_t line) const
{
    // Multiplicative hash so strided key layouts spread over sets.
    std::uint64_t h = line * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::uint32_t>((h >> 32) % sets);
}

std::size_t
SetAssocCache::setBase(std::uint64_t line) const
{
    return static_cast<std::size_t>(setOf(line)) * setWords;
}

int
SetAssocCache::findWay(std::size_t base, std::uint64_t line) const
{
    const std::uint64_t *t = &dir[base];
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (t[w] == line + 1)
            return static_cast<int>(w);
    }
    return -1;
}

void
SetAssocCache::touch(std::size_t base, std::uint32_t way)
{
    // Locals only: stores through the byte pointer may alias members.
    std::uint8_t *r = rankOf(base);
    const std::uint32_t n = waysPerSet;
    const std::uint8_t old = r[way];
    if (old == n)
        return; // already the most recent way of a full set
    std::uint8_t top = 0;
    if (old == 0) {
        // First touch since the set was emptied: take the next rank.
        for (std::uint32_t w = 0; w < n; ++w)
            top = std::max(top, r[w]);
        r[way] = static_cast<std::uint8_t>(top + 1);
        return;
    }
    // Re-touch: every more recent way moves down one rank and this one
    // takes the vacated top.
    for (std::uint32_t w = 0; w < n; ++w) {
        std::uint8_t v = r[w];
        top = std::max(top, v);
        r[w] = static_cast<std::uint8_t>(v - (v > old ? 1 : 0));
    }
    r[way] = top;
}

bool
SetAssocCache::access(std::uint64_t addr)
{
    std::uint64_t line = lineAddr(addr);
    std::size_t base = setBase(line);
    int way = findWay(base, line);
    if (way >= 0) {
        touch(base, static_cast<std::uint32_t>(way));
        ++hitCount;
        return true;
    }
    ++missCount;
    return false;
}

bool
SetAssocCache::contains(std::uint64_t addr) const
{
    std::uint64_t line = lineAddr(addr);
    return findWay(setBase(line), line) >= 0;
}

void
SetAssocCache::installInRange(std::uint64_t addr, std::uint32_t way_begin,
                              std::uint32_t way_end)
{
    std::uint64_t line = lineAddr(addr);
    std::size_t base = setBase(line);

    // Already present anywhere in the set: refresh LRU.
    int present = findWay(base, line);
    if (present >= 0) {
        touch(base, static_cast<std::uint32_t>(present));
        return;
    }

    // Prefer the first invalid way in the allowed range, else evict the
    // least recently used one.
    assert(way_begin < way_end);
    std::uint64_t *t = &dir[base];
    const std::uint8_t *r = rankOf(base);
    std::uint32_t victim = way_begin;
    for (std::uint32_t w = way_begin; w < way_end; ++w) {
        if (t[w] == 0) {
            victim = w;
            break;
        }
        if (r[w] < r[victim])
            victim = w;
    }
    t[victim] = line + 1;
    touch(base, victim);
}

void
SetAssocCache::insert(std::uint64_t addr)
{
    installInRange(addr, 0, waysPerSet);
}

void
SetAssocCache::insertDdio(std::uint64_t addr)
{
    if (ddioWays == 0) {
        insert(addr);
        return;
    }
    // DDIO fills are confined to the last ddioWays ways of each set.
    installInRange(addr, waysPerSet - ddioWays, waysPerSet);
}

void
SetAssocCache::invalidate(std::uint64_t addr)
{
    std::uint64_t line = lineAddr(addr);
    std::size_t base = setBase(line);
    int way = findWay(base, line);
    if (way >= 0)
        dir[base + static_cast<std::uint32_t>(way)] = 0;
}

void
SetAssocCache::clear()
{
    std::fill(dir.begin(), dir.end(), 0);
}

CacheHierarchyParams
CacheHierarchyParams::paperDefault()
{
    CacheHierarchyParams p;
    // 2 GHz core: 1 cycle = 500 ps. Table 5: 2 / 12 / 38 cycles RT.
    p.l1Latency = 2 * 500 * sim::kPicosecond;
    p.l2Latency = 12 * 500 * sim::kPicosecond;
    p.llcLatency = 38 * 500 * sim::kPicosecond;
    return p;
}

CacheHierarchy::CacheHierarchy(const CacheHierarchyParams &params)
    : cfg(params),
      l1Cache(params.l1Bytes, params.l1Ways),
      l2Cache(params.l2Bytes, params.l2Ways),
      llcCache(params.llcBytes, params.llcWays, 64, params.llcDdioWays)
{
}

CacheHierarchy::AccessResult
CacheHierarchy::access(std::uint64_t addr)
{
    if (l1Cache.access(addr))
        return {cfg.l1Latency, true};
    if (l2Cache.access(addr)) {
        l1Cache.insert(addr);
        return {cfg.l2Latency, true};
    }
    if (llcCache.access(addr)) {
        l2Cache.insert(addr);
        l1Cache.insert(addr);
        return {cfg.llcLatency, true};
    }
    // Full miss: fill all levels; memory latency charged by caller.
    llcCache.insert(addr);
    l2Cache.insert(addr);
    l1Cache.insert(addr);
    return {cfg.llcLatency, false};
}

sim::Tick
CacheHierarchy::deliverDdio(std::uint64_t addr)
{
    llcCache.insertDdio(addr);
    return cfg.llcLatency;
}

void
CacheHierarchy::invalidate(std::uint64_t addr)
{
    l1Cache.invalidate(addr);
    l2Cache.invalidate(addr);
    llcCache.invalidate(addr);
}

void
CacheHierarchy::crash()
{
    l1Cache.clear();
    l2Cache.clear();
    llcCache.clear();
}

} // namespace ddp::mem

/**
 * @file
 * Set-associative cache model and three-level hierarchy timing.
 *
 * The protocol engine charges local volatile accesses with the latency
 * of the cache level that hits. The LLC reserves a DDIO partition (10%
 * of the ways by default, per the paper's Table 5) into which NIC
 * deliveries are installed, mirroring Intel Data Direct I/O behaviour:
 * replica updates arriving from the network land directly in the LLC.
 */

#ifndef DDP_MEM_CACHE_HH
#define DDP_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/ticks.hh"

namespace ddp::mem {

/**
 * A set-associative cache directory with LRU replacement. Tracks
 * presence only (no data), which is all the timing model needs.
 *
 * Each set is a block of words: an 8 B tag word per way holding line
 * address + 1 (0 = invalid way), then a one-byte recency rank per way
 * packed into trailing words (16 ways: 144 B per set, 9 B per line; one
 * block keeps a lookup's tags and ranks together). The ranks of one
 * set's touched ways are 1..k (k = most recent); never-touched ways
 * rank 0, so an all-zero block is an empty set. A touched way keeps its
 * rank when invalidated, which is harmless: victim selection prefers
 * any invalid way and compares ranks of valid ways only, whose relative
 * order is exactly their order of last use.
 *
 * The directory is sparse per set: a 4 B slot per set names its block,
 * and blocks exist only for sets that have been filled. Slot 0 is one
 * shared all-zero block, which reads as an empty set, so lookups,
 * probes and invalidations of a never-filled set need no branch and
 * store nothing; only a fill gives a set its own block. Blocks are
 * appended in fill order to fixed-size pages that never move, and
 * clear() releases them all. A node's 40 MB LLC thus costs memory in
 * proportion to the lines a run touches, not to its capacity.
 */
class SetAssocCache
{
  public:
    /**
     * @param capacity_bytes total capacity
     * @param ways associativity (at most 255: ranks are one byte)
     * @param line_bytes line size
     * @param ddio_ways ways per set reserved for DDIO fills
     *        (0 = no partition; DDIO fills may use only these ways)
     */
    SetAssocCache(std::uint64_t capacity_bytes, std::uint32_t ways,
                  std::uint32_t line_bytes = 64, std::uint32_t ddio_ways = 0);

    /** Look up @p addr; updates LRU on hit. @return true on hit. */
    bool access(std::uint64_t addr);

    /** Non-mutating presence probe. */
    bool contains(std::uint64_t addr) const;

    /**
     * Install the line containing @p addr (CPU-side fill; may use any
     * way). Evicts the LRU line if the set is full.
     */
    void insert(std::uint64_t addr);

    /**
     * Install via DDIO (NIC delivery): restricted to the DDIO partition
     * of the set, evicting the LRU line of that partition.
     */
    void insertDdio(std::uint64_t addr);

    /** Remove the line if present (protocol invalidation). */
    void invalidate(std::uint64_t addr);

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint32_t numSets() const { return sets; }
    std::uint32_t numWays() const { return waysPerSet; }
    /** Sets holding a block of their own (filled since the last clear). */
    std::uint32_t materializedSets() const { return blockCount - 1; }

    /** Drop all lines (crash of volatile state). */
    void clear();

  private:
    std::uint64_t lineAddr(std::uint64_t addr) const;
    std::uint32_t setOf(std::uint64_t line) const;
    /** Words of block @p idx (block 0 is the shared all-zero block). */
    std::uint64_t *blockAt(std::uint32_t idx) const
    {
        return pages[idx >> kPageShift].get() +
               static_cast<std::size_t>(idx & (kPageBlocks - 1)) * setWords;
    }
    /** Block of @p line's set; the zero block if it was never filled. */
    std::uint64_t *blockOf(std::uint64_t line) const
    {
        return blockAt(slot[setOf(line)]);
    }
    /** Rank bytes of the set block @p b. */
    std::uint8_t *rankOf(std::uint64_t *b) const
    {
        return reinterpret_cast<std::uint8_t *>(b + waysPerSet);
    }
    /** Way index holding @p line in the set block @p b, or -1. */
    int findWay(const std::uint64_t *b, std::uint64_t line) const;
    /** Make way @p way the most recently used of the set block @p b. */
    void touch(std::uint64_t *b, std::uint32_t way);
    void installInRange(std::uint64_t addr, std::uint32_t way_begin,
                        std::uint32_t way_end);
    /** Append a zeroed block (a new page when the last one is full). */
    std::uint32_t newBlock();

    /** Blocks per page: 2^kPageShift (128 LLC sets = 18 KB). */
    static constexpr std::uint32_t kPageShift = 7;
    static constexpr std::uint32_t kPageBlocks = 1u << kPageShift;

    std::uint32_t sets;
    std::uint32_t waysPerSet;
    std::uint32_t lineBytes;
    std::uint32_t ddioWays;
    /** Words per set block: the tag words, then the rank bytes packed. */
    std::uint32_t setWords;
    /** Per set, the index of its block (0 = shared zero block). */
    std::vector<std::uint32_t> slot;
    /**
     * kPageBlocks blocks of setWords words each, in fill order; page 0
     * starts with the zero block. Pages never move or grow, so a block
     * pointer stays valid until clear().
     */
    std::vector<std::unique_ptr<std::uint64_t[]>> pages;
    /** Blocks in use, the zero block included. */
    std::uint32_t blockCount = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

/** Latencies of the three-level hierarchy (round-trip, in ticks). */
struct CacheHierarchyParams
{
    sim::Tick l1Latency;
    sim::Tick l2Latency;
    sim::Tick llcLatency;
    std::uint64_t l1Bytes = 64ULL << 10;
    std::uint64_t l2Bytes = 512ULL << 10;
    std::uint64_t llcBytes = 40ULL << 20; // 2 MB/core x 20 cores
    std::uint32_t l1Ways = 8;
    std::uint32_t l2Ways = 8;
    std::uint32_t llcWays = 16;
    /** Fraction of LLC ways reserved for DDIO (paper: 10% of LLC). */
    std::uint32_t llcDdioWays = 2;

    /** Paper Table 5 values at 2 GHz (2 / 12 / 38 cycles RT). */
    static CacheHierarchyParams paperDefault();
};

/**
 * Three-level cache hierarchy for one server. Returns the access
 * latency of the first level that hits; a full miss additionally costs
 * the caller a DRAM access (charged by the protocol engine via the
 * MemoryDevice model).
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const CacheHierarchyParams &params);

    /** Result of a hierarchy lookup. */
    struct AccessResult
    {
        sim::Tick latency; ///< hierarchy traversal latency
        bool hit;          ///< true if some level hit
    };

    /** CPU-side access to @p addr; fills on miss. */
    AccessResult access(std::uint64_t addr);

    /** NIC delivery: install into the LLC DDIO partition. */
    sim::Tick deliverDdio(std::uint64_t addr);

    /** Protocol invalidation of a line in all levels. */
    void invalidate(std::uint64_t addr);

    /** Wipe all volatile contents (crash). */
    void crash();

    const SetAssocCache &l1() const { return l1Cache; }
    const SetAssocCache &l2() const { return l2Cache; }
    const SetAssocCache &llc() const { return llcCache; }

  private:
    CacheHierarchyParams cfg;
    SetAssocCache l1Cache;
    SetAssocCache l2Cache;
    SetAssocCache llcCache;
};

} // namespace ddp::mem

#endif // DDP_MEM_CACHE_HH

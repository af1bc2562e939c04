/**
 * @file
 * Free-listed slab arena with generation-tagged handles.
 *
 * ChunkedSlab allocates objects of one type from fixed-size chunks and
 * hands out 64-bit handles instead of pointers: the low 32 bits are the
 * cell index biased by 1 (so 0 is the null handle), the high 32 bits the
 * cell's generation. Freeing a cell bumps its generation, so a stale
 * handle held across a free — a retransmit racing an ack, a waiter
 * resume racing a crash — dereferences to nullptr instead of to whatever
 * now occupies the cell.
 *
 * Two properties the protocol engine relies on:
 *  - *address stability*: cells live in chunked storage
 *    (vector<unique_ptr<Cell[]>>), so a reference obtained from get()
 *    survives any number of alloc() calls. Protocol code holds a Round&
 *    across client callbacks that may synchronously start new rounds.
 *  - *deterministic handles*: allocation order alone decides which
 *    handle alloc() returns (LIFO free list), so simulations that embed
 *    handles in messages stay bit-reproducible for a given seed.
 */

#ifndef DDP_SIM_ARENA_HH
#define DDP_SIM_ARENA_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace ddp::sim {

template <typename T>
class ChunkedSlab
{
  public:
    /** 0 is the null handle (no cell index 0 exists: indices bias by 1). */
    using Handle = std::uint64_t;
    static constexpr Handle kNull = 0;

    /**
     * Allocate a cell (default-constructed T, reset on every free) and
     * return its handle. References to other cells stay valid.
     */
    Handle
    alloc()
    {
        std::uint32_t idx;
        if (!freeList.empty()) {
            idx = freeList.back();
            freeList.pop_back();
        } else {
            idx = static_cast<std::uint32_t>(cellCount);
            if ((cellCount >> kChunkLg) == chunks.size())
                chunks.push_back(std::make_unique<Cell[]>(kChunkSize));
            ++cellCount;
        }
        Cell &c = cell(idx);
        assert(!c.live);
        c.live = true;
        ++liveCells;
        return pack(idx, c.gen);
    }

    /** Live cell for @p h, or nullptr when h is null or stale. */
    T *
    get(Handle h)
    {
        if (h == kNull)
            return nullptr;
        std::uint32_t idx = indexOf(h);
        if (idx >= cellCount)
            return nullptr;
        Cell &c = cell(idx);
        if (!c.live || c.gen != genOf(h))
            return nullptr;
        return &c.value;
    }

    const T *
    get(Handle h) const
    {
        return const_cast<ChunkedSlab *>(this)->get(h);
    }

    /** Live cell for @p h; asserts the handle is current. */
    T &
    at(Handle h)
    {
        T *p = get(h);
        assert(p != nullptr && "stale or null slab handle");
        return *p;
    }

    /**
     * Free the cell behind @p h: its value is reset to a
     * default-constructed T (releasing owned resources now, not at some
     * arbitrary later reuse) and its generation bumped so outstanding
     * handles go stale. No-op on null or already-stale handles.
     */
    void
    free(Handle h)
    {
        T *p = get(h);
        if (p == nullptr)
            return;
        Cell &c = cell(indexOf(h));
        c.value = T();
        ++c.gen;
        c.live = false;
        --liveCells;
        freeList.push_back(indexOf(h));
    }

    /** Free every live cell (generation-bumping each, so every
     *  outstanding handle goes stale). Storage is retained. */
    void
    clear()
    {
        if (liveCells == 0)
            return;
        for (std::uint32_t idx = 0;
             idx < static_cast<std::uint32_t>(cellCount); ++idx) {
            Cell &c = cell(idx);
            if (!c.live)
                continue;
            c.value = T();
            ++c.gen;
            c.live = false;
            freeList.push_back(idx);
        }
        liveCells = 0;
    }

    std::size_t liveCount() const { return liveCells; }

    /**
     * Visit every live cell as f(handle, value&), in ascending cell
     * index — a deterministic order, unlike hash-map iteration. The
     * callback must not alloc() or free() cells of this slab.
     */
    template <typename F>
    void
    forEach(F &&f)
    {
        std::size_t seen = 0;
        for (std::uint32_t idx = 0;
             idx < static_cast<std::uint32_t>(cellCount) &&
             seen < liveCells;
             ++idx) {
            Cell &c = cell(idx);
            if (!c.live)
                continue;
            ++seen;
            f(pack(idx, c.gen), c.value);
        }
    }

  private:
    // 64 cells per chunk: a node's slabs hold tens of live records at
    // a time, and a 25-node cluster pays every chunk once per slab per
    // node, so small chunks keep idle capacity out of the RSS.
    static constexpr std::size_t kChunkLg = 6;
    static constexpr std::size_t kChunkSize = std::size_t(1) << kChunkLg;

    struct Cell
    {
        T value{};
        std::uint32_t gen = 0;
        bool live = false;
    };

    static Handle
    pack(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<Handle>(gen) << 32) |
               (static_cast<Handle>(idx) + 1);
    }

    static std::uint32_t
    indexOf(Handle h)
    {
        return static_cast<std::uint32_t>(h & 0xffffffffu) - 1;
    }

    static std::uint32_t
    genOf(Handle h)
    {
        return static_cast<std::uint32_t>(h >> 32);
    }

    Cell &
    cell(std::uint32_t idx)
    {
        return chunks[idx >> kChunkLg][idx & (kChunkSize - 1)];
    }

    std::vector<std::unique_ptr<Cell[]>> chunks;
    std::vector<std::uint32_t> freeList;
    std::size_t cellCount = 0;
    std::size_t liveCells = 0;
};

} // namespace ddp::sim

#endif // DDP_SIM_ARENA_HH

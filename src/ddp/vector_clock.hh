/**
 * @file
 * Vector clocks as the causal-history (cauhist) encoding.
 *
 * The paper attaches to every Causal-consistency UPD the causal history
 * of the write. DDPSim encodes that history compactly as a per-server
 * vector clock: entry i counts the writes originating at server i that
 * are in the update's happens-before past. A replica may apply an
 * update once its own applied-clock dominates the update's
 * dependencies.
 */

#ifndef DDP_CORE_VECTOR_CLOCK_HH
#define DDP_CORE_VECTOR_CLOCK_HH

#include <cstdint>
#include <span>
#include <vector>

namespace ddp::core {

/** A fixed-width vector clock over the cluster's servers. */
class VectorClock
{
  public:
    VectorClock() = default;
    explicit VectorClock(std::size_t nodes) : counts(nodes, 0) {}

    std::size_t size() const { return counts.size(); }

    std::uint64_t operator[](std::size_t i) const { return counts[i]; }
    std::uint64_t &operator[](std::size_t i) { return counts[i]; }

    /** this >= other component-wise. */
    bool
    dominates(const VectorClock &other) const
    {
        return dominates(std::span<const std::uint64_t>(other.counts));
    }

    /** this >= @p raw component-wise, for a raw clock of the same
     *  width (a message's cauhist, compared in place). */
    bool
    dominates(std::span<const std::uint64_t> raw) const
    {
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] < raw[i])
                return false;
        }
        return true;
    }

    /** Component-wise maximum. */
    void
    mergeFrom(const VectorClock &other)
    {
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (other.counts[i] > counts[i])
                counts[i] = other.counts[i];
        }
    }

    const std::vector<std::uint64_t> &raw() const { return counts; }

    /** Rebuild from a message's cauhist payload. */
    static VectorClock
    fromRaw(std::vector<std::uint64_t> raw)
    {
        VectorClock vc;
        vc.counts = std::move(raw);
        return vc;
    }

    friend bool
    operator==(const VectorClock &a, const VectorClock &b)
    {
        return a.counts == b.counts;
    }

  private:
    std::vector<std::uint64_t> counts;
};

} // namespace ddp::core

#endif // DDP_CORE_VECTOR_CLOCK_HH

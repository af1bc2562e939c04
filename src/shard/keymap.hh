/**
 * @file
 * Range-partitioned shard keymap.
 *
 * A ShardLayout carries the routing truth of a sharded cluster: the
 * key space [0, keyCount) is cut into contiguous ranges by a sorted
 * boundary vector, and every range is owned by exactly one replica
 * *team* (a group of R servers running the full DDP protocol among
 * themselves). Clients and the router consult the layout on every
 * operation: point ops resolve to the owning team of their key, range
 * scans fan out across every boundary-overlapping range.
 *
 * The layout is mutable at runtime — the DataDistributor reacts to
 * load by *splitting* a hot range in two (metadata only: both halves
 * stay with the owning team, see DESIGN.md decision 17) and by
 * *migrating* a range to another team (metadata flip first, data
 * backfilled through the instant-recovery fault-in path). All
 * mutations are O(ranges) vector surgery on the simulation thread;
 * routing is an O(log ranges) binary search.
 */

#ifndef DDP_SHARD_KEYMAP_HH
#define DDP_SHARD_KEYMAP_HH

#include <cstdint>
#include <vector>

#include "net/message.hh"

namespace ddp::shard {

/** Team identifier (a team is R consecutive servers). */
using TeamId = std::uint32_t;

/** One contiguous key range [lo, hi) and its owning team. */
struct Range
{
    net::KeyId lo = 0;
    net::KeyId hi = 0;
    TeamId team = 0;

    std::uint64_t width() const { return hi - lo; }
    bool contains(net::KeyId key) const { return key >= lo && key < hi; }
};

/** A scan's clamped intersection with one range. */
struct RangeSlice
{
    std::size_t rangeIdx = 0;
    TeamId team = 0;
    net::KeyId lo = 0; ///< inclusive
    net::KeyId hi = 0; ///< exclusive
};

/** The cluster's range → team map. */
class ShardLayout
{
  public:
    ShardLayout() = default;

    /**
     * Deterministic initial layout: @p num_teams equal ranges (the
     * first `keyCount % num_teams` ranges one key wider), range i
     * owned by team i.
     */
    static ShardLayout makeInitial(std::uint64_t key_count,
                                   std::uint32_t num_teams);

    std::uint64_t keyCount() const { return keys; }
    std::uint32_t numTeams() const { return teams; }
    std::size_t numRanges() const { return ranges.size(); }
    const Range &range(std::size_t idx) const { return ranges[idx]; }

    /** Index of the range holding @p key (binary search). */
    std::size_t rangeOf(net::KeyId key) const;

    /** Owning team of @p key. */
    TeamId teamFor(net::KeyId key) const
    {
        return ranges[rangeOf(key)].team;
    }

    /**
     * Every range intersecting [lo, hi), with the intersection bounds
     * clamped per slice — the fan-out set of a scan — into @p out
     * (cleared first, capacity kept). Empty when the window is empty
     * or out of bounds.
     */
    void overlapping(net::KeyId lo, net::KeyId hi,
                     std::vector<RangeSlice> &out) const;

    /**
     * Split range @p idx at @p mid (lo < mid < hi). Both halves stay
     * with the owning team; returns the index of the upper half
     * (always idx + 1).
     */
    std::size_t split(std::size_t idx, net::KeyId mid);

    /** Reassign range @p idx to @p new_team (the metadata flip of a
     *  migration; the data backfill is the caller's problem). */
    void moveRange(std::size_t idx, TeamId new_team);

    /** Ranges owned by @p team (zero when fully migrated away). */
    std::size_t rangesOwnedBy(TeamId team) const;

  private:
    std::uint64_t keys = 0;
    std::uint32_t teams = 0;
    /** Sorted by lo; contiguous: ranges[i].hi == ranges[i+1].lo,
     *  ranges.front().lo == 0, ranges.back().hi == keys. */
    std::vector<Range> ranges;
};

} // namespace ddp::shard

#endif // DDP_SHARD_KEYMAP_HH

#include "shard/keymap.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ddp::shard {

ShardLayout
ShardLayout::makeInitial(std::uint64_t key_count, std::uint32_t num_teams)
{
    if (num_teams == 0)
        throw std::invalid_argument(
            "ShardLayout: need at least one team");
    if (key_count < num_teams)
        throw std::invalid_argument(
            "ShardLayout: " + std::to_string(key_count) +
            " keys cannot seed " + std::to_string(num_teams) +
            " non-empty ranges");
    ShardLayout l;
    l.keys = key_count;
    l.teams = num_teams;
    std::uint64_t base = key_count / num_teams;
    std::uint64_t extra = key_count % num_teams;
    net::KeyId lo = 0;
    for (std::uint32_t t = 0; t < num_teams; ++t) {
        net::KeyId hi = lo + base + (t < extra ? 1 : 0);
        l.ranges.push_back(Range{lo, hi, t});
        lo = hi;
    }
    assert(lo == key_count);
    return l;
}

std::size_t
ShardLayout::rangeOf(net::KeyId key) const
{
    assert(key < keys);
    // First range with hi > key.
    auto it = std::upper_bound(
        ranges.begin(), ranges.end(), key,
        [](net::KeyId k, const Range &r) { return k < r.hi; });
    assert(it != ranges.end() && it->contains(key));
    return static_cast<std::size_t>(it - ranges.begin());
}

void
ShardLayout::overlapping(net::KeyId lo, net::KeyId hi,
                         std::vector<RangeSlice> &out) const
{
    out.clear();
    if (lo >= hi || lo >= keys)
        return;
    hi = std::min<net::KeyId>(hi, keys);
    for (std::size_t i = rangeOf(lo); i < ranges.size(); ++i) {
        const Range &r = ranges[i];
        if (r.lo >= hi)
            break;
        out.push_back(RangeSlice{i, r.team, std::max(r.lo, lo),
                                 std::min(r.hi, hi)});
    }
}

std::size_t
ShardLayout::split(std::size_t idx, net::KeyId mid)
{
    assert(idx < ranges.size());
    Range &r = ranges[idx];
    assert(mid > r.lo && mid < r.hi);
    Range upper{mid, r.hi, r.team};
    r.hi = mid;
    ranges.insert(ranges.begin() +
                      static_cast<std::ptrdiff_t>(idx) + 1,
                  upper);
    return idx + 1;
}

void
ShardLayout::moveRange(std::size_t idx, TeamId new_team)
{
    assert(idx < ranges.size());
    assert(new_team < teams);
    ranges[idx].team = new_team;
}

std::size_t
ShardLayout::rangesOwnedBy(TeamId team) const
{
    std::size_t n = 0;
    for (const Range &r : ranges)
        n += r.team == team ? 1 : 0;
    return n;
}

} // namespace ddp::shard

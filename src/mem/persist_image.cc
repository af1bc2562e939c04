#include "mem/persist_image.hh"

#include <algorithm>
#include <cassert>

namespace ddp::mem {

PersistImage::PersistImage(std::uint64_t key_count,
                           std::uint32_t lines_per_value,
                           bool commit_records)
    : linesTotal(lines_per_value), useCommitRecords(commit_records),
      keys(key_count)
{
    assert(linesTotal >= 1);
}

std::uint64_t
PersistImage::mix(std::uint64_t x)
{
    // splitmix64 finalizer: cheap, well-distributed line/value tags.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
PersistImage::checksumOf(net::Version ver) const
{
    std::uint64_t sum = mix(ver.number ^ (std::uint64_t{ver.writer} << 56));
    for (std::uint32_t i = 0; i < linesTotal; ++i)
        sum ^= mix(ver.number + i * 0x100000001b3ull + ver.writer);
    return sum;
}

std::uint64_t
PersistImage::scanChecksum(net::KeyId key) const
{
    assert(key < keys.size());
    auto it = inflight.find(key);
    if (it == inflight.end())
        return checksumOf(keys[key].intact);
    const Staging &s = it->second;
    std::uint64_t sum =
        mix(s.ver.number ^ (std::uint64_t{s.ver.writer} << 56));
    for (std::uint32_t i = 0; i < linesTotal; ++i) {
        const net::Version &tag = i < s.written ? s.ver : s.base;
        sum ^= mix(tag.number + i * 0x100000001b3ull + tag.writer);
    }
    return sum;
}

void
PersistImage::retire(InflightMap::iterator it)
{
    spareNodes.push_back(inflight.extract(it));
}

void
PersistImage::beginWrite(net::KeyId key, net::Version ver)
{
    assert(key < keys.size());
    assert(linesTotal > 1 && "single-line values use atomicPersist()");
    // The engine coalesces persists, so at most one is in flight per
    // key; a new beginWrite before commit means the previous one was
    // abandoned by a crash whose recover() already consumed it.
    Staging s;
    s.ver = ver;
    // Double buffering: the staging slot holds the lines of an older
    // committed copy until the new value's lines overwrite them.
    s.base = keys[key].intact;
    if (auto it = inflight.find(key); it != inflight.end()) {
        it->second = s;
    } else if (!spareNodes.empty()) {
        InflightMap::node_type node = std::move(spareNodes.back());
        spareNodes.pop_back();
        node.key() = key;
        node.mapped() = s;
        inflight.insert(std::move(node));
    } else {
        inflight.emplace(key, s);
    }
}

void
PersistImage::lineWritten(net::KeyId key)
{
    auto it = inflight.find(key);
    assert(it != inflight.end());
    Staging &s = it->second;
    assert(s.written < linesTotal);
    ++s.written;
}

void
PersistImage::commitWrite(net::KeyId key, bool arrival_order)
{
    auto it = inflight.find(key);
    assert(it != inflight.end());
    Staging &s = it->second;
    assert(s.written == linesTotal &&
           "commit record must be issued after all data lines persist");
    KeyImage &ki = keys[key];
    if (arrival_order || ki.intact < s.ver)
        ki.intact = s.ver;
    ki.everWritten = true;
    retire(it);
}

void
PersistImage::atomicPersist(net::KeyId key, net::Version ver,
                            bool arrival_order)
{
    assert(key < keys.size());
    KeyImage &ki = keys[key];
    if (arrival_order || ki.intact < ver)
        ki.intact = ver;
    ki.everWritten = true;
}

void
PersistImage::installCommitted(net::KeyId key, net::Version ver)
{
    assert(key < keys.size());
    // The install lands in the intact slot only. A multi-line persist
    // already staging into the other buffer keeps going — on a live
    // node (a survivor answering a restarting peer's recovery install)
    // its line completions are still scheduled and will commit or be
    // consumed by a later recover(); erasing the staging here would
    // strand those completions.
    keys[key].intact = ver;
    keys[key].everWritten = true;
}

void
PersistImage::crash()
{
    // Power loss freezes every in-flight write exactly where it
    // stands; the inflight map already is that frozen state, so there
    // is nothing to do until recover() scans each key.
}

PersistImage::Recovered
PersistImage::recover(net::KeyId key)
{
    assert(key < keys.size());
    KeyImage &ki = keys[key];
    Recovered out;
    out.version = ki.intact;

    auto it = inflight.find(key);
    if (it == inflight.end())
        return out;
    Staging s = it->second;
    retire(it);

    if (s.written == 0) {
        // The write was admitted but no line reached the medium: the
        // staging slot still holds only old bytes. Nothing torn.
        return out;
    }

    if (useCommitRecords) {
        // The commit record still points at the last intact copy. The
        // staged slot's checksum cannot match a complete copy of the
        // staged version unless every line landed.
        if (s.written < linesTotal) {
            out.tornDetected = true;
            ++tornDetectedCount;
        } else {
            out.uncommittedRollback = true;
            ++uncommittedCount;
        }
        return out; // rolled back to ki.intact
    }

    // Ablation: no commit records. Recovery scans version tags and
    // trusts the newest one it finds, torn or not.
    if (ki.intact < s.ver) {
        out.version = s.ver;
        if (s.written < linesTotal) {
            out.tornInstalled = true;
            ++tornInstallCount;
        }
        ki.intact = out.version;
        ki.everWritten = true;
    }
    return out;
}

PersistImage::Recovered
PersistImage::recoverOnDemand(net::KeyId key)
{
    ++onDemandCount;
    return recover(key);
}

std::vector<net::KeyId>
PersistImage::inflightKeys() const
{
    std::vector<net::KeyId> out;
    out.reserve(inflight.size());
    for (const auto &[key, s] : inflight)
        out.push_back(key);
    std::sort(out.begin(), out.end());
    return out;
}

net::Version
PersistImage::intactVersion(net::KeyId key) const
{
    assert(key < keys.size());
    return keys[key].intact;
}

bool
PersistImage::writing(net::KeyId key) const
{
    return inflight.find(key) != inflight.end();
}

} // namespace ddp::mem

#include "ddp/checkers.hh"

namespace ddp::core {

void
PropertyChecker::onRead(net::NodeId node, net::KeyId key,
                        net::Version version, sim::Tick issued_at,
                        sim::Tick completed_at)
{
    (void)completed_at;
    ++reads;

    ReadPage &page = readPage(node, key);
    const std::size_t i = key & (kReadPageKeys - 1);
    if (version < net::Version{page.number[i], page.writer[i]}) {
        ++monotonicViol;
    } else {
        page.number[i] = version.number;
        page.writer[i] = version.writer;
    }

    auto cw = completed.find(key);
    if (cw != completed.end() && cw->second.completedAt < issued_at &&
        version < cw->second.version) {
        ++staleViol;
    }

    // A torn value must never be served to a client, no matter how
    // weak the binding: recovery either rolls it back (commit records)
    // or, in the ablation, installs it — and we catch the serve here.
    if (!tornValues.empty() &&
        tornValues.count(std::make_pair(key, version))) {
        ++tornServedCount;
    }
}

PropertyChecker::ReadPage &
PropertyChecker::readPage(net::NodeId node, net::KeyId key)
{
    if (node >= lastReads.size())
        lastReads.resize(node + std::size_t{1});
    std::vector<std::unique_ptr<ReadPage>> &pages = lastReads[node];
    const std::size_t p = static_cast<std::size_t>(key >> kReadPageShift);
    if (p >= pages.size())
        pages.resize(p + 1);
    if (!pages[p])
        pages[p] = std::make_unique<ReadPage>();
    return *pages[p];
}

void
PropertyChecker::onWriteComplete(net::KeyId key, net::Version version,
                                 sim::Tick completed_at)
{
    ++writes;
    auto [it, fresh] =
        completed.try_emplace(key, CompletedWrite{version, completed_at});
    if (!fresh && it->second.version < version) {
        it->second.version = version;
        it->second.completedAt = completed_at;
    }
    ackedAlive[key].push_back(version);
}

void
PropertyChecker::onTornDetected(net::NodeId node, net::KeyId key,
                                net::Version rolled_back_to)
{
    (void)node;
    (void)key;
    (void)rolled_back_to;
    ++tornDetectedCount;
}

void
PropertyChecker::onTornInstall(net::NodeId node, net::KeyId key,
                               net::Version torn_version)
{
    (void)node;
    ++tornInstallCount;
    tornValues.emplace(key, torn_version);
}

std::uint64_t
PropertyChecker::auditLostWrites(
    const std::function<net::Version(net::KeyId)> &recovered_version) const
{
    // One count per key whose *latest acknowledged* write did not
    // survive recovery; earlier acknowledged writes to the same key are
    // subsumed by the latest one.
    std::uint64_t lost = 0;
    for (const auto &[key, cw] : completed) {
        if (recovered_version(key) < cw.version)
            ++lost;
    }
    return lost;
}

PropertyChecker::DurabilityAudit
PropertyChecker::auditDurability(
    const DdpModel &model,
    const std::function<net::Version(net::KeyId)> &recovered_version)
{
    ++crashEpochCount;

    DurabilityAudit audit;
    audit.zeroLossRequired = writesDurableAtCompletion(model);
    audit.tornInstalled = tornInstallCount;
    audit.tornServed = tornServedCount;

    for (auto &[key, alive] : ackedAlive) {
        if (alive.empty())
            continue;
        net::Version recovered = recovered_version(key);
        net::Version latest{};
        std::size_t kept = 0;
        for (net::Version v : alive) {
            if (latest < v)
                latest = v;
            if (recovered < v) {
                // This acknowledged write did not survive the crash.
                // Prune it: the next crash epoch must not re-judge a
                // write that is already gone.
                ++audit.lostAckedWrites;
            } else {
                alive[kept++] = v;
            }
        }
        alive.resize(kept);
        if (recovered < latest)
            ++audit.lostAckedKeys;
    }
    return audit;
}

void
PropertyChecker::resetObservations()
{
    lastReads.clear();
    completed.clear();
    ackedAlive.clear();
}

void
PropertyChecker::clear()
{
    resetObservations();
    tornValues.clear();
    monotonicViol = 0;
    staleViol = 0;
    reads = 0;
    writes = 0;
    crashEpochCount = 0;
    tornDetectedCount = 0;
    tornInstallCount = 0;
    tornServedCount = 0;
}

} // namespace ddp::core

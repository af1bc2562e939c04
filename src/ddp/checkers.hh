/**
 * @file
 * Runtime property checkers for the paper's programmer-intuition and
 * durability taxonomy (Table 4).
 *
 * The checker consumes the protocol engine's observation stream and
 * measures:
 *
 *  - monotonic reads: for each (replica node, key), the versions
 *    returned by successive reads must never go backwards. Eventual
 *    consistency violates this (arrival-order application); Scope and
 *    Eventual persistency violate it across crashes (reads observed
 *    versions that the recovery discarded).
 *  - non-stale reads: a read issued after a write to the same key
 *    completed system-wide must return that write's version or newer.
 *    Violated by stale-read consistency models (Causal, Eventual) and,
 *    across crashes, by any model that acknowledges writes before they
 *    are durable.
 *  - durability of acknowledged writes: after a crash + recovery, how
 *    many client-acknowledged writes were lost.
 */

#ifndef DDP_CORE_CHECKERS_HH
#define DDP_CORE_CHECKERS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "ddp/client_api.hh"
#include "ddp/models.hh"
#include "net/message.hh"

namespace ddp::core {

/** Observation-stream property checker (see file comment). */
class PropertyChecker : public EventSink
{
  public:
    void onRead(net::NodeId node, net::KeyId key, net::Version version,
                sim::Tick issued_at, sim::Tick completed_at) override;

    void onWriteComplete(net::KeyId key, net::Version version,
                         sim::Tick completed_at) override;

    void onTornDetected(net::NodeId node, net::KeyId key,
                        net::Version rolled_back_to) override;

    void onTornInstall(net::NodeId node, net::KeyId key,
                       net::Version torn_version) override;

    /** Reads that returned an older version than a previous read saw. */
    std::uint64_t monotonicViolations() const { return monotonicViol; }

    /** Reads that missed a write completed before they were issued. */
    std::uint64_t staleReads() const { return staleViol; }

    /** Total reads observed. */
    std::uint64_t readsObserved() const { return reads; }

    /** Total write completions observed. */
    std::uint64_t writesObserved() const { return writes; }

    /**
     * Audit durability after a crash + recovery: count acknowledged
     * writes whose version exceeds the recovered version of their key.
     * @param recovered_version maps a key to its post-recovery version.
     */
    std::uint64_t
    auditLostWrites(const std::function<net::Version(net::KeyId)>
                        &recovered_version) const;

    /** Per-crash-epoch durability verdict against the Table 4 taxonomy. */
    struct DurabilityAudit
    {
        /** Keys whose latest acknowledged write did not survive. */
        std::uint64_t lostAckedKeys = 0;
        /** Individual acknowledged writes (any age) that did not
         *  survive — counts the whole lost suffix per key. */
        std::uint64_t lostAckedWrites = 0;
        /** Torn values installed as current by recovery (ablation). */
        std::uint64_t tornInstalled = 0;
        /** Reads that returned a torn value (cumulative). */
        std::uint64_t tornServed = 0;
        /** The audited model promises zero acked-write loss. */
        bool zeroLossRequired = false;

        /** Taxonomy violated: a zero-loss binding lost acked writes,
         *  or a torn value was served to a client. */
        bool
        violation() const
        {
            return (zeroLossRequired && lostAckedWrites > 0) ||
                   tornServed > 0;
        }
    };

    /**
     * Multi-crash-epoch durability audit: call once per crash, after
     * recovery has settled every key. Counts the acknowledged writes
     * lost at *this* crash point, then prunes them from the history so
     * the next crash epoch judges only writes that were still alive —
     * auditLostWrites() alone would double- or under-count across
     * epochs. Also advances the checker's crash-epoch counter.
     */
    DurabilityAudit
    auditDurability(const DdpModel &model,
                    const std::function<net::Version(net::KeyId)>
                        &recovered_version);

    /** Crash epochs audited so far. */
    std::uint64_t crashEpochs() const { return crashEpochCount; }
    /** Torn values recovery detected and rolled back (all nodes). */
    std::uint64_t tornDetected() const { return tornDetectedCount; }
    /** Torn values recovery installed as current (ablation mode). */
    std::uint64_t tornInstalls() const { return tornInstallCount; }
    /** Reads that returned a torn value. */
    std::uint64_t tornServed() const { return tornServedCount; }

    /** Forget observation state (not violation counters). */
    void resetObservations();

    void clear();

  private:
    static constexpr unsigned kReadPageShift = 10;
    static constexpr std::size_t kReadPageKeys = std::size_t{1}
                                                 << kReadPageShift;
    /**
     * The last version returned at one replica for kReadPageKeys
     * consecutive keys, split into two arrays to skip Version's
     * padding. A key never read holds Version{}, which sorts below
     * every real version.
     */
    struct ReadPage
    {
        std::uint64_t number[kReadPageKeys] = {};
        net::NodeId writer[kReadPageKeys] = {};
    };
    struct CompletedWrite
    {
        net::Version version;
        sim::Tick completedAt;
    };

    /** The page holding @p key's last read at @p node (made if absent). */
    ReadPage &readPage(net::NodeId node, net::KeyId key);

    /**
     * node -> key page -> last versions returned at that replica. Key
     * ids are dense below the cluster's keyCount (each protocol node
     * keeps a per-key array too), so a read is two indexed loads; a
     * page is allocated when one of its keys is first read.
     */
    std::vector<std::vector<std::unique_ptr<ReadPage>>> lastReads;
    /** key -> highest completed write and its completion time. */
    std::unordered_map<net::KeyId, CompletedWrite> completed;
    /**
     * key -> every acknowledged version still considered alive (not
     * yet judged lost by an earlier crash epoch's audit). Basis of the
     * per-epoch lost-suffix counting in auditDurability().
     */
    std::unordered_map<net::KeyId, std::vector<net::Version>> ackedAlive;
    /** (key, version) pairs recovery installed torn (ablation). */
    std::set<std::pair<net::KeyId, net::Version>> tornValues;

    std::uint64_t monotonicViol = 0;
    std::uint64_t staleViol = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t crashEpochCount = 0;
    std::uint64_t tornDetectedCount = 0;
    std::uint64_t tornInstallCount = 0;
    std::uint64_t tornServedCount = 0;
};

} // namespace ddp::core

#endif // DDP_CORE_CHECKERS_HH

/**
 * @file
 * The DDP protocol engine: one replica node of the cluster.
 *
 * Implements the paper's low-latency, leaderless protocols (Sec. 5) for
 * every <consistency, persistency> binding. Following Hermes
 * terminology, the node that receives a client's request for a key is
 * that request's Coordinator and every other node is a Follower; keys
 * are replicated on all nodes.
 *
 * The engine composes two orthogonal rule sets at their interaction
 * points:
 *
 *  - the consistency model decides when an update becomes visible
 *    (INV/ACK_c/VAL_c rounds for Linearizable and Read-Enforced,
 *    buffered-until-ENDX application for Transactional, dependency-
 *    ordered UPDs for Causal, arrival-ordered lazy UPDs for Eventual);
 *
 *  - the persistency model decides when an update becomes durable
 *    (persist-before-ACK for Strict/Synchronous, decoupled
 *    ACK_p/VAL_p for Read-Enforced, deferred scope barriers for Scope,
 *    lazy background persists for Eventual) and when reads must stall
 *    for durability.
 *
 * All timing flows through the shared EventQueue; worker-core
 * occupancy, cache-hierarchy latency, NVM bank/channel queueing, and
 * NIC serialization are charged via the substrate models.
 */

#ifndef DDP_CORE_PROTOCOL_NODE_HH
#define DDP_CORE_PROTOCOL_NODE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ddp/client_api.hh"
#include "sim/arena.hh"
#include "ddp/models.hh"
#include "ddp/recovery.hh"
#include "ddp/replication.hh"
#include "ddp/vector_clock.hh"
#include "ddp/xact_table.hh"
#include "kv/store.hh"
#include "mem/cache.hh"
#include "mem/memory_device.hh"
#include "mem/persist_image.hh"
#include "net/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/phase.hh"
#include "sim/resource.hh"
#include "sim/trace.hh"
#include "stats/counter.hh"

namespace ddp::core {

/** Per-node configuration (paper Table 5 defaults). */
struct NodeParams
{
    DdpModel model{};
    std::uint32_t numNodes = 5;
    /**
     * Replicas per key (0 = every node, the paper's setting). Partial
     * replication is supported for Linearizable, Read-Enforced, and
     * Eventual consistency; Causal and Transactional require full
     * replication (their metadata assumes every node sees every write).
     */
    std::uint32_t replicationFactor = 0;
    std::uint32_t workerCores = 20;
    std::uint64_t keyCount = 10000;
    kv::StoreKind storeKind = kv::StoreKind::HashTable;
    /**
     * Offset added to this node's id in property-checker observation
     * events. A sharded cluster runs several replica teams with
     * team-local ids 0..R-1 on separate fabrics; the offset keeps the
     * checker's per-(node, key) read streams distinct across teams.
     */
    std::uint32_t observerIdOffset = 0;

    /**
     * Base CPU cost of admitting and executing a client request
     * (request parse, dispatch, response marshaling — the application
     * work a memcached-class server performs per request).
     */
    sim::Tick opProcessing = 1000 * sim::kNanosecond;
    /** CPU cost of handling one protocol message. */
    sim::Tick msgProcessing = 60 * sim::kNanosecond;
    /**
     * Extra CPU cost of receiving a Causal UPD: dependency-clock
     * comparison and buffer management (cauhist enforcement is the
     * implementability cost Table 4 charges the Causal rows).
     */
    sim::Tick causalUpdOverhead = 60 * sim::kNanosecond;
    /**
     * CPU cost of re-admitting an operation after a stall wake-up.
     * Parked requests re-execute their checks when the key state
     * changes; under hot-key contention this wasted work grows with
     * the client count (the read/write conflict effect of Fig. 7).
     */
    sim::Tick stallRetryCost = 100 * sim::kNanosecond;
    /**
     * Transactional conflicts first stall-and-retry this many times
     * (the paper's "stall" flavor) before squashing the transaction
     * (the "squash" flavor).
     */
    std::uint32_t xactConflictRetries = 4;
    /** Delay between transactional conflict retries. */
    sim::Tick xactConflictRetryDelay = 500 * sim::kNanosecond;

    /**
     * Write-pending-queue coalescing of NVM persists (DESIGN.md §5.3).
     * Disable to ablate: every persist then issues its own NVM write
     * and hot keys serialize their bank.
     */
    bool persistCoalescing = true;

    /**
     * 64 B lines a value spans. NVM only persists a single line
     * atomically; a multi-line value persists line by line and a crash
     * mid-persist leaves a *torn* copy. 1 (default) keeps the classic
     * atomic-persist model. Values > 1 require persistCoalescing.
     */
    std::uint32_t valueLines = 1;
    /**
     * Guard every multi-line value with a per-value commit record
     * (checksum + version tag, itself a single-line atomic write
     * issued only after all data lines are durable). Recovery then
     * detects torn values by checksum mismatch and rolls back to the
     * last intact copy. Disable to ablate: recovery trusts the newest
     * version tag it finds and installs torn values.
     */
    bool commitRecords = true;

    /**
     * Durability gating of causal applies under Strict/Synchronous
     * persistency (DESIGN.md §5.5). Disable to ablate: UPDs then apply
     * as soon as their dependencies are *visible*, eliminating the
     * buffering the paper measures in Sec. 8.1.2.
     */
    bool causalDurableGating = true;
    /**
     * How long an access keeps colliding with other transactions'
     * accesses to the same key: the time the request is open in a
     * worker's processing pipeline, where the paper's conflict check
     * compares addresses. (A whole-transaction-lifetime window would
     * serialize every hot zipfian key and contradicts the paper's own
     * ~30% conflict rate at high throughput; see DESIGN.md §5.)
     */
    sim::Tick xactConflictWindow = 250 * sim::kNanosecond;
    /** CPU cost per store node/slot probe. */
    sim::Tick probeCost = 15 * sim::kNanosecond;
    /** Propagation laziness of Eventual consistency UPDs. */
    sim::Tick lazyUpdDelay = 5 * sim::kMicrosecond;
    /** Persist laziness of Eventual persistency. */
    sim::Tick lazyPersistDelay = 5 * sim::kMicrosecond;

    /**
     * Instant recovery (MM-DIRECT style): keys the background backfill
     * faults in per batch, and the interval between batches. The
     * request stream effectively prioritizes hot keys ahead of the
     * cursor because an on-demand fault-in warms a key before the
     * backfill reaches it.
     */
    std::uint32_t instantBackfillBatch = 64;
    sim::Tick instantBackfillInterval = 2 * sim::kMicrosecond;

    mem::MemoryParams nvmParams = mem::MemoryParams::nvm();
    mem::MemoryParams dramParams = mem::MemoryParams::dram();
    mem::CacheHierarchyParams cacheParams =
        mem::CacheHierarchyParams::paperDefault();

    /** Timeout/retry/quorum knobs of the crash-recovery coordinator. */
    RecoveryAgent::Tuning recoveryTuning{};

    /**
     * Overload backpressure (CoDel-style admission control on the
     * worker-core queue): when the core queuing delay stays above
     * shedTarget for shedInterval straight, the node sheds speculative
     * (hedged) requests at admission until the delay drops back under
     * the target. Shedding the hedges first protects the primaries —
     * a gray node swamped by its own slowness must not let duplicate
     * work collapse what capacity remains.
     */
    bool shedEnabled = false;
    /** Acceptable standing core-queue delay (CoDel's "target"). */
    sim::Tick shedTarget = 5 * sim::kMicrosecond;
    /** How long the delay must stay above target before shedding. */
    sim::Tick shedInterval = 100 * sim::kMicrosecond;
};

/**
 * One server of the distributed system: worker cores, cache hierarchy,
 * DRAM + NVM, a KV store backend, and the DDP protocol state machine.
 */
class ProtocolNode
{
  public:
    ProtocolNode(sim::EventQueue &eq, net::Fabric &fabric,
                 net::NodeId self, const NodeParams &params,
                 stats::CounterRegistry &counters,
                 XactConflictTable *xact_table);

    ProtocolNode(const ProtocolNode &) = delete;
    ProtocolNode &operator=(const ProtocolNode &) = delete;

    net::NodeId id() const { return self; }
    const NodeParams &params() const { return cfg; }
    const ReplicaMap &replicaMap() const { return rmap; }

    // --- Client API ------------------------------------------------------
    /** Issue a read of @p key at this node. */
    void clientRead(net::KeyId key, OpContext ctx, OpCompletion done);
    /**
     * Issue an ordered range scan over [key, key + len) at this node
     * (YCSB-E). Requires an ordered backend (kv::storeKindOrdered());
     * the scan honors the binding's read semantics per visited key —
     * see PROTOCOLS.md "Scan visibility" — before walking the
     * structure.
     */
    void clientScan(net::KeyId key, std::uint32_t len, OpContext ctx,
                    OpCompletion done);
    /** Issue a write of @p key at this node. */
    void clientWrite(net::KeyId key, OpContext ctx, OpCompletion done);
    /** Begin transaction @p xact_id (Transactional consistency only). */
    void clientInitXact(std::uint64_t xact_id, OpCompletion done);
    /** End transaction @p xact_id; @p commit false aborts it. */
    void clientEndXact(std::uint64_t xact_id, bool commit,
                       OpCompletion done);
    /** Persist scope @p scope_id (Scope persistency only). */
    void clientPersistScope(std::uint64_t scope_id, OpCompletion done);

    // --- Failure & recovery ------------------------------------------------
    /**
     * Lose all volatile state (caches, in-flight protocol state,
     * unpersisted replica versions). Durable NVM contents survive.
     * Bumps the node's epoch so stale messages and timer continuations
     * are discarded.
     */
    void crashVolatile();

    /**
     * Lose all volatile state like crashVolatile(), but *defer* the
     * durable-image scan: instead of replaying recover() over every
     * key, mark the whole key space cold and remember which keys had a
     * persist frozen in flight. Cold keys are faulted in on demand
     * (recoverOnDemand, checksum-verified) when a request or the
     * background backfill first touches them after the node re-joins
     * via beginInstantRecovery().
     */
    void crashVolatileInstant();

    /**
     * Re-join after crashVolatileInstant(): admit requests at once,
     * fault cold keys in on demand, and start the background backfill
     * that drains the rest of the image. @p freshest, when set, is
     * consulted per faulted key for the freshest version the live
     * peers hold (state transfer merged into the fault-in); @p done
     * fires when the last cold key has warmed.
     */
    void beginInstantRecovery(
        std::function<net::Version(net::KeyId)> freshest,
        std::function<void()> done);

    /** True between beginInstantRecovery() and backfill completion. */
    bool instantRecovering() const { return instantActive; }
    /** Cold keys the backfill has not yet faulted in. */
    std::uint64_t coldKeysRemaining() const { return coldRemaining; }

    /**
     * Acquire the key range [lo, hi) as a live, flow-controlled
     * background transfer — the data plane of a shard migration. The
     * node keeps serving everything else untouched; range keys go cold
     * and are faulted in on demand (requests park on them, exactly the
     * instant-recovery path) or by the background backfill, each
     * fault-in merging @p freshest — the newest version the source
     * team's live replicas hold. @p done fires when the last range key
     * has warmed. Must not overlap an instant recovery; a crash of
     * this node cancels the acquire (crashVolatile*() drop it) and the
     * cluster's recovery path takes over the transfer.
     */
    void beginRangeAcquire(
        net::KeyId lo, net::KeyId hi,
        std::function<net::Version(net::KeyId)> freshest,
        std::function<void()> done);

    /** True while a beginRangeAcquire() transfer is draining. */
    bool rangeAcquiring() const { return instantActive && rangeAcquireActive; }

    /**
     * Abandon all in-flight protocol state (rounds, buffered updates,
     * stalled operations) without losing volatile replica data. Used on
     * the surviving nodes when part of the cluster crashes: timeouts
     * would abort the affected exchanges in a real deployment.
     */
    void abortInFlight();

    /** Install @p version for @p key as both volatile and durable. */
    void installRecovered(net::KeyId key, net::Version version);

    /**
     * Take the node off the network (crashed, not yet restarted) or
     * bring it back. While down every inbound message is dropped and
     * client requests are swallowed (the issuing client's request
     * timeout detects the dead coordinator and fails over). Restart
     * deliberately does NOT bump the epoch: the survivors' epoch
     * advanced in lockstep at crash time and their traffic must keep
     * flowing.
     */
    void setDown(bool down);
    bool isDown() const { return downFlag; }

    /**
     * Liveness hint about a peer, maintained by the cluster's failure
     * detector: rounds started while a peer is down only wait for
     * acknowledgments from live followers, so the surviving majority
     * keeps completing writes during the victim's downtime. The peer
     * re-joins the replica group when marked up again.
     */
    void setPeerDown(net::NodeId peer, bool down);

    /**
     * Deliver a protocol message directly, bypassing the fabric. Used
     * by replay and interleaving-exploration tooling; normal traffic
     * arrives through the fabric attachment made in the constructor.
     */
    void deliver(const net::Message &msg) { handleMessage(msg); }

    /** Latest visible version of @p key on this node. */
    net::Version visibleVersion(net::KeyId key) const;
    /** Latest locally durable version of @p key. */
    net::Version persistedVersion(net::KeyId key) const;
    /**
     * Version of @p key's in-flight invalidation round, or the zero
     * version if none is pending. An INV carries the value, so this
     * is a write the node could serve once validated — the crash path
     * uses it to replay a dead coordinator's acknowledged writes from
     * the surviving replicas' transient copies.
     */
    net::Version pendingInvalidation(net::KeyId key) const;

    std::uint32_t epoch() const { return currentEpoch; }
    /** Keys with a coalesced NVM persist active or pending. */
    std::size_t persistsInFlight() const { return persistFlights.liveCount(); }

    // --- Introspection ------------------------------------------------------
    void setSink(EventSink *s) { sink = s; }

    /** Attach a timeline recorder; this node emits on track @p pid. */
    void
    setTrace(sim::TraceRecorder *t, std::uint32_t pid)
    {
        trace = t;
        tracePid = pid;
    }

    mem::MemoryDevice &nvm() { return nvmDev; }
    mem::MemoryDevice &dram() { return dramDev; }
    const mem::CacheHierarchy &caches() const { return hierarchy; }
    kv::Store &store() { return *backend; }

    /**
     * Degrade this node's worker-core service rate: every admission
     * charges its CPU cost multiplied by @p provider(now) (values
     * <= 1 mean healthy). Models a gray core — thermal throttling, a
     * co-tenant, a failing DIMM stealing memory bandwidth.
     */
    void
    setCoreSlowFactor(std::function<double(sim::Tick)> provider)
    {
        coreSlow = std::move(provider);
    }

    /**
     * The node's phi-accrual failure detector, fed by every protocol
     * message arrival. Consulted by the RecoveryAgent (suspected
     * non-repliers skip their retry rounds) and exposed for tests.
     */
    PhiAccrualDetector &failureDetector() { return detector; }

    /** True while the admission controller is shedding speculative
     *  requests (overload backpressure engaged). */
    bool shedding() const { return shedActive; }

    /**
     * The node's message-driven recovery participant. One node runs
     * RecoveryAgent::startCoordinator() after a cluster-wide crash;
     * the others answer its queries automatically.
     */
    RecoveryAgent &recoveryAgent() { return *recovery; }

    /** Largest causal buffer occupancy seen (paper Sec. 8.1.2). */
    std::uint64_t causalBufferPeak() const { return causalPeak; }
    /** Current causal buffer occupancy. */
    std::size_t causalBufferSize() const { return causalBuffered; }

    /** Applied-clock snapshot (Causal consistency). */
    const VectorClock &appliedClock() const { return applied; }

    /**
     * Adopt causal progress learned through recovery state transfer:
     * merge @p clock into the applied and durable-applied clocks and
     * drain any now-satisfiable buffered UPDs. A restarted node pulled
     * every value covered by the survivors' clocks, so UPDs that
     * depend on writes from its downtime window must not buffer
     * forever waiting for deliveries it can never receive.
     */
    void adoptCausalProgress(const VectorClock &clock);

    /**
     * Adopt a peer's newer visible version after an epoch change
     * (survivor view reconciliation): volatile state only, never
     * durability. The epoch bump of a partial crash drops in-flight
     * fire-and-forget value propagation between survivors that a real
     * network would still deliver; the cluster re-aligns the survivors
     * through this instead, as a real view change does.
     */
    void adoptVisible(net::KeyId key, net::Version version);

  private:
    // --- Per-key replica state ----------------------------------------------
    /**
     * One parked request, a cell of the node-wide waiter slab
     * (waiterSlab). Waiters of one key form an intrusive singly-linked
     * list through @c next (head/tail handles in KeyReplica), so
     * parking costs one slab alloc instead of growing a per-key vector,
     * and wakeWaiters can unlink mid-traversal without invalidating it.
     */
    struct Waiter
    {
        enum class Kind
        {
            KeyValid,      ///< reads: key not in Transient state
            WriteSlot,     ///< writes: no local pending write either
            GlobalPersist, ///< globalPersistVer >= ver
            LocalPersist,  ///< persistedVer >= ver
            KeyWarm,       ///< instant recovery: key faulted in
        };
        Kind kind = Kind::KeyValid;
        net::Version ver{};
        sim::InlineFn resume;
        /** When the request parked (for stall-phase attribution). */
        sim::Tick parkedAt = 0;
        /** Request's phase accumulator; wakeWaiters charges the stall
         *  and retry costs into it. Null for untracked waiters. */
        sim::PhaseAccum *acc = nullptr;
        /** Which phase the park time is attributed to. */
        sim::Phase stallPhase = sim::Phase::VisibilityStall;
        /** Next waiter of the same key (waiterSlab handle, 0 = end). */
        std::uint64_t next = 0;
    };

    /** Fires when a persist covering the obligation's version
     *  completes; the argument is the covering version. */
    using PersistObligation = std::function<void(net::Version)>;

    /**
     * Write-pending-queue coalescing state of one key: at most one NVM
     * write per key is in flight; persists requested meanwhile merge
     * into a single follow-up write of the newest version, exactly as
     * a memory controller combines stores to one line. A cell of
     * persistFlights, live only while the key has a persist active or
     * pending, so idle keys carry none of it.
     */
    struct PersistFlight
    {
        bool busy = false; ///< an NVM write of activeVer is in flight
        net::Version activeVer;
        bool activeArrival = false;
        std::vector<PersistObligation> activeObligations;
        bool hasPending = false; ///< a follow-up write is queued
        net::Version pendingVer;
        bool pendingArrival = false;
        std::vector<PersistObligation> pendingObligations;
    };

    struct KeyReplica
    {
        net::Version volatileVer;      ///< latest visible version
        net::Version persistedVer;     ///< durable in local NVM
        net::Version globalPersistVer; ///< durable on all replicas
        net::Version maxSeen;          ///< version-number allocator input
        bool transient = false;        ///< INV seen, VAL pending
        net::Version transientVer;
        std::uint64_t pendingOpId = 0; ///< local write round in flight
        /** Intrusive waiter list (waiterSlab handles, 0 = empty). */
        std::uint64_t waiterHead = 0;
        std::uint64_t waiterTail = 0;
        /** Coalescing record (persistFlights handle, 0 = none). */
        std::uint64_t persistFlight = 0;
    };
    // One KeyReplica per key per node: at 100k keys every byte here
    // costs 100 KB per node, so in-flight state lives in slabs instead.
    static_assert(sizeof(KeyReplica) <= 128,
                  "per-key state must stay within two cache lines");

    // --- Coordinator rounds -------------------------------------------------
    struct Round
    {
        enum class Kind
        {
            Write,
            InitXact,
            EndXact,
            ScopePersist,
        };
        Kind kind = Kind::Write;
        net::KeyId key = 0;
        net::Version ver{};
        std::uint64_t xactId = 0;
        std::uint64_t scopeId = 0;
        std::uint32_t acksC = 0;
        std::uint32_t acksP = 0;
        /** Follower acknowledgments this round waits for. */
        std::uint32_t followersNeeded = 0;
        std::uint32_t pendingLocalPersists = 0;
        bool consistencyDone = false;
        bool persistencyDone = false;
        bool clientNotified = false;
        sim::Tick issuedAt = 0;
        /** Exactly-once identity of the originating client request
         *  (clientSeq 0 = untracked); stamped onto VALs so followers
         *  learn applied sequence numbers. */
        std::uint32_t clientId = 0;
        std::uint64_t clientSeq = 0;
        OpCompletion done;
        /** Phase charges accumulated before the round started. */
        sim::PhaseAccum phases{};
        /** When the coordinator began waiting on the round. */
        sim::Tick startedAt = 0;
        /** Phase the wait (startedAt .. completion) is charged to. */
        sim::Phase waitPhase = sim::Phase::Replication;
    };

    // --- Transaction & scope records ---------------------------------------
    struct XactWrite
    {
        net::KeyId key = 0;
        net::Version ver{};
        std::uint64_t scopeId = 0;
    };

    struct XactRecord
    {
        std::uint64_t id = 0;
        net::NodeId coordinator = 0;
        bool aborted = false;
        bool hadConflict = false;
        /** Writes buffered until the transaction commits (both at the
         *  coordinator and at followers). */
        std::vector<XactWrite> writes;
        std::uint32_t pendingPersists = 0;
        std::uint64_t endRoundId = 0;
    };


    // --- Internal helpers ----------------------------------------------------
    /** NVM address of @p key's first value line. */
    std::uint64_t addrOf(net::KeyId key) const
    {
        return key * 64 * cfg.valueLines;
    }
    /** NVM address of @p key's commit record (multi-line values). */
    std::uint64_t commitAddrOf(net::KeyId key) const;
    std::uint64_t xactLogAddr(std::uint64_t xact_id) const;

    bool isAckRoundConsistency() const;
    KeyReplica &keyState(net::KeyId key);
    const KeyReplica &keyState(net::KeyId key) const;
    net::Version allocateVersion(net::KeyId key);
    void noteVersion(net::KeyId key, net::Version ver);

    void wakeWaiters(net::KeyId key);
    bool waiterSatisfied(net::KeyId key, const KeyReplica &kr,
                         const Waiter &w) const;
    /** Append a parked request to @p key's waiter list. */
    void parkWaiter(net::KeyId key, Waiter &&w);

    // Instant recovery (MM-DIRECT style on-demand fault-in).
    enum class KeyTemp : std::uint8_t
    {
        Warm,     ///< faulted in (or never cold); serves normally
        Cold,     ///< durable image not yet scanned for this key
        Faulting, ///< on-demand NVM load in flight
    };
    bool keyCold(net::KeyId key) const
    {
        return instantActive && keyTemp[key] != KeyTemp::Warm;
    }
    /** Consume crash-frozen staging for @p key if any (verified scan);
     *  returns the version the durable image settles on. */
    net::Version settleStaleStaging(net::KeyId key);
    /** Issue the NVM reads for one fault-in; returns the completion
     *  tick (when the slowest line arrives). */
    sim::Tick startFaultIn(net::KeyId key);
    void completeFaultIn(net::KeyId key);
    void installFaulted(net::KeyId key, net::Version ver);
    /** Arm the next background-backfill round after @p delay. */
    void scheduleBackfill(sim::Tick delay);
    void finishInstantRecovery();

    /** Charge local cache/store access; returns extra local latency. */
    sim::Tick chargeLocalAccess(net::KeyId key, bool is_write);

    net::Message makeMsg(net::MsgType type, net::KeyId key,
                         net::Version ver, std::uint64_t op_id) const;
    void sendTo(net::NodeId dst, net::Message msg);
    void broadcast(net::Message msg);
    /** Send @p msg to every *replica* of @p key except this node. */
    void multicast(net::KeyId key, net::Message msg);

    // Read path.
    struct ReadCtx;
    void execRead(net::KeyId key, std::shared_ptr<ReadCtx> rc);
    void finishRead(net::KeyId key, const std::shared_ptr<ReadCtx> &rc);

    // Scan path (YCSB-E).
    struct ScanCtx;
    void execScan(std::shared_ptr<ScanCtx> sc);
    void finishScan(const std::shared_ptr<ScanCtx> &sc);

    // Write path.
    struct WriteCtx;
    void execWrite(net::KeyId key, std::shared_ptr<WriteCtx> wc);
    void startAckRoundWrite(net::KeyId key,
                            const std::shared_ptr<WriteCtx> &wc);
    void startXactWrite(net::KeyId key,
                        const std::shared_ptr<WriteCtx> &wc);
    void startPropagatedWrite(net::KeyId key,
                              const std::shared_ptr<WriteCtx> &wc);

    // Persist machinery.
    void issuePersist(net::KeyId key, net::Version ver,
                      std::uint64_t round_id, bool follower_acks,
                      net::NodeId ack_dst, std::uint64_t ack_op,
                      bool arrival_order,
                      net::NodeId causal_origin = net::kNoNode,
                      std::uint64_t causal_seq = 0,
                      std::function<void()> on_durable = {});
    void startKeyPersist(net::KeyId key, net::Version ver,
                         bool arrival_order,
                         std::vector<PersistObligation> obligations);
    void onDataLinesDurable(net::KeyId key);
    void onKeyPersistDone(net::KeyId key);

    // Gray-failure machinery.
    /** CPU cost scaled by the node's core slow factor (if degraded). */
    sim::Tick scaledCost(sim::Tick cost) const;
    /**
     * CoDel-style admission check: update the sojourn state from the
     * current core-queue delay and return true when @p speculative
     * work should be shed instead of admitted.
     */
    bool admissionShed(bool speculative);
    /** Emit the suspicion counter track on a verdict transition. */
    void traceSuspicion(net::NodeId peer, bool before, bool after);

    // Exactly-once retransmission bookkeeping.
    void noteClientSeq(std::uint32_t client, std::uint64_t seq);
    std::uint32_t liveFollowers() const;
    std::uint32_t liveFollowerCount(net::KeyId key) const;

    // Coordinator round progress.
    void checkRound(std::uint64_t round_id);
    void completeWriteToClient(Round &round);

    // Message handlers (post core-occupancy).
    void handleMessage(const net::Message &msg);
    void processMessage(const net::Message &msg);
    void handleInv(const net::Message &msg);
    void handleAck(const net::Message &msg);
    void handleVal(const net::Message &msg);
    void handleUpd(const net::Message &msg);
    void handleInitX(const net::Message &msg);
    void handleEndX(const net::Message &msg);
    void handlePersistScope(const net::Message &msg);

    // Causal machinery.
    bool causalDepsSatisfied(const VectorClock &deps) const;
    void applyCausalUpd(const net::Message &msg);
    void noteCausalDurable(net::NodeId origin, std::uint64_t seq);
    void drainCausalBuffer();

    // Eventual-consistency lazy propagation.
    void enqueueLazyUpd(net::Message msg);
    void flushLazyUpds();

    // --- Members ----------------------------------------------------------
    sim::EventQueue &eq;
    net::Fabric &fabric;
    net::NodeId self;
    NodeParams cfg;
    stats::CounterRegistry &ctr;
    XactConflictTable *xactTable;
    EventSink *sink = nullptr;
    sim::TraceRecorder *trace = nullptr;
    std::uint32_t tracePid = 0;
    /** Async-span id allocator for this node's request track. */
    std::uint64_t traceSpanId = 0;

    mem::MemoryDevice nvmDev;
    mem::MemoryDevice dramDev;
    mem::CacheHierarchy hierarchy;
    std::unique_ptr<kv::Store> backend;
    sim::ResourcePool cores;

    std::vector<KeyReplica> keys;
    /**
     * All parked requests, across keys, in one free-listed slab; each
     * KeyReplica threads its own waiters through Waiter::next. A crash
     * frees the whole slab in one clear() (every outstanding handle
     * goes stale) instead of walking per-key vectors.
     */
    sim::ChunkedSlab<Waiter> waiterSlab;
    /** Coalescing records of the keys with a persist in flight. */
    sim::ChunkedSlab<PersistFlight> persistFlights;
    /**
     * In-flight coordinator rounds. The round id handed out to
     * messages (Message::opId) IS the generation-tagged slab handle:
     * an ack for a completed (freed) round dereferences to null and is
     * counted as unmatched, exactly like the old map's find-miss —
     * with no hashing on the hot path. Round& stays valid across
     * client callbacks (chunked storage never moves cells).
     */
    sim::ChunkedSlab<Round> rounds;
    std::unordered_map<std::uint64_t, XactRecord> xactRecs;
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<net::KeyId, net::Version>>>
        scopeBuffers;

    VectorClock applied;
    /**
     * Durable causal progress: entry i counts the UPDs from server i
     * whose local persists have completed, advanced contiguously.
     * Under Strict/Synchronous persistency a causal UPD may only be
     * applied once its dependencies are durable here — the buffering
     * cost the paper measures in Sec. 8.1.2.
     */
    VectorClock durableApplied;
    /** Out-of-order persist completions per origin (seq numbers). */
    std::vector<std::set<std::uint64_t>> pendingDurable;
    /**
     * Buffered out-of-order causal UPDs, one FIFO per origin: the
     * per-queue-pair in-order delivery guarantees per-origin sequence
     * order, so only queue heads ever need a dependency check.
     */
    std::vector<std::deque<net::Message>> causalBuffer;
    std::size_t causalBuffered = 0;
    std::uint64_t causalPeak = 0;

    std::vector<net::Message> lazyQueue;
    bool lazyFlushScheduled = false;

    std::unique_ptr<RecoveryAgent> recovery;
    std::uint32_t currentEpoch = 0;
    std::uint32_t followers;
    ReplicaMap rmap;

    /** Durable medium image: commit records + torn-persist tracking. */
    mem::PersistImage image;

    // --- Instant-recovery state -------------------------------------------
    /** True between beginInstantRecovery() and backfill completion. */
    bool instantActive = false;
    /** True when the active transfer is a shard range acquire, not a
     *  post-crash recovery (separates the two in counters). */
    bool rangeAcquireActive = false;
    /** Per-key temperature; sized keyCount only while recovering. */
    std::vector<KeyTemp> keyTemp;
    /** Cold keys left (Faulting counts as cold until installed). */
    std::uint64_t coldRemaining = 0;
    /** Keys whose multi-line persist the crash froze mid-flight; their
     *  staging is consumed lazily by the first post-crash touch. */
    std::set<net::KeyId> staleStaging;
    /** Freshest version live peers hold, per key (state transfer). */
    std::function<net::Version(net::KeyId)> freshestFn;
    std::function<void()> recoveryDoneFn;
    /** Next key the background backfill will examine. */
    net::KeyId backfillCursor = 0;

    // --- Gray-failure state -----------------------------------------------
    /** Core service-rate degradation (empty = healthy). */
    std::function<double(sim::Tick)> coreSlow;
    /** Adaptive failure detector over protocol-message arrivals. */
    PhiAccrualDetector detector;
    /** When the core-queue delay first exceeded shedTarget
     *  (kTickNever = currently under target). */
    sim::Tick shedFirstAboveAt = sim::kTickNever;
    /** Admission controller verdict: shedding speculative work. */
    bool shedActive = false;

    /** True while crashed-but-not-restarted (drops all traffic). */
    bool downFlag = false;
    /** peerUp[i] = failure detector's view of node i (self included). */
    std::vector<bool> peerUp;
    /** clientId -> highest applied client sequence number (dedup). */
    std::unordered_map<std::uint32_t, std::uint64_t> clientSeqSeen;
};

} // namespace ddp::core

#endif // DDP_CORE_PROTOCOL_NODE_HH

/**
 * @file
 * Client model: closed-loop by default, open-loop on demand.
 *
 * Each client is bound to one server (its coordinator), draws
 * operations from its own YCSB generator stream, and issues the next
 * request as soon as the previous one completes — the paper's
 * client-thread model. Under Transactional consistency the client
 * groups requests into transactions of cfg.xactLength operations and
 * retries squashed transactions after a random backoff; under Scope
 * persistency it emits a scope-persist request every cfg.scopeLength
 * operations.
 *
 * When cfg.openLoop is set the completion-driven loop is replaced by
 * an arrival-driven one: a per-client ArrivalStream (the client's
 * tenant's arrival process at rate/clients) decides when work arrives,
 * independent of completions. Up to cfg.inflightWindow requests run
 * concurrently; arrivals beyond that queue client-side (at most
 * cfg.clientQueueCap, the rest are shed), and the queueing wait is
 * charged to the ClientQueue phase so recorded latencies span arrival
 * to completion.
 *
 * When cfg.clientRequestTimeout > 0 the client also implements
 * coordinator failover: every request arms a timer, and on expiry the
 * client rotates to the next server and retransmits. Retransmitted
 * plain writes carry a per-client sequence number so a coordinator
 * that already applied the write acknowledges instead of re-executing
 * (exactly-once). Timed-out transaction attempts are retried from
 * scratch at the new coordinator; attempts are capped at
 * cfg.xactMaxAttempts, after which the batch is abandoned.
 */

#ifndef DDP_CLUSTER_CLIENT_HH
#define DDP_CLUSTER_CLIENT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "ddp/protocol_node.hh"
#include "shard/keymap.hh"
#include "sim/arena.hh"
#include "sim/random.hh"
#include "workload/arrival.hh"
#include "workload/trace.hh"
#include "workload/ycsb.hh"

namespace ddp::cluster {

class Cluster;

/** One client thread (closed- or open-loop). */
class Client
{
  public:
    Client(Cluster &owner, std::uint32_t id, std::uint32_t tenant_idx = 0);

    /** Begin issuing requests (schedules the first at the current tick). */
    void start();

    /**
     * Abandon any in-flight request (a crash invalidated it) and
     * resume the request loop at @p resume_at.
     */
    void restartAt(sim::Tick resume_at);

    /**
     * Forget a previous failover rotation: route new requests to the
     * home coordinator again. Called after a crashed node re-joins.
     * In-flight requests are unaffected.
     */
    void failback() { nodeOffset = 0; }

    std::uint32_t id() const { return clientId; }
    std::uint64_t opsIssued() const { return issued; }
    /** Tenant this client drives traffic for (open-loop accounting). */
    std::uint32_t tenantIdx() const { return tenant; }
    /** The client's operation generator (its zipf table is shared). */
    const workload::OpGenerator &generator() const { return gen; }

  private:
    bool openLoop() const;

    // --- Open-loop arrival engine ----------------------------------------
    /** Pull the next arrival from the stream and schedule it; stops
     *  once arrivals pass the run horizon. */
    void scheduleNextArrival();
    /** An arrival landed: account it as offered, then issue, queue, or
     *  shed it depending on the in-flight window and queue cap. */
    void onArrival(sim::Tick at);
    /** Start the request cycle for the arrival at @p arrival_at. */
    void beginCycle(sim::Tick arrival_at);
    /**
     * A request cycle ended (plain op completed, transaction committed
     * or was abandoned). Closed loop: issue the next request. Open
     * loop: release the in-flight slot, report the tenant outcome, and
     * drain one queued arrival if any.
     */
    void completeCycle(bool served, sim::Tick latency);
    /** Arm the periodic connection-churn rotation (cfg.churnInterval). */
    void armChurn();
    void churnTick(std::uint32_t gen_token);
    /**
     * Per-client in-flight bound: cfg.inflightWindow for plain-op
     * traffic, pinned at 1 when the serial request engine is in play
     * (a connection's transactions and scope flushes are ordered).
     */
    std::uint32_t effectiveWindow() const;
    /**
     * Open-loop plain-op cycle with slot-local state; unlike the
     * serial sendPlainOp machinery, any number of these may be in
     * flight concurrently (bounded by effectiveWindow()).
     */
    void issueOpenPlainOp(sim::Tick arrival_at);
    /**
     * One concurrent open-loop plain op, a cell of openSlots. Its
     * handle is all the timeout, router-hop and completion callbacks
     * capture; whichever of completion and timeout comes first frees
     * the cell, which orphans the other (a stale handle reads null).
     */
    struct OpenSlot
    {
        workload::Op op{};
        std::uint64_t seq = 0;
        sim::Tick arrivalAt = 0;
        std::uint32_t rotation = 0;
        sim::TimerId timer = sim::kNoTimer;
    };
    void sendOpenOp(workload::Op op, std::uint64_t seq,
                    sim::Tick arrival_at, std::uint32_t rotation);
    bool transactional() const;
    bool scoped() const;
    bool timeoutsEnabled() const;
    std::uint64_t currentScopeId() const;

    /**
     * Arm the request timer for the attempt identified by @p token;
     * cancels any previous timer. No-op when timeouts are disabled.
     */
    void armRequestTimer(std::uint64_t token);
    void cancelRequestTimer();
    /** A request timed out: rotate coordinators and retransmit. */
    void onRequestTimeout();

    void issueNext();
    void issueNow();
    void issuePlainOp();
    void sendPlainOp();
    void issueScopePersist();
    void sendScopePersist();

    // --- Routing ------------------------------------------------------------
    /**
     * Run @p fn after the router hop (charged to the Router phase by
     * the completion paths); inline when the hop is zero. The deferred
     * call is generation-guarded.
     */
    template <typename Fn> void routed(Fn &&fn);
    /** Hand the pending plain op of attempt @p token to its serving
     *  node(s) and arm a hedge if it is a read. */
    void dispatchPlainOp(std::uint64_t token);
    /**
     * Send a read, write or scan to its serving node(s): the member
     * @p pick selects in the key's team. Returns the node a read or
     * write went to (nullptr for a scan).
     */
    core::ProtocolNode *dispatchOp(const workload::Op &op,
                                   const core::OpContext &ctx,
                                   std::uint32_t pick,
                                   core::OpCompletion cb);
    /**
     * Scan [key, key+len) at every team whose ranges overlap it: each
     * team member walks its slice; the last sub-result to land is
     * forwarded to @p cb (the per-op residual phases absorb the join).
     * A scan inside one range goes straight to its node.
     */
    void sendScan(net::KeyId key, std::uint32_t len,
                  const core::OpContext &ctx, std::uint32_t pick,
                  core::OpCompletion cb);

    // --- Transactions (client-driven, per-team enrollment) ---------------
    void beginXactBatch();
    /** Begin an attempt: InitXact at op 0's team, then issue op 0. */
    void startXactAttempt();
    /** Stamp op @p index; enroll its team first if it needs one. */
    void issueXactOp(std::size_t index);
    /** InitXact at @p team, then resume with op @p index. */
    void enrollXact(std::uint32_t team, std::size_t index);
    /** Issue op @p index at @p team (token created here, *after* any
     *  enrollment — enrollment bumps the attempt token). */
    void dispatchXactOp(std::size_t index, std::uint32_t team);
    /**
     * Commit fan-out: participants[1..] serially, the coordinator
     * (participants[0], op 0's team) last — its EndX completion is the
     * transaction's visibility/durability point.
     */
    void commitXact(std::size_t cursor);
    /** Abort at every enrolled team, then back off and retry. */
    void abortXactThenRetry();
    void retryXactAfterBackoff();
    void commitRecorded(sim::Tick end_completed);

    // Hedged reads (plain reads only; the attempt token ties primary
    // and hedge together — whichever answers first bumps it, orphaning
    // the loser's completion).
    /** Arm the hedge trigger for the attempt @p token primary at
     *  @p primary, if hedging applies to the pending op. */
    void maybeArmHedge(std::uint64_t token, net::NodeId primary);
    /** Trigger fired: spend budget and issue the speculative read. */
    void fireHedge(std::uint64_t token, net::NodeId primary);
    void cancelHedgeTimer();
    /** Token-bucket refill by timestamp arithmetic (no timers). */
    void refillHedgeTokens();

    /** Next operation: from the replay trace or the generator. */
    workload::Op nextOp();

    /** What kind of request the current attempt token guards. */
    enum class Phase
    {
        Idle,
        PlainOp,
        ScopePersist,
        Xact,
    };

    Cluster &owner;
    std::uint32_t clientId;
    std::uint32_t tenant;
    workload::OpGenerator gen;
    std::optional<workload::TraceCursor> cursor;
    sim::Pcg32 rng;

    std::uint32_t generation = 0;
    std::uint64_t issued = 0;

    // Open-loop state.
    /** Arrival process (engaged only when cfg.openLoop). */
    std::optional<workload::ArrivalStream> arrivals;
    /** Requests (cycles) currently in flight, bounded by the window. */
    std::uint32_t inflight = 0;
    /** Arrival ticks waiting for an in-flight slot (<= clientQueueCap). */
    std::deque<sim::Tick> arrivalQueue;
    /** In-flight open-loop plain ops (see OpenSlot). */
    sim::ChunkedSlab<OpenSlot> openSlots;
    /** Arrival tick of the in-progress cycle (latency anchor). */
    sim::Tick cycleArrivalAt = 0;
    /** Arrival tick of the in-progress transaction batch. */
    sim::Tick xactArrivalAt = 0;
    /** Flash-crowd key shift already applied this run. */
    bool flashShifted = false;

    // Failover / retransmission state.
    std::uint32_t nodeOffset = 0;
    std::uint64_t reqSeq = 0;
    /** Monotonic attempt id; completions and timer expiries for stale
     *  attempts are discarded by comparing against it. */
    std::uint64_t attemptToken = 0;
    sim::TimerId reqTimer = sim::kNoTimer;
    Phase phase = Phase::Idle;
    /** In-flight plain op, kept for retransmission after failover. */
    workload::Op pendingOp{};
    std::uint64_t pendingSeq = 0;
    /** When the current plain-op attempt's primary was issued (end-to-
     *  end latency anchor for a winning hedge). */
    sim::Tick attemptIssuedAt = 0;

    // Hedged-read state.
    sim::TimerId hedgeTimer = sim::kNoTimer;
    /** A speculative read is outstanding for the current attempt. */
    bool hedgeInFlight = false;
    std::uint32_t hedgeTokens = 0;
    sim::Tick hedgeLastRefill = 0;

    // Scope state.
    std::uint64_t scopeSeq = 1;
    std::uint32_t opsSinceScopePersist = 0;

    /** Replies the current per-team fan (scope persist, transaction
     *  abort) still waits for; the attempt token orphans stale ones. */
    std::uint32_t fanPending = 0;
    /** Slices of the scan being dispatched (reused, never reallocated
     *  once grown). */
    std::vector<shard::RangeSlice> scanFan;

    // Transaction state.
    std::uint64_t xactSeq = 0;
    std::uint64_t curXactId = 0;
    std::uint32_t xactRetries = 0;
    std::uint32_t xactAttempts = 0;
    std::vector<workload::Op> xactOps;
    std::vector<sim::Tick> xactFirstIssue;
    std::vector<sim::Tick> xactOpDone;
    /** Phase breakdown of each op's last (successful) attempt. */
    std::vector<sim::PhaseAccum> xactOpPhases;

    /** Failover rotation pinned for the attempt, so every message of
     *  one attempt picks the same member within each team. */
    std::uint32_t xactRotation = 0;
    /** Teams enrolled (InitXact accepted) this attempt; [0] is the
     *  commit coordinator. */
    std::vector<std::uint32_t> xactParticipants;
    /** Team that served each op's last successful attempt. */
    std::vector<std::uint32_t> xactOpTeam;
    /** Version each write installed (stray-write forwarding needs it
     *  at commit time). */
    std::vector<net::Version> xactOpVersion;
};

} // namespace ddp::cluster

#endif // DDP_CLUSTER_CLIENT_HH

#include "cluster/client.hh"

#include <algorithm>
#include <cassert>

#include "cluster/cluster.hh"

namespace ddp::cluster {

using core::OpCompletion;
using core::OpContext;
using core::OpKind;
using core::OpResult;

Client::Client(Cluster &owner, std::uint32_t id, std::uint32_t tenant_idx)
    : owner(owner),
      clientId(id),
      tenant(tenant_idx),
      gen(owner.tenantSpec(tenant_idx).workload, owner.config().seed,
          id + 1, owner.zipfFor(tenant_idx)),
      rng(owner.config().seed ^ 0xc11e47, id + 1)
{
    hedgeTokens = owner.config().hedgeBurst;
    // One deterministic Latest-insertion frontier per tenant workload:
    // every client advances and reads the same frontier, so "latest"
    // means the run's newest insert rather than this client's own (a
    // per-client frontier understated recency skew and made workload D
    // behavior depend on the client count).
    gen.bindFrontier(owner.frontierFor(tenant_idx));
    if (owner.config().openLoop) {
        // Per-client arrival stream: the tenant's aggregate rate split
        // evenly across its connections (the process shape — bursts,
        // diurnal envelope, flash onset — is shared wall-clock time).
        workload::ArrivalSpec as = owner.tenantSpec(tenant_idx).arrival;
        std::uint32_t share = owner.tenantClientCount(tenant_idx);
        as.ratePerSec /= share > 0 ? share : 1;
        arrivals.emplace(as, owner.config().seed ^ 0xa221, id + 1);
    }
    const workload::Trace *trace = owner.config().trace;
    if (trace && !trace->empty()) {
        // Stagger replay start positions so clients do not move in
        // lockstep over the same keys.
        std::size_t stride =
            trace->size() / std::max(1u, owner.config().totalClients());
        cursor.emplace(*trace, stride * id);
    }
}

workload::Op
Client::nextOp()
{
    return cursor ? cursor->next() : gen.next();
}

bool
Client::transactional() const
{
    return owner.config().model.consistency ==
           core::Consistency::Transactional;
}

bool
Client::scoped() const
{
    return owner.config().model.persistency == core::Persistency::Scope;
}

bool
Client::timeoutsEnabled() const
{
    return owner.config().clientRequestTimeout > 0;
}

std::uint64_t
Client::currentScopeId() const
{
    return (static_cast<std::uint64_t>(clientId) + 1) << 32 | scopeSeq;
}

bool
Client::openLoop() const
{
    return owner.config().openLoop;
}

void
Client::start()
{
    if (openLoop()) {
        armChurn();
        scheduleNextArrival();
        return;
    }
    issueNext();
}

void
Client::restartAt(sim::Tick resume_at)
{
    ++generation;
    cancelRequestTimer();
    cancelHedgeTimer();
    hedgeInFlight = false;
    phase = Phase::Idle;
    nodeOffset = 0;
    xactOps.clear();
    opsSinceScopePersist = 0;
    ++scopeSeq;
    if (openLoop()) {
        // The crash wiped in-flight work and the client-side queue;
        // the survivors of those arrivals surface as timedOut in the
        // tenant tally (offered - served - shed at run end).
        inflight = 0;
        arrivalQueue.clear();
        openSlots.clear(); // the generation bump orphaned every slot
    }
    std::uint32_t g = generation;
    owner.queue().schedule(resume_at, [this, g] {
        if (g != generation)
            return;
        if (openLoop()) {
            armChurn();
            scheduleNextArrival();
        } else {
            issueNext();
        }
    });
}

// --------------------------------------------------------------------------
// Open-loop arrival engine
// --------------------------------------------------------------------------

void
Client::scheduleNextArrival()
{
    const ClusterConfig &cfg = owner.config();
    sim::Tick horizon = cfg.warmup + cfg.measure;
    sim::Tick at = arrivals->next();
    if (at >= horizon)
        return; // traffic ends with the run
    if (at < owner.now())
        at = owner.now(); // demand accrued during downtime lands now
    std::uint32_t g = generation;
    owner.queue().schedule(at, [this, g, at] {
        if (g == generation)
            onArrival(at);
    });
}

void
Client::onArrival(sim::Tick at)
{
    const ClusterConfig &cfg = owner.config();
    const workload::ArrivalSpec &as = owner.tenantSpec(tenant).arrival;
    if (!flashShifted && as.kind == workload::ArrivalKind::FlashCrowd &&
        at >= as.flashAt && as.flashKeyShift != 0) {
        // Flash-crowd onset: the tenant's accesses jump to a shifted
        // key region (hot-key migration), on top of the rate boost.
        gen.setKeyShift(as.flashKeyShift);
        flashShifted = true;
    }
    owner.noteTenantOffered(tenant, at);
    if (inflight >= effectiveWindow()) {
        if (arrivalQueue.size() >= cfg.clientQueueCap)
            owner.noteTenantShed(tenant);
        else
            arrivalQueue.push_back(at);
    } else {
        ++inflight;
        beginCycle(at);
    }
    scheduleNextArrival();
}

std::uint32_t
Client::effectiveWindow() const
{
    if (transactional() || scoped())
        return 1;
    std::uint32_t w = owner.config().inflightWindow;
    return w > 0 ? w : 1;
}

void
Client::beginCycle(sim::Tick arrival_at)
{
    cycleArrivalAt = arrival_at;
    if (!transactional() && !scoped()) {
        issueOpenPlainOp(arrival_at);
        return;
    }
    // Serial engine (window 1): the member-state machinery below is
    // safe because at most one cycle runs at a time.
    issueNow();
}

void
Client::completeCycle(bool served, sim::Tick latency)
{
    if (!openLoop()) {
        issueNext();
        return;
    }
    owner.noteTenantDone(tenant, served, latency);
    if (inflight > 0)
        --inflight;
    if (!arrivalQueue.empty() && inflight < effectiveWindow()) {
        sim::Tick at = arrivalQueue.front();
        arrivalQueue.pop_front();
        ++inflight;
        beginCycle(at);
    }
}

void
Client::issueOpenPlainOp(sim::Tick arrival_at)
{
    workload::Op op = nextOp();
    ++issued;
    sendOpenOp(op, ++reqSeq, arrival_at, 0);
}

void
Client::sendOpenOp(workload::Op op, std::uint64_t seq,
                   sim::Tick arrival_at, std::uint32_t rotation)
{
    std::uint32_t g = generation;
    std::uint64_t h = openSlots.alloc();
    OpenSlot &slot = openSlots.at(h);
    slot.op = op;
    slot.seq = seq;
    slot.arrivalAt = arrival_at;
    slot.rotation = rotation;
    if (timeoutsEnabled()) {
        slot.timer = owner.queue().scheduleTimerIn(
            owner.config().clientRequestTimeout, [this, g, h] {
                if (g != generation)
                    return;
                const OpenSlot *s = openSlots.get(h);
                if (s == nullptr)
                    return;
                OpenSlot timed_out = *s;
                openSlots.free(h); // orphan the slow attempt's reply
                owner.noteClientFailover();
                owner.noteClientRetransmit();
                sendOpenOp(timed_out.op, timed_out.seq,
                           timed_out.arrivalAt, timed_out.rotation + 1);
            });
    }
    routed([this, g, h] {
        if (g != generation)
            return;
        const OpenSlot *s = openSlots.get(h);
        if (s == nullptr)
            return;
        const workload::Op op = s->op;
        OpContext ctx;
        if (timeoutsEnabled() && op.type == workload::OpType::Write) {
            ctx.clientId = clientId;
            ctx.clientSeq = s->seq;
        }
        // See dispatchPlainOp: the completed version chases the key if
        // a migration moved it mid-flight.
        shard::TeamId served = owner.teamForKey(op.key);
        OpCompletion cb = [this, g, served, h,
                           key = op.key](const OpResult &r) {
            if (r.kind == OpKind::Write)
                owner.noteShardWrite(r.key, served, r.version);
            if (g != generation)
                return;
            const OpenSlot *done = openSlots.get(h);
            if (done == nullptr)
                return;
            sim::Tick arrival_at = done->arrivalAt;
            sim::TimerId timer = done->timer;
            openSlots.free(h);
            if (timer != sim::kNoTimer)
                owner.queue().cancelTimer(timer);
            owner.noteServerResponse(r.node, r.latency());
            // Arrival-anchored latency; the pre-issue wait (slot
            // queueing, failover gaps) is the ClientQueue phase.
            sim::Tick lat = r.completedAt - arrival_at;
            sim::PhaseAccum acc = r.phases;
            if (sim::Tick hop = owner.routerHop(); hop > 0)
                acc.add(sim::Phase::Router, hop);
            acc.add(sim::Phase::ClientQueue, lat - acc.sum());
            owner.recordOp(r.kind, lat, acc, key);
            completeCycle(true, lat);
        };
        // No hedging on this path: hedges are a closed-loop serial-
        // engine feature (their state is per-client, not per-slot).
        dispatchOp(op, ctx, clientId + nodeOffset + s->rotation,
                   std::move(cb));
    });
}

void
Client::armChurn()
{
    const sim::Tick period = owner.config().churnInterval;
    if (period == 0)
        return;
    // Stagger clients across the period so the pool's rotations spread
    // out instead of synchronizing on interval multiples.
    sim::Tick first =
        owner.now() + period + (period * (clientId % 16)) / 16;
    std::uint32_t g = generation;
    owner.queue().schedule(first, [this, g] { churnTick(g); });
}

void
Client::churnTick(std::uint32_t gen_token)
{
    if (gen_token != generation)
        return;
    // Rotate to the next coordinator, exactly as failover does;
    // in-flight requests keep their original target.
    ++nodeOffset;
    sim::Tick period = owner.config().churnInterval;
    owner.queue().schedule(owner.now() + period, [this, gen_token] {
        churnTick(gen_token);
    });
}

// --------------------------------------------------------------------------
// Routing
// --------------------------------------------------------------------------

template <typename Fn>
void
Client::routed(Fn &&fn)
{
    sim::Tick hop = owner.routerHop();
    if (hop == 0) {
        fn();
        return;
    }
    std::uint32_t g = generation;
    owner.queue().scheduleIn(
        hop, [this, g, fn = std::forward<Fn>(fn)]() mutable {
            if (g == generation)
                fn();
        });
}

core::ProtocolNode *
Client::dispatchOp(const workload::Op &op, const OpContext &ctx,
                   std::uint32_t pick, OpCompletion cb)
{
    if (op.type == workload::OpType::Scan) {
        sendScan(op.key, op.scanLen, ctx, pick, std::move(cb));
        return nullptr;
    }
    // Under partial replication the client routes each request to a
    // replica of the key (smart-client partition awareness).
    core::ProtocolNode &target = owner.nodeForKey(op.key, pick);
    if (op.type == workload::OpType::Read)
        target.clientRead(op.key, ctx, std::move(cb));
    else
        target.clientWrite(op.key, ctx, std::move(cb));
    return &target;
}

void
Client::sendScan(net::KeyId key, std::uint32_t len, const OpContext &ctx,
                 std::uint32_t pick, OpCompletion cb)
{
    owner.scanSlices(key, len, scanFan);
    assert(!scanFan.empty());
    if (scanFan.size() == 1) {
        owner.nodeForKey(key, pick).clientScan(key, len, ctx,
                                               std::move(cb));
        return;
    }
    auto remaining = std::make_shared<std::size_t>(scanFan.size());
    auto shared_cb = std::make_shared<OpCompletion>(std::move(cb));
    for (const shard::RangeSlice &s : scanFan) {
        owner.nodeForKey(s.lo, pick).clientScan(
            s.lo, static_cast<std::uint32_t>(s.hi - s.lo), ctx,
            [remaining, shared_cb](const OpResult &r) {
                // The scan completes when its slowest slice does; that
                // sub-result is forwarded (the caller's residual-phase
                // accounting absorbs the join wait).
                if (--*remaining == 0)
                    (*shared_cb)(r);
            });
    }
}

// --------------------------------------------------------------------------
// Request timeout and coordinator failover
// --------------------------------------------------------------------------

void
Client::armRequestTimer(std::uint64_t token)
{
    if (!timeoutsEnabled())
        return;
    cancelRequestTimer();
    std::uint32_t g = generation;
    reqTimer = owner.queue().scheduleTimerIn(
        owner.config().clientRequestTimeout, [this, g, token] {
            if (g != generation || token != attemptToken)
                return;
            reqTimer = sim::kNoTimer;
            onRequestTimeout();
        });
}

void
Client::cancelRequestTimer()
{
    if (reqTimer != sim::kNoTimer) {
        owner.queue().cancelTimer(reqTimer);
        reqTimer = sim::kNoTimer;
    }
}

void
Client::onRequestTimeout()
{
    // Invalidate the timed-out attempt so a late completion from a
    // merely slow (not dead) coordinator cannot double-drive the loop.
    ++attemptToken;
    ++nodeOffset;
    cancelHedgeTimer();
    if (hedgeInFlight) {
        // The hedge dies with the attempt (the token bump above
        // orphaned its completion).
        hedgeInFlight = false;
        owner.noteHedgeCancelled();
    }
    owner.noteClientFailover();
    switch (phase) {
      case Phase::PlainOp:
        owner.noteClientRetransmit();
        sendPlainOp();
        break;
      case Phase::ScopePersist:
        owner.noteClientRetransmit();
        sendScopePersist();
        break;
      case Phase::Xact:
        // The attempt died with its coordinator (the transaction
        // record is volatile); re-run the whole transaction at the
        // next server after the usual backoff.
        retryXactAfterBackoff();
        break;
      case Phase::Idle:
        break;
    }
}

// --------------------------------------------------------------------------
// Plain operations
// --------------------------------------------------------------------------

void
Client::issueNext()
{
    sim::Tick think = owner.config().clientThinkTime;
    if (think > 0) {
        std::uint32_t g = generation;
        owner.queue().scheduleIn(think, [this, g] {
            if (g == generation)
                issueNow();
        });
        return;
    }
    issueNow();
}

void
Client::issueNow()
{
    if (scoped() && opsSinceScopePersist >= owner.config().scopeLength) {
        issueScopePersist();
        return;
    }
    if (transactional()) {
        beginXactBatch();
    } else {
        issuePlainOp();
    }
}

void
Client::issuePlainOp()
{
    pendingOp = nextOp();
    ++issued;
    pendingSeq = ++reqSeq;
    phase = Phase::PlainOp;
    sendPlainOp();
}

void
Client::sendPlainOp()
{
    std::uint64_t token = ++attemptToken;
    std::uint32_t g = generation;
    armRequestTimer(token);
    attemptIssuedAt = owner.now();
    routed([this, g, token] {
        if (g == generation && token == attemptToken)
            dispatchPlainOp(token);
    });
}

void
Client::dispatchPlainOp(std::uint64_t token)
{
    std::uint32_t g = generation;
    OpContext ctx;
    ctx.scopeId = scoped() ? currentScopeId() : 0;
    if (timeoutsEnabled() && pendingOp.type == workload::OpType::Write) {
        // Retransmission identity: if this write has to be retried at
        // another coordinator, a node that already applied it will
        // acknowledge instead of re-executing.
        ctx.clientId = clientId;
        ctx.clientSeq = pendingSeq;
    }
    // The serving team is resolved here, at dispatch; if a migration
    // flips ownership while a write is in flight, the completed
    // version must chase the key to its new owner. noteShardWrite runs
    // before the staleness guards — a write orphaned by a client
    // timeout still happened at the server.
    shard::TeamId served = owner.teamForKey(pendingOp.key);
    OpCompletion cb = [this, g, served, token](const OpResult &r) {
        if (r.kind == OpKind::Write)
            owner.noteShardWrite(r.key, served, r.version);
        if (g != generation || token != attemptToken)
            return;
        cancelRequestTimer();
        cancelHedgeTimer();
        if (hedgeInFlight) {
            // Primary won the race; orphan the hedge's completion.
            ++attemptToken;
            hedgeInFlight = false;
            owner.noteHedgeCancelled();
        }
        owner.noteServerResponse(r.node, r.latency());
        phase = Phase::Idle;
        sim::Tick lat = r.latency();
        sim::PhaseAccum acc = r.phases;
        if (sim::Tick hop = owner.routerHop(); hop > 0) {
            // The request crossed the shard router on its way in.
            acc.add(sim::Phase::Router, hop);
            lat += hop;
        }
        if (openLoop()) {
            // Arrival-anchored latency: everything between the arrival
            // and the (last) issue — waiting for an in-flight slot,
            // failover gaps — is the ClientQueue phase.
            lat = r.completedAt - cycleArrivalAt;
            acc.add(sim::Phase::ClientQueue, lat - acc.sum());
        }
        owner.recordOp(r.kind, lat, acc, pendingOp.key);
        ++opsSinceScopePersist;
        completeCycle(true, lat);
    };
    // Scans are never hedged: a range walk is too expensive to
    // duplicate speculatively for a tail win.
    core::ProtocolNode *target =
        dispatchOp(pendingOp, ctx, clientId + nodeOffset, std::move(cb));
    if (pendingOp.type == workload::OpType::Read)
        maybeArmHedge(token, target->id());
}

// --------------------------------------------------------------------------
// Hedged reads
// --------------------------------------------------------------------------

void
Client::cancelHedgeTimer()
{
    if (hedgeTimer != sim::kNoTimer) {
        owner.queue().cancelTimer(hedgeTimer);
        hedgeTimer = sim::kNoTimer;
    }
}

void
Client::refillHedgeTokens()
{
    std::uint32_t burst = owner.config().hedgeBurst;
    sim::Tick refill = owner.config().hedgeRefill;
    sim::Tick now = owner.now();
    if (refill == 0) {
        hedgeTokens = burst;
        return;
    }
    if (hedgeTokens >= burst) {
        hedgeLastRefill = now;
        return;
    }
    std::uint64_t earned = (now - hedgeLastRefill) / refill;
    if (earned == 0)
        return;
    std::uint64_t total = hedgeTokens + earned;
    hedgeTokens = total > burst ? burst
                                : static_cast<std::uint32_t>(total);
    hedgeLastRefill += earned * refill;
}

void
Client::maybeArmHedge(std::uint64_t token, net::NodeId primary)
{
    if (!owner.config().hedgedReads)
        return;
    // Only the adaptive estimate decides when the primary looks slow;
    // until it has evidence, nothing hedges.
    sim::Tick delay = owner.hedgeDelayFor(primary);
    if (delay == 0)
        return;
    std::uint32_t g = generation;
    hedgeTimer = owner.queue().scheduleTimerIn(
        delay, [this, g, token, primary] {
            hedgeTimer = sim::kNoTimer;
            if (g != generation || token != attemptToken)
                return;
            fireHedge(token, primary);
        });
}

void
Client::fireHedge(std::uint64_t token, net::NodeId primary)
{
    refillHedgeTokens();
    if (hedgeTokens == 0)
        return; // budget exhausted: eat the tail this time
    net::NodeId peer = owner.hedgePeerFor(pendingOp.key, primary);
    if (peer == net::kNoNode)
        return; // no admissible replica under the bound model
    --hedgeTokens;
    hedgeInFlight = true;
    owner.noteHedgeSent();

    OpContext ctx;
    ctx.scopeId = scoped() ? currentScopeId() : 0;
    ctx.speculative = true;
    std::uint32_t g = generation;
    OpCompletion cb = [this, g, token](const OpResult &r) {
        if (g != generation || token != attemptToken)
            return;
        if (r.aborted) {
            // Shed at the peer's admission door: the hedge lost its
            // race before it started; the primary still runs.
            hedgeInFlight = false;
            return;
        }
        // Hedge won: orphan the primary's completion and timer.
        ++attemptToken;
        cancelRequestTimer();
        hedgeInFlight = false;
        owner.noteHedgeWon();
        owner.noteServerResponse(r.node, r.latency());
        phase = Phase::Idle;
        // End-to-end latency spans from the *primary's* issue; the
        // wait before the hedge fired is time spent on the remote
        // primary, charged to Replication so the phase sum still
        // equals the recorded latency.
        sim::Tick lat = r.completedAt - attemptIssuedAt;
        sim::PhaseAccum acc = r.phases;
        acc.add(sim::Phase::Replication, lat - acc.sum());
        if (openLoop()) {
            // Extend further back to the arrival (see sendPlainOp).
            lat = r.completedAt - cycleArrivalAt;
            acc.add(sim::Phase::ClientQueue, lat - acc.sum());
        }
        owner.recordOp(r.kind, lat, acc, pendingOp.key);
        ++opsSinceScopePersist;
        completeCycle(true, lat);
    };
    owner.node(peer).clientRead(pendingOp.key, ctx, std::move(cb));
}

void
Client::issueScopePersist()
{
    phase = Phase::ScopePersist;
    sendScopePersist();
}

void
Client::sendScopePersist()
{
    // The scope's writes were routed per key, so any team may hold
    // some of them: flush the scope everywhere and complete when the
    // last team acknowledges. One token and one timer guard the whole
    // fan — a timeout retransmits the full fan at the next rotation.
    std::uint64_t token = ++attemptToken;
    std::uint32_t g = generation;
    armRequestTimer(token);
    routed([this, g, token] {
        if (g != generation || token != attemptToken)
            return;
        fanPending = owner.numTeams();
        for (std::uint32_t t = 0; t < owner.numTeams(); ++t) {
            owner.nodeInTeam(t, clientId + nodeOffset)
                .clientPersistScope(
                    currentScopeId(), [this, g, token](const OpResult &r) {
                        if (g != generation || token != attemptToken ||
                            --fanPending > 0)
                            return;
                        cancelRequestTimer();
                        phase = Phase::Idle;
                        sim::Tick hop = owner.routerHop();
                        sim::PhaseAccum acc = r.phases;
                        acc.add(sim::Phase::Router, hop);
                        owner.recordOp(r.kind, r.latency() + hop, acc);
                        opsSinceScopePersist = 0;
                        ++scopeSeq;
                        // The scope flush is an intra-cycle step under
                        // open loop: the arrival that triggered it
                        // still owes its own operation.
                        if (openLoop())
                            issueNow();
                        else
                            issueNext();
                    });
        }
    });
}

// --------------------------------------------------------------------------
// Transactions
// --------------------------------------------------------------------------
//
// Batches are client-driven: an attempt begins with InitXact at op 0's
// team, enrolls lazily at every other team a read or write touches,
// issues each op at its key's owner team, and commits with an EndX
// fan — participants[1..] first, the coordinator (participants[0])
// last, so the coordinator's commit is the transaction's visibility
// and durability point. Any abort tears the attempt down at every
// enrolled team before the usual backoff + retry. Conflict detection
// stays per team (each team's engine sees only its slice of the
// batch); the ConflictRetry residual in commitRecorded absorbs the
// enrollment and fan-out overhead. On a one-team cluster this is the
// paper's single replica group: InitXact, the ops, one EndX.

void
Client::beginXactBatch()
{
    std::uint32_t len = owner.config().xactLength;
    xactArrivalAt = cycleArrivalAt;
    xactOps.clear();
    for (std::uint32_t i = 0; i < len; ++i)
        xactOps.push_back(nextOp());
    xactFirstIssue.assign(len, 0);
    xactOpDone.assign(len, 0);
    xactOpPhases.assign(len, sim::PhaseAccum{});
    xactAttempts = 0;
    phase = Phase::Xact;
    startXactAttempt();
}

void
Client::startXactAttempt()
{
    ++xactAttempts;
    ++xactSeq;
    curXactId = (static_cast<std::uint64_t>(clientId) + 1) << 32 | xactSeq;
    xactRotation = nodeOffset;
    xactParticipants.clear();
    xactOpTeam.assign(xactOps.size(), 0);
    xactOpVersion.assign(xactOps.size(), net::Version{});
    // The attempt begins at op 0's team, before op 0 is stamped: the
    // begin exchange is the transaction's, not op 0's latency.
    enrollXact(xactOps.empty() ? 0 : owner.teamForKey(xactOps[0].key), 0);
}

void
Client::issueXactOp(std::size_t index)
{
    if (index >= xactOps.size()) {
        commitXact(0);
        return;
    }
    const workload::Op &op = xactOps[index];
    if (xactFirstIssue[index] == 0) {
        xactFirstIssue[index] = owner.now();
        ++issued;
    }
    std::uint32_t team = owner.teamForKey(op.key);
    // Scans ride outside conflict detection (see PROTOCOLS.md, "Scan
    // visibility"), so they never enroll a team — the fan-out may
    // touch teams that never join the transaction.
    if (op.type != workload::OpType::Scan &&
        std::find(xactParticipants.begin(), xactParticipants.end(),
                  team) == xactParticipants.end()) {
        enrollXact(team, index);
        return;
    }
    dispatchXactOp(index, team);
}

void
Client::enrollXact(std::uint32_t team, std::size_t index)
{
    std::uint64_t token = ++attemptToken;
    std::uint32_t g = generation;
    armRequestTimer(token);
    routed([this, g, token, team, index] {
        if (g != generation || token != attemptToken)
            return;
        owner.nodeInTeam(team, clientId + xactRotation)
            .clientInitXact(curXactId, [this, g, token, team,
                                        index](const OpResult &r) {
                if (g != generation || token != attemptToken)
                    return;
                cancelRequestTimer();
                if (r.aborted) {
                    abortXactThenRetry();
                    return;
                }
                xactParticipants.push_back(team);
                issueXactOp(index);
            });
    });
}

void
Client::dispatchXactOp(std::size_t index, std::uint32_t team)
{
    OpContext ctx;
    ctx.xactId = curXactId;
    ctx.scopeId = scoped() ? currentScopeId() : 0;
    std::uint64_t token = ++attemptToken;
    std::uint32_t g = generation;
    OpCompletion cb = [this, g, token, index, team](const OpResult &r) {
        if (g != generation || token != attemptToken)
            return;
        cancelRequestTimer();
        if (r.aborted) {
            abortXactThenRetry();
            return;
        }
        xactOpDone[index] = r.completedAt;
        xactOpPhases[index] = r.phases;
        xactOpPhases[index].add(sim::Phase::Router, owner.routerHop());
        xactOpTeam[index] = team;
        xactOpVersion[index] = r.version;
        issueXactOp(index + 1);
    };
    armRequestTimer(token);
    routed([this, g, token, index, team, ctx,
            cb = std::move(cb)]() mutable {
        if (g != generation || token != attemptToken)
            return;
        const workload::Op &op = xactOps[index];
        std::uint32_t pick = clientId + xactRotation;
        if (op.type == workload::OpType::Scan)
            sendScan(op.key, op.scanLen, ctx, pick, std::move(cb));
        else if (op.type == workload::OpType::Read)
            owner.nodeInTeam(team, pick).clientRead(op.key, ctx,
                                                    std::move(cb));
        else
            owner.nodeInTeam(team, pick).clientWrite(op.key, ctx,
                                                     std::move(cb));
    });
}

void
Client::commitXact(std::size_t cursor)
{
    bool last = cursor + 1 >= xactParticipants.size();
    std::uint32_t team =
        last ? xactParticipants[0] : xactParticipants[cursor + 1];
    std::uint64_t token = ++attemptToken;
    std::uint32_t g = generation;
    armRequestTimer(token);
    routed([this, g, token, team, cursor, last] {
        if (g != generation || token != attemptToken)
            return;
        owner.nodeInTeam(team, clientId + xactRotation)
            .clientEndXact(curXactId, true, [this, g, token, team, cursor,
                                             last](const OpResult &r) {
                if (g != generation || token != attemptToken)
                    return;
                cancelRequestTimer();
                if (r.aborted) {
                    // The refusing team already dropped its record.
                    std::erase(xactParticipants, team);
                    abortXactThenRetry();
                    return;
                }
                if (!last) {
                    commitXact(cursor + 1);
                    return;
                }
                phase = Phase::Idle;
                xactRetries = 0;
                commitRecorded(r.completedAt);
                // The batch's writes are now visible; if a migration
                // moved any of their keys since dispatch, the committed
                // versions must chase them (see noteShardWrite).
                for (std::size_t i = 0; i < xactOps.size(); ++i)
                    if (xactOps[i].type == workload::OpType::Write)
                        owner.noteShardWrite(xactOps[i].key,
                                             xactOpTeam[i],
                                             xactOpVersion[i]);
                opsSinceScopePersist +=
                    static_cast<std::uint32_t>(xactOps.size());
                completeCycle(true, r.completedAt - xactArrivalAt);
            });
    });
}

void
Client::abortXactThenRetry()
{
    if (xactParticipants.empty()) {
        retryXactAfterBackoff();
        return;
    }
    // Tear the attempt down everywhere before retrying: a leftover
    // active record would hold its keys' conflict entries.
    std::uint64_t token = ++attemptToken;
    std::uint32_t g = generation;
    armRequestTimer(token);
    routed([this, g, token] {
        if (g != generation || token != attemptToken)
            return;
        fanPending = static_cast<std::uint32_t>(xactParticipants.size());
        for (std::uint32_t team : xactParticipants)
            owner.nodeInTeam(team, clientId + xactRotation)
                .clientEndXact(curXactId, false,
                               [this, g, token](const OpResult &) {
                    if (g != generation || token != attemptToken ||
                        --fanPending > 0)
                        return;
                    cancelRequestTimer();
                    retryXactAfterBackoff();
                });
    });
}

void
Client::commitRecorded(sim::Tick end_completed)
{
    // Reads count with their own response times; writes become truly
    // visible at the transaction end (the VP of Transactional
    // consistency), so their latency extends to ENDX completion. Both
    // span every retry of the transaction.
    // Phase attribution: the last attempt's breakdown is kept; time
    // spent on earlier (squashed or timed-out) attempts and backoff —
    // the gap between the batch's first issue and the last attempt's —
    // is charged to ConflictRetry, and a write's tail from its own
    // completion to ENDX is charged to XactCommit. The per-op phase
    // sums then exactly equal the recorded latencies.
    // Open loop additionally extends each op back to the batch's
    // arrival (the whole batch "arrived" at once): the pre-issue span
    // — slot wait plus time spent behind batch siblings — is the
    // ClientQueue phase.
    for (std::size_t i = 0; i < xactOps.size(); ++i) {
        bool readish = xactOps[i].type != workload::OpType::Write;
        OpKind kind = xactOps[i].type == workload::OpType::Read
                          ? OpKind::Read
                          : (readish ? OpKind::Scan : OpKind::Write);
        sim::Tick done = readish ? xactOpDone[i] : end_completed;
        sim::Tick lat = done - xactFirstIssue[i];
        sim::PhaseAccum acc = xactOpPhases[i];
        if (!readish)
            acc.add(sim::Phase::XactCommit,
                    end_completed - xactOpDone[i]);
        acc.add(sim::Phase::ConflictRetry, lat - acc.sum());
        if (openLoop()) {
            lat = done - xactArrivalAt;
            acc.add(sim::Phase::ClientQueue, lat - acc.sum());
        }
        owner.recordOp(kind, lat, acc, xactOps[i].key);
    }
}

void
Client::retryXactAfterBackoff()
{
    if (xactAttempts >= owner.config().xactMaxAttempts) {
        // Livelock backstop: drop the batch rather than spin forever
        // (e.g. every coordinator unreachable, or pathological
        // conflict storms).
        owner.noteXactAbandoned();
        phase = Phase::Idle;
        xactRetries = 0;
        completeCycle(false, 0);
        return;
    }
    // Exponential backoff breaks retry livelock on hot zipfian keys:
    // contended clients drain out of the active-transaction set until
    // the conflict probability is sustainable.
    if (xactRetries < 6)
        ++xactRetries;
    sim::Tick window = owner.config().xactRetryBackoff << xactRetries;
    sim::Tick delay =
        window == 0
            ? 0
            : rng.nextU64() % window;
    std::uint32_t g = generation;
    owner.queue().scheduleIn(delay, [this, g] {
        if (g == generation)
            startXactAttempt();
    });
}

} // namespace ddp::cluster

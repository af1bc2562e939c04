#include "ddp/protocol_node.hh"

#include <algorithm>
#include <cassert>
#include <functional>
#include <span>
#include <stdexcept>

namespace ddp::core {

using net::KeyId;
using net::Message;
using net::MsgType;
using net::NodeId;
using net::Version;

ProtocolNode::ProtocolNode(sim::EventQueue &eq, net::Fabric &fabric,
                           NodeId self, const NodeParams &params,
                           stats::CounterRegistry &counters,
                           XactConflictTable *xact_table)
    : eq(eq),
      fabric(fabric),
      self(self),
      cfg(params),
      ctr(counters),
      hot(counters),
      xactTable(xact_table),
      nvmDev(params.nvmParams),
      dramDev(params.dramParams),
      hierarchy(params.cacheParams),
      backend(kv::makeStore(params.storeKind)),
      cores(params.workerCores),
      keys(params.keyCount),
      applied(params.numNodes),
      durableApplied(params.numNodes),
      pendingDurable(params.numNodes),
      causalBuffer(params.numNodes),
      followers(params.numNodes - 1),
      rmap(params.numNodes, params.replicationFactor),
      image(params.keyCount, params.valueLines == 0 ? 1
                                                    : params.valueLines,
            params.commitRecords),
      detector(params.numNodes),
      peerUp(params.numNodes, true)
{
    if (!rmap.full() &&
        (cfg.model.consistency == Consistency::Causal ||
         cfg.model.consistency == Consistency::Transactional)) {
        throw std::invalid_argument(
            "partial replication requires Linearizable, Read-Enforced, "
            "or Eventual consistency");
    }
    if (cfg.valueLines == 0)
        throw std::invalid_argument("valueLines must be >= 1");
    if (cfg.valueLines > 1 && !cfg.persistCoalescing) {
        // The line-by-line persist protocol assumes at most one
        // in-flight NVM write per key, which coalescing guarantees.
        throw std::invalid_argument(
            "valueLines > 1 requires persistCoalescing");
    }

    RecoveryAgent::Hooks hooks;
    hooks.persistedVersion = [this](KeyId key) {
        return persistedVersion(key);
    };
    hooks.install = [this](KeyId key, Version ver) {
        installRecovered(key, ver);
    };
    hooks.send = [this](NodeId dst, Message m) {
        m.src = this->self;
        m.epoch = currentEpoch;
        sendTo(dst, std::move(m));
    };
    hooks.broadcast = [this](Message m) {
        m.src = this->self;
        m.epoch = currentEpoch;
        broadcast(std::move(m));
    };
    hooks.now = [this] { return this->eq.now(); };
    hooks.startTimer = [this](sim::Tick delay,
                              std::function<void()> fire) {
        // Timer continuations from before a crash must not run into
        // the post-crash world: guard with the epoch, like messages.
        std::uint32_t ep = currentEpoch;
        return this->eq.scheduleTimerIn(
            delay, [this, ep, fire = std::move(fire)] {
                if (ep == currentEpoch)
                    fire();
            });
    };
    hooks.cancelTimer = [this](sim::TimerId id) {
        this->eq.cancelTimer(id);
    };
    hooks.peerSuspected = [this](NodeId peer) {
        bool before = detector.lastVerdict(peer);
        bool after = detector.suspected(peer, this->eq.now());
        traceSuspicion(peer, before, after);
        return after;
    };
    recovery = std::make_unique<RecoveryAgent>(self, params.numNodes,
                                               std::move(hooks),
                                               params.recoveryTuning);

    fabric.attach(self, [this](const Message &m) { handleMessage(m); });
}

ProtocolNode::HotCounters::HotCounters(stats::CounterRegistry &r)
    : persistsIssued(r.counter("persists_issued")),
      persistsCoalesced(r.counter("persists_coalesced")),
      commitRecordsWritten(r.counter("commit_records_written")),
      readsCompleted(r.counter("reads_completed")),
      writesCompleted(r.counter("writes_completed")),
      scansCompleted(r.counter("scans_completed")),
      scanKeysVisited(r.counter("scan_keys_visited")),
      readsStalledVisibility(r.counter("reads_stalled_visibility")),
      readsStalledPersist(r.counter("reads_stalled_persist")),
      invSent(r.counter("inv_sent")),
      updSent(r.counter("upd_sent")),
      causalBuffered(r.counter("causal_buffered")),
      acksUnmatched(r.counter("acks_unmatched")),
      msgsDroppedNodeDown(r.counter("msgs_dropped_node_down"))
{
}

// --------------------------------------------------------------------------
// Small helpers
// --------------------------------------------------------------------------

sim::Tick
ProtocolNode::scaledCost(sim::Tick cost) const
{
    if (!coreSlow)
        return cost;
    double f = coreSlow(eq.now());
    if (f <= 1.0)
        return cost;
    return static_cast<sim::Tick>(static_cast<double>(cost) * f);
}

bool
ProtocolNode::admissionShed(bool speculative)
{
    if (!cfg.shedEnabled)
        return false;
    sim::Tick now = eq.now();
    sim::Tick free_at = cores.earliestFree();
    sim::Tick qdelay = free_at > now ? free_at - now : 0;
    if (qdelay <= cfg.shedTarget) {
        // Sojourn dropped under target: disarm (CoDel's reset).
        shedFirstAboveAt = sim::kTickNever;
        if (shedActive && trace)
            trace->instant(tracePid, 0, "shed_off", now);
        shedActive = false;
        return false;
    }
    if (shedFirstAboveAt == sim::kTickNever)
        shedFirstAboveAt = now;
    if (!shedActive && now - shedFirstAboveAt >= cfg.shedInterval) {
        shedActive = true;
        if (trace)
            trace->instant(tracePid, 0, "shed_on", now);
    }
    return shedActive && speculative;
}

void
ProtocolNode::traceSuspicion(NodeId peer, bool before, bool after)
{
    if (!trace || before == after)
        return;
    // Counter series keys must be static literals; clusters larger
    // than the table collapse onto one overflow series.
    static const char *const kPeerSeries[] = {
        "peer0",  "peer1",  "peer2",  "peer3",  "peer4",  "peer5",
        "peer6",  "peer7",  "peer8",  "peer9",  "peer10", "peer11",
        "peer12", "peer13", "peer14", "peer15",
    };
    const char *series =
        peer < 16 ? kPeerSeries[peer] : "peer_other";
    trace->counter(tracePid, "suspicion", eq.now(), series,
                   after ? 1 : 0);
}

std::uint64_t
ProtocolNode::xactLogAddr(std::uint64_t xact_id) const
{
    // The transaction log lives just past the value region. (With
    // valueLines == 1 this is the classic keyCount offset, keeping the
    // default bank mapping — and hence event timing — unchanged.)
    return (cfg.keyCount * cfg.valueLines + (xact_id & 1023)) * 64;
}

std::uint64_t
ProtocolNode::commitAddrOf(KeyId key) const
{
    // Commit records occupy their own region past the transaction log
    // so they never contend with a value's own data lines for a slot.
    return (cfg.keyCount * cfg.valueLines + 1024 + key) * 64;
}

bool
ProtocolNode::isAckRoundConsistency() const
{
    return cfg.model.consistency == Consistency::Linearizable ||
           cfg.model.consistency == Consistency::ReadEnforced;
}

ProtocolNode::KeyReplica &
ProtocolNode::keyState(KeyId key)
{
    assert(key < keys.size());
    return keys[key];
}

const ProtocolNode::KeyReplica &
ProtocolNode::keyState(KeyId key) const
{
    assert(key < keys.size());
    return keys[key];
}

Version
ProtocolNode::allocateVersion(KeyId key)
{
    KeyReplica &kr = keyState(key);
    Version ver{kr.maxSeen.number + 1, self};
    kr.maxSeen = ver;
    return ver;
}

void
ProtocolNode::noteVersion(KeyId key, Version ver)
{
    KeyReplica &kr = keyState(key);
    if (kr.maxSeen < ver)
        kr.maxSeen = ver;
}

bool
ProtocolNode::waiterSatisfied(KeyId key, const KeyReplica &kr,
                              const Waiter &w) const
{
    switch (w.kind) {
      case Waiter::Kind::KeyValid:
        return !kr.transient;
      case Waiter::Kind::WriteSlot:
        return !kr.transient && kr.pendingOpId == 0;
      case Waiter::Kind::GlobalPersist:
        return kr.globalPersistVer >= w.ver;
      case Waiter::Kind::LocalPersist:
        return kr.persistedVer >= w.ver;
      case Waiter::Kind::KeyWarm:
        return !keyCold(key);
    }
    return true;
}

void
ProtocolNode::parkWaiter(KeyId key, Waiter::Kind kind, Version ver,
                         std::uint64_t req, sim::Phase stall_phase)
{
    KeyReplica &kr = keyState(key);
    std::uint64_t h = waiterSlab.alloc();
    Waiter &w = waiterSlab.at(h);
    w.kind = kind;
    w.ver = ver;
    w.request = req;
    w.parkedAt = eq.now();
    w.stallPhase = stall_phase;
    if (kr.waiterTail == sim::ChunkedSlab<Waiter>::kNull)
        kr.waiterHead = h;
    else
        waiterSlab.at(kr.waiterTail).next = h;
    kr.waiterTail = h;
}

void
ProtocolNode::wakeWaiters(KeyId key)
{
    KeyReplica &kr = keyState(key);
    // One pass over the key's intrusive list: satisfied waiters are
    // unlinked (next captured before the cell is freed) and their
    // resumes *scheduled*, never run inline — so this unlink is the
    // only mutation of the list during traversal. Nothing here touches
    // the satisfaction inputs (kr's version fields, key temperature),
    // so interleaving the checks with the core charging keeps the wake
    // order and grant times identical to checking everything up front.
    std::uint64_t prev = sim::ChunkedSlab<Waiter>::kNull;
    std::uint64_t h = kr.waiterHead;
    while (h != sim::ChunkedSlab<Waiter>::kNull) {
        Waiter &w = waiterSlab.at(h);
        std::uint64_t next = w.next;
        if (waiterSatisfied(key, kr, w)) {
            // Re-admission of a woken request costs worker-core time;
            // under hot-key contention this wasted work scales with the
            // number of parked requests.
            sim::Tick t = cores.acquire(eq.now(), cfg.stallRetryCost);
            sim::PhaseAccum &acc = requests.at(w.request).acc;
            acc.add(w.stallPhase, eq.now() - w.parkedAt);
            acc.add(sim::Phase::CoreQueue,
                    t - eq.now() - cfg.stallRetryCost);
            acc.add(sim::Phase::Service, cfg.stallRetryCost);
            // Not epoch-guarded: a request woken before a crash still
            // resumes after it, with its own (live) record.
            eq.schedule(t, [this, req = w.request] { runRequest(req); });
            if (prev == sim::ChunkedSlab<Waiter>::kNull)
                kr.waiterHead = next;
            else
                waiterSlab.at(prev).next = next;
            if (kr.waiterTail == h)
                kr.waiterTail = prev;
            waiterSlab.free(h);
        } else {
            prev = h;
        }
        h = next;
    }
}

sim::Tick
ProtocolNode::chargeLocalAccess(KeyId key, bool is_write)
{
    (void)is_write;
    std::uint64_t addr = addrOf(key);
    auto [lat, hit] = hierarchy.access(addr);
    sim::Tick extra = lat;
    if (!hit) {
        sim::Tick done = dramDev.read(eq.now(), addr);
        extra += done - eq.now();
    }
    kv::Value tmp;
    backend->get(key, tmp);
    extra += static_cast<sim::Tick>(backend->lastProbes()) * cfg.probeCost;
    return extra;
}

Message
ProtocolNode::makeMsg(MsgType type, KeyId key, Version ver,
                      std::uint64_t op_id) const
{
    Message m;
    m.type = type;
    m.src = self;
    m.key = key;
    m.version = ver;
    m.opId = op_id;
    m.epoch = currentEpoch;
    return m;
}

void
ProtocolNode::sendTo(NodeId dst, Message msg)
{
    msg.dst = dst;
    fabric.send(msg);
}

void
ProtocolNode::broadcast(Message msg)
{
    fabric.broadcast(std::move(msg));
}

void
ProtocolNode::multicast(KeyId key, Message msg)
{
    if (rmap.full()) {
        fabric.broadcast(std::move(msg));
        return;
    }
    for (std::uint32_t i = 0; i < rmap.factor(); ++i) {
        NodeId dst = rmap.replica(key, i);
        if (dst == self)
            continue;
        msg.dst = dst;
        fabric.send(msg);
    }
}

// --------------------------------------------------------------------------
// Persist machinery
// --------------------------------------------------------------------------

namespace {

/** Max-merge or arrival-order overwrite of a persisted version. */
void
advancePersisted(Version &slot, Version ver, bool arrival_order)
{
    if (arrival_order || slot < ver)
        slot = ver;
}

} // namespace

void
ProtocolNode::issuePersist(KeyId key, Version ver, std::uint64_t round_id,
                           bool follower_acks, NodeId ack_dst,
                           std::uint64_t ack_op, bool arrival_order,
                           NodeId causal_origin, std::uint64_t causal_seq,
                           std::uint64_t barrier)
{
    // Everything that must happen once this version is durable (or
    // superseded by a durable newer version) is recorded here and
    // fired by the covering persist's completion.
    std::uint64_t h = obligations.alloc();
    PersistObligation &o = obligations.at(h);
    o.key = key;
    o.ver = ver;
    o.roundId = round_id;
    o.followerAcks = follower_acks;
    o.ackDst = ack_dst;
    o.ackOp = ack_op;
    o.causalOrigin = causal_origin;
    o.causalSeq = causal_seq;
    o.barrier = barrier;

    // No NVM write of this key in flight (always so when coalescing is
    // ablated: startKeyPersist then never creates a record).
    PersistFlight *pf = persistFlights.get(keyState(key).persistFlight);
    if (!pf || !pf->busy) {
        startKeyPersist(key, ver, arrival_order, SlabFifo{h, h});
        return;
    }

    // Coalesce into the pending follow-up write for this line.
    hot.persistsCoalesced.add();
    if (!pf->hasPending) {
        pf->hasPending = true;
        pf->pendingVer = ver;
    } else if (arrival_order || pf->pendingVer < ver) {
        pf->pendingVer = ver;
    }
    pf->pendingArrival = arrival_order;
    if (pf->pending.tail == 0)
        pf->pending.head = h;
    else
        obligations.at(pf->pending.tail).next = h;
    pf->pending.tail = h;
}

void
ProtocolNode::fulfil(const PersistObligation &o)
{
    if (o.roundId != 0) {
        if (Round *r = rounds.get(o.roundId)) {
            assert(r->pendingLocalPersists > 0);
            --r->pendingLocalPersists;
            checkRound(o.roundId);
        }
    }
    if (o.causalOrigin != net::kNoNode) {
        // This persist makes one causal update durable locally:
        // advance the durable clock and retry buffered UPDs.
        noteCausalDurable(o.causalOrigin, o.causalSeq);
        drainCausalBuffer();
    }
    if (o.followerAcks) {
        MsgType t = (cfg.model.persistency == Persistency::Strict ||
                     cfg.model.persistency == Persistency::Synchronous)
                        ? MsgType::Ack
                        : MsgType::AckP;
        sendTo(o.ackDst, makeMsg(t, o.key, o.ver, o.ackOp));
    }
    if (o.barrier != 0)
        barrierPersisted(o.barrier);
}

void
ProtocolNode::fireObligations(SlabFifo chain)
{
    // Each cell is freed before it fires, so an obligation that issues
    // a new persist may reuse it; the rest of the chain stays put.
    for (std::uint64_t h = chain.head; h != 0;) {
        PersistObligation o = obligations.at(h);
        obligations.free(h);
        h = o.next;
        fulfil(o);
    }
}

void
ProtocolNode::barrierPersisted(std::uint64_t h)
{
    PersistBarrier &b = barriers.at(h);
    assert(b.remaining > 0);
    if (--b.remaining > 0)
        return;
    std::vector<XactWrite> writes = std::move(b.writes);
    MsgType type = b.ackType;
    NodeId dst = b.ackDst;
    std::uint64_t op = b.ackOp;
    barriers.free(h);
    applyCommitted(writes);
    sendTo(dst, makeMsg(type, 0, Version{}, op));
}

void
ProtocolNode::startKeyPersist(KeyId key, Version ver, bool arrival_order,
                              SlabFifo chain)
{
    hot.persistsIssued.add();
    std::uint32_t ep = currentEpoch;

    if (!cfg.persistCoalescing) {
        // Ablation mode: every persist is independent; its single
        // obligation rides in the completion event instead of the
        // per-key record, and carries the key and version.
        // (Single-line only; valueLines > 1 is rejected in the ctor.)
        assert(chain.head == chain.tail);
        sim::Tick done_at = nvmDev.write(eq.now(), addrOf(key));
        eq.schedule(done_at, [this, ep, arrival_order, chain] {
            if (ep != currentEpoch)
                return; // the crash already dropped the obligation
            const PersistObligation &o = obligations.at(chain.head);
            KeyReplica &kr = keyState(o.key);
            image.atomicPersist(o.key, o.ver, arrival_order);
            advancePersisted(kr.persistedVer, o.ver, arrival_order);
            wakeWaiters(o.key);
            fireObligations(chain);
        });
        return;
    }

    KeyReplica &kr = keyState(key);
    PersistFlight *pf = persistFlights.get(kr.persistFlight);
    if (!pf) {
        kr.persistFlight = persistFlights.alloc();
        pf = &persistFlights.at(kr.persistFlight);
    }
    pf->busy = true;
    pf->activeVer = ver;
    pf->activeArrival = arrival_order;
    pf->active = chain;

    if (cfg.valueLines == 1) {
        sim::Tick done_at = nvmDev.write(eq.now(), addrOf(key));
        eq.schedule(done_at, [this, ep, key] {
            if (ep != currentEpoch)
                return; // the persist raced a crash; treat it as lost
            onKeyPersistDone(key);
        });
        return;
    }

    // Multi-line value: every 64 B line is its own (atomic) NVM write.
    // A crash between the first line landing and the commit record
    // landing leaves a torn copy in the medium, which recovery must
    // detect. The lines issue in parallel (they map to different
    // banks); the commit record only once all of them are durable.
    //
    // Instant recovery: if the crash froze a persist of this key
    // mid-flight, the verified scan must judge that staging before a
    // new beginWrite overwrites the evidence — otherwise a torn copy
    // would vanish uncounted.
    if (!staleStaging.empty())
        settleStaleStaging(key);
    image.beginWrite(key, ver);
    pf->linesLeft = cfg.valueLines;
    for (std::uint32_t i = 0; i < cfg.valueLines; ++i) {
        sim::Tick t = nvmDev.write(eq.now(), addrOf(key) + 64ull * i);
        eq.schedule(t, [this, ep, key] {
            if (ep != currentEpoch)
                return; // this line never reached the medium
            image.lineWritten(key);
            // The record stays live (busy) until the commit lands.
            if (--persistFlights.at(keyState(key).persistFlight)
                      .linesLeft == 0)
                onDataLinesDurable(key);
        });
    }
}

void
ProtocolNode::onDataLinesDurable(KeyId key)
{
    std::uint32_t ep = currentEpoch;
    if (!cfg.commitRecords) {
        // Ablation: nothing marks the value complete; the last data
        // line doubles as the completion point.
        onKeyPersistDone(key);
        return;
    }
    sim::Tick t = nvmDev.write(eq.now(), commitAddrOf(key));
    hot.commitRecordsWritten.add();
    eq.schedule(t, [this, ep, key] {
        if (ep != currentEpoch)
            return; // crash before the commit record: torn at recovery
        onKeyPersistDone(key);
    });
}

void
ProtocolNode::onKeyPersistDone(KeyId key)
{
    KeyReplica &kr = keyState(key);
    PersistFlight &pf = persistFlights.at(kr.persistFlight);
    if (cfg.valueLines == 1) {
        image.atomicPersist(key, pf.activeVer, pf.activeArrival);
    } else {
        image.commitWrite(key, pf.activeArrival);
    }
    advancePersisted(kr.persistedVer, pf.activeVer, pf.activeArrival);
    wakeWaiters(key);

    // Woken requests may have coalesced more work into the record;
    // slab cells never move, so pf stays valid.
    SlabFifo fired = pf.active;
    pf.active = SlabFifo{};
    pf.busy = false;
    fireObligations(fired);

    // The obligations may have started a new write (any pending work
    // then waits for it); otherwise start the coalesced follow-up write
    // if one is due, else retire the record.
    PersistFlight *rec = persistFlights.get(kr.persistFlight);
    if (!rec || rec->busy)
        return;
    if (!rec->hasPending) {
        persistFlights.free(kr.persistFlight);
        kr.persistFlight = sim::ChunkedSlab<PersistFlight>::kNull;
        return;
    }
    Version next = rec->pendingVer;
    bool arrival = rec->pendingArrival;
    SlabFifo obls = rec->pending;
    rec->pending = SlabFifo{};
    rec->hasPending = false;
    startKeyPersist(key, next, arrival, obls);
}

// --------------------------------------------------------------------------
// Client requests
// --------------------------------------------------------------------------

void
ProtocolNode::admitRequest(OpKind kind, KeyId key, OpContext ctx,
                           OpCompletion done, KeyId hi)
{
    std::uint64_t h = requests.alloc();
    Request &rq = requests.at(h);
    rq.kind = kind;
    rq.key = key;
    rq.hi = hi;
    rq.cursor = key;
    rq.issued = eq.now();
    rq.done = std::move(done);
    rq.octx = ctx;
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    rq.acc.add(sim::Phase::CoreQueue, admitted - eq.now() - op_cost);
    rq.acc.add(sim::Phase::Service, op_cost);
    scheduleRequest(admitted, h);
}

void
ProtocolNode::scheduleRequest(sim::Tick when, std::uint64_t req)
{
    std::uint32_t ep = currentEpoch;
    eq.schedule(when, [this, ep, req] {
        if (ep != currentEpoch) {
            requests.free(req); // a crash killed the request
            return;
        }
        runRequest(req);
    });
}

void
ProtocolNode::runRequest(std::uint64_t req)
{
    switch (requests.at(req).kind) {
      case OpKind::Read:
        execRead(req);
        break;
      case OpKind::Write:
        execWrite(req);
        break;
      case OpKind::Scan:
        // Re-entry after the walk charge finds every key cleared and
        // the walk done, so it falls straight through to completion.
        execScan(req);
        break;
      default:
        assert(false && "requests are reads, writes or scans");
        break;
    }
}

OpResult
ProtocolNode::requestResult(const Request &rq) const
{
    OpResult res;
    res.kind = rq.kind;
    res.key = rq.key;
    res.node = self;
    res.issuedAt = rq.issued;
    res.completedAt = eq.now();
    res.phases = rq.acc;
    return res;
}

void
ProtocolNode::completeRequest(std::uint64_t req, const OpResult &res)
{
    // Free first: the callback may issue the client's next request,
    // which can then reuse this cell.
    OpCompletion done = std::move(requests.at(req).done);
    requests.free(req);
    done(res);
}

// --------------------------------------------------------------------------
// Client reads
// --------------------------------------------------------------------------

void
ProtocolNode::clientRead(KeyId key, OpContext ctx, OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    if (admissionShed(ctx.speculative)) {
        // Overloaded: reject the hedge at the door, before it costs a
        // core slot. The client treats the aborted result as a lost
        // race, never as the operation's outcome.
        ctr.add("shed_requests");
        OpResult res;
        res.kind = OpKind::Read;
        res.key = key;
        res.node = self;
        res.issuedAt = eq.now();
        res.completedAt = eq.now();
        res.aborted = true;
        done(res);
        return;
    }
    admitRequest(OpKind::Read, key, ctx, std::move(done));
}

void
ProtocolNode::execRead(std::uint64_t req)
{
    Request &rq = requests.at(req);
    const KeyId key = rq.key;
    if (!rq.charged) {
        rq.charged = true;
        sim::Tick extra = chargeLocalAccess(key, false);
        if (extra > 0) {
            rq.acc.add(sim::Phase::MemAccess, extra);
            scheduleRequest(eq.now() + extra, req);
            return;
        }
    }

    KeyReplica &kr = keyState(key);

    // Instant recovery: the durable image of this key has not been
    // scanned yet. Park until the on-demand fault-in warms it — a torn
    // or lost-suffix value must never be served.
    if (keyCold(key)) {
        ctr.add("reads_stalled_recovery");
        parkWaiter(key, Waiter::Kind::KeyWarm, Version{}, req,
                   sim::Phase::RecoveryStall);
        if (keyTemp[key] == KeyTemp::Cold)
            startFaultIn(key);
        return;
    }

    const Consistency c = cfg.model.consistency;
    const Persistency p = cfg.model.persistency;

    // Transactional bookkeeping and conflict detection (reads inside a
    // transaction never stall; conflicts squash the transaction).
    bool xact_read =
        c == Consistency::Transactional && rq.octx.xactId != 0;
    if (xact_read) {
        auto it = xactRecs.find(rq.octx.xactId);
        if (it == xactRecs.end() || it->second.aborted) {
            OpResult res = requestResult(rq);
            res.aborted = true;
            completeRequest(req, res);
            return;
        }
        if (xactTable &&
            xactTable->accessConflicts(rq.octx.xactId, key, false,
                                       eq.now(), cfg.xactConflictWindow)) {
            ctr.add("xact_conflicts");
            if (!it->second.hadConflict) {
                it->second.hadConflict = true;
                ctr.add("xact_conflicted");
            }
            if (rq.conflictAttempts < cfg.xactConflictRetries) {
                // Stall flavor: wait for the conflicting transaction to
                // drain, then retry (wasting core time on re-admission).
                ++rq.conflictAttempts;
                ctr.add("xact_conflict_stalls");
                sim::Tick t = cores.acquire(
                    eq.now() + cfg.xactConflictRetryDelay,
                    cfg.stallRetryCost);
                rq.acc.add(sim::Phase::ConflictRetry,
                           cfg.xactConflictRetryDelay);
                rq.acc.add(sim::Phase::CoreQueue,
                           t - eq.now() - cfg.xactConflictRetryDelay -
                               cfg.stallRetryCost);
                rq.acc.add(sim::Phase::Service, cfg.stallRetryCost);
                if (trace)
                    trace->instant(tracePid, 0, "conflict_retry",
                                   eq.now(), "key", key);
                scheduleRequest(t, req);
                return;
            }
            // Squash flavor: retries exhausted.
            it->second.aborted = true;
            OpResult res = requestResult(rq);
            res.aborted = true;
            completeRequest(req, res);
            return;
        }
        // Read-your-own-writes: the latest uncommitted write of this
        // transaction to the key wins over committed state.
        for (auto w = it->second.writes.rbegin();
             w != it->second.writes.rend(); ++w) {
            if (w->key == key) {
                OpResult res = requestResult(rq);
                res.version = w->ver;
                hot.readsCompleted.add();
                completeRequest(req, res);
                return;
            }
        }
    }

    // Visibility stall: Linearizable and Read-Enforced consistency may
    // not serve a key with an in-flight update.
    if ((c == Consistency::Linearizable ||
         c == Consistency::ReadEnforced) &&
        kr.transient) {
        if (!rq.countedVisibility) {
            rq.countedVisibility = true;
            hot.readsStalledVisibility.add();
        }
        if (trace)
            trace->instant(tracePid, 0, "visibility_stall", eq.now(),
                           "key", key);
        parkWaiter(key, Waiter::Kind::KeyValid, Version{}, req,
                   sim::Phase::VisibilityStall);
        return;
    }

    // Durability stall: Read-Enforced persistency requires the latest
    // visible version to be durable before it may be read. Protocols
    // with ACK rounds prove global durability via VAL_p; the others
    // wait for the local persist (paper Fig. 3(c)-(d)).
    if (p == Persistency::ReadEnforced) {
        bool global = isAckRoundConsistency();
        bool must_wait = global ? kr.volatileVer > kr.globalPersistVer
                                : kr.volatileVer > kr.persistedVer;
        if (must_wait) {
            if (!rq.countedPersist) {
                rq.countedPersist = true;
                hot.readsStalledPersist.add();
            }
            if (trace)
                trace->instant(tracePid, 0, "persist_stall", eq.now(),
                               "key", key);
            parkWaiter(key,
                       global ? Waiter::Kind::GlobalPersist
                              : Waiter::Kind::LocalPersist,
                       kr.volatileVer, req, sim::Phase::PersistStall);
            return;
        }
    }

    finishRead(req);
}

void
ProtocolNode::finishRead(std::uint64_t req)
{
    const Request &rq = requests.at(req);
    const KeyId key = rq.key;
    KeyReplica &kr = keyState(key);
    const Consistency c = cfg.model.consistency;
    const Persistency p = cfg.model.persistency;

    // Synchronous persistency bound to a consistency model without ACK
    // rounds serves the latest *persisted* version so that every value
    // returned is recoverable (paper Fig. 2(f)).
    Version ver = kr.volatileVer;
    if (p == Persistency::Synchronous &&
        (c == Consistency::Causal || c == Consistency::Eventual)) {
        ver = kr.persistedVer;
    }

    OpResult res = requestResult(rq);
    res.version = ver;
    hot.readsCompleted.add();
    if (sink)
        sink->onRead(cfg.observerIdOffset + self, key, ver, rq.issued,
                     eq.now());
    if (trace)
        trace->async(tracePid, "read", ++traceSpanId, rq.issued,
                     eq.now());
    completeRequest(req, res);
}

// --------------------------------------------------------------------------
// Client scans (YCSB-E)
// --------------------------------------------------------------------------

void
ProtocolNode::clientScan(KeyId key, std::uint32_t len, OpContext ctx,
                         OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    // Scans are primary (never speculative) work, so they are never
    // shed; the call still feeds the controller's sojourn estimate.
    admissionShed(false);
    KeyId lo = key < cfg.keyCount ? key : cfg.keyCount - 1;
    std::uint64_t span = len > 0 ? len : 1;
    KeyId hi = lo + span - 1 >= cfg.keyCount ? cfg.keyCount - 1
                                             : lo + span - 1;
    admitRequest(OpKind::Scan, lo, ctx, std::move(done), hi);
}

void
ProtocolNode::execScan(std::uint64_t req)
{
    Request &rq = requests.at(req);
    if (!rq.charged) {
        rq.charged = true;
        sim::Tick extra = chargeLocalAccess(rq.key, false);
        if (extra > 0) {
            rq.acc.add(sim::Phase::MemAccess, extra);
            scheduleRequest(eq.now() + extra, req);
            return;
        }
    }

    const Consistency c = cfg.model.consistency;
    const Persistency p = cfg.model.persistency;

    // Semantic clearance, key by key: a scan may not leak a version a
    // point read of the same key would have stalled on. The cursor
    // survives parks, so each key is cleared at most once per pass.
    while (rq.cursor <= rq.hi) {
        KeyId k = rq.cursor;
        if (keyCold(k)) {
            ctr.add("scans_stalled_recovery");
            parkWaiter(k, Waiter::Kind::KeyWarm, Version{}, req,
                       sim::Phase::RecoveryStall);
            if (keyTemp[k] == KeyTemp::Cold)
                startFaultIn(k);
            return;
        }
        KeyReplica &kr = keyState(k);
        if ((c == Consistency::Linearizable ||
             c == Consistency::ReadEnforced) &&
            kr.transient) {
            ctr.add("scans_stalled_visibility");
            if (trace)
                trace->instant(tracePid, 0, "scan_visibility_stall",
                               eq.now(), "key", k);
            parkWaiter(k, Waiter::Kind::KeyValid, Version{}, req,
                       sim::Phase::VisibilityStall);
            return;
        }
        if (p == Persistency::ReadEnforced) {
            bool global = isAckRoundConsistency();
            bool must_wait = global
                                 ? kr.volatileVer > kr.globalPersistVer
                                 : kr.volatileVer > kr.persistedVer;
            if (must_wait) {
                ctr.add("scans_stalled_persist");
                if (trace)
                    trace->instant(tracePid, 0, "scan_persist_stall",
                                   eq.now(), "key", k);
                parkWaiter(k,
                           global ? Waiter::Kind::GlobalPersist
                                  : Waiter::Kind::LocalPersist,
                           kr.volatileVer, req, sim::Phase::PersistStall);
                return;
            }
        }
        ++rq.cursor;
    }

    finishScan(req);
}

void
ProtocolNode::finishScan(std::uint64_t req)
{
    Request &rq = requests.at(req);
    if (!rq.walked) {
        // Every key in range is cleared; now walk the ordered
        // structure once and charge the traversal like a point op's
        // probe cost (skip-list descent or B+-tree leaf chain — the
        // backend reports what it actually touched).
        rq.walked = true;
        rq.visited = backend->rangeScan(rq.key, rq.hi,
                                        [](kv::KeyId, kv::Value) {});
        sim::Tick extra = scaledCost(
            static_cast<sim::Tick>(backend->lastProbes()) *
            cfg.probeCost);
        if (extra > 0) {
            rq.acc.add(sim::Phase::MemAccess, extra);
            scheduleRequest(eq.now() + extra, req);
            return;
        }
    }

    // The binding that serves persisted versions on point reads does so
    // for scans too (paper Fig. 2(f)): report the recoverable version
    // of the first key as the scan's version tag.
    KeyReplica &kr = keyState(rq.key);
    Version ver = kr.volatileVer;
    if (cfg.model.persistency == Persistency::Synchronous &&
        (cfg.model.consistency == Consistency::Causal ||
         cfg.model.consistency == Consistency::Eventual)) {
        ver = kr.persistedVer;
    }

    OpResult res = requestResult(rq);
    res.version = ver;
    hot.scansCompleted.add();
    hot.scanKeysVisited.add(rq.visited);
    if (trace)
        trace->async(tracePid, "scan", ++traceSpanId, rq.issued,
                     eq.now());
    completeRequest(req, res);
}

// --------------------------------------------------------------------------
// Client writes
// --------------------------------------------------------------------------

void
ProtocolNode::clientWrite(KeyId key, OpContext ctx, OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    admissionShed(false); // writes are never shed; still track sojourn
    admitRequest(OpKind::Write, key, ctx, std::move(done));
}

void
ProtocolNode::execWrite(std::uint64_t req)
{
    Request &rq = requests.at(req);
    const KeyId key = rq.key;
    // Exactly-once retransmits: a failed-over client re-sends a write
    // under its original (clientId, clientSeq); if any surviving
    // replica already applied it, acknowledge instead of re-executing.
    if (rq.octx.clientSeq != 0) {
        auto seen = clientSeqSeen.find(rq.octx.clientId);
        if (seen != clientSeqSeen.end() &&
            rq.octx.clientSeq <= seen->second) {
            ctr.add("client_retransmits_deduped");
            OpResult res = requestResult(rq);
            res.version = keyState(key).volatileVer;
            completeRequest(req, res);
            return;
        }
    }

    if (!rq.charged) {
        rq.charged = true;
        sim::Tick extra = chargeLocalAccess(key, true);
        if (extra > 0) {
            rq.acc.add(sim::Phase::MemAccess, extra);
            scheduleRequest(eq.now() + extra, req);
            return;
        }
    }

    // Instant recovery: a cold key's durable baseline (and any
    // fresher version the live peers hold) is unknown until fault-in
    // — admit the write only after it lands, so the new version is
    // ordered against what actually survived the crash.
    if (keyCold(key)) {
        ctr.add("writes_stalled_recovery");
        parkWaiter(key, Waiter::Kind::KeyWarm, Version{}, req,
                   sim::Phase::RecoveryStall);
        if (keyTemp[key] == KeyTemp::Cold)
            startFaultIn(key);
        return;
    }

    switch (cfg.model.consistency) {
      case Consistency::Linearizable:
      case Consistency::ReadEnforced:
        startAckRoundWrite(req);
        break;
      case Consistency::Transactional:
        if (rq.octx.xactId != 0) {
            startXactWrite(req);
        } else {
            // A write outside any transaction degenerates to a strict
            // invalidation round.
            startAckRoundWrite(req);
        }
        break;
      case Consistency::Causal:
      case Consistency::Eventual:
        startPropagatedWrite(req);
        break;
    }
}

void
ProtocolNode::startAckRoundWrite(std::uint64_t req)
{
    Request &rq = requests.at(req);
    const KeyId key = rq.key;
    KeyReplica &kr = keyState(key);
    // One in-flight invalidation round per key per coordinator; later
    // writes (and rounds racing a remote INV) queue.
    if (kr.transient || kr.pendingOpId != 0) {
        if (trace)
            trace->instant(tracePid, 0, "write_slot", eq.now(), "key",
                           key);
        parkWaiter(key, Waiter::Kind::WriteSlot, Version{}, req,
                   sim::Phase::VisibilityStall);
        return;
    }

    const Persistency p = cfg.model.persistency;
    const OpContext octx = rq.octx;
    Version ver = allocateVersion(key);
    // The round id IS the slab handle: deterministic (LIFO free list),
    // and echoed acks for freed rounds go stale instead of aliasing.
    std::uint64_t round_id = rounds.alloc();
    Round &round = rounds.at(round_id);
    round.kind = Round::Kind::Write;
    round.key = key;
    round.ver = ver;
    round.scopeId = octx.scopeId;
    round.followersNeeded = liveFollowerCount(key);
    round.issuedAt = rq.issued;
    round.clientId = octx.clientId;
    round.clientSeq = octx.clientSeq;
    round.done = std::move(rq.done);
    round.phases = rq.acc;
    round.startedAt = eq.now();
    round.waitPhase = sim::Phase::Replication;
    requests.free(req); // the round owns the completion now

    kr.pendingOpId = round_id;
    kr.transient = true;
    kr.transientVer = ver;
    if (octx.clientSeq != 0)
        noteClientSeq(octx.clientId, octx.clientSeq);

    // Local durability per the persistency model.
    if (p == Persistency::Strict || p == Persistency::Synchronous ||
        p == Persistency::ReadEnforced) {
        round.pendingLocalPersists = 1;
        issuePersist(key, ver, round_id, false, 0, 0, false);
    } else if (p == Persistency::Scope) {
        scopeBuffers[octx.scopeId].emplace_back(key, ver);
    } else { // Eventual persistency: lazy background persist
        std::uint32_t ep = currentEpoch;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
    }

    Message inv = makeMsg(MsgType::Inv, key, ver, round_id);
    inv.hasData = true;
    inv.dataLines = cfg.valueLines;
    inv.scopeId = octx.scopeId;
    inv.clientId = octx.clientId;
    inv.clientSeq = octx.clientSeq;
    multicast(key, std::move(inv));
    hot.invSent.add(rmap.followerCount(key));

    // Read-Enforced consistency acknowledges the client immediately
    // (unless Strict persistency also demands global durability first).
    if (cfg.model.consistency == Consistency::ReadEnforced &&
        p != Persistency::Strict) {
        completeWriteToClient(rounds.at(round_id));
    }
    checkRound(round_id);
}

void
ProtocolNode::startXactWrite(std::uint64_t req)
{
    Request &rq = requests.at(req);
    const KeyId key = rq.key;
    auto it = xactRecs.find(rq.octx.xactId);

    if (it == xactRecs.end() || it->second.aborted) {
        OpResult res = requestResult(rq);
        res.aborted = true;
        completeRequest(req, res);
        return;
    }
    XactRecord &xr = it->second;

    if (xactTable &&
        xactTable->accessConflicts(xr.id, key, true, eq.now(),
                                   cfg.xactConflictWindow)) {
        ctr.add("xact_conflicts");
        if (!xr.hadConflict) {
            xr.hadConflict = true;
            ctr.add("xact_conflicted");
        }
        if (rq.conflictAttempts < cfg.xactConflictRetries) {
            ++rq.conflictAttempts;
            ctr.add("xact_conflict_stalls");
            sim::Tick t = cores.acquire(
                eq.now() + cfg.xactConflictRetryDelay,
                cfg.stallRetryCost);
            rq.acc.add(sim::Phase::ConflictRetry,
                       cfg.xactConflictRetryDelay);
            rq.acc.add(sim::Phase::CoreQueue,
                       t - eq.now() - cfg.xactConflictRetryDelay -
                           cfg.stallRetryCost);
            rq.acc.add(sim::Phase::Service, cfg.stallRetryCost);
            if (trace)
                trace->instant(tracePid, 0, "conflict_retry", eq.now(),
                               "key", key);
            scheduleRequest(t, req);
            return;
        }
        xr.aborted = true;
        OpResult res = requestResult(rq);
        res.aborted = true;
        completeRequest(req, res);
        return;
    }

    const Persistency p = cfg.model.persistency;
    const std::uint64_t scope_id = rq.octx.scopeId;
    Version ver = allocateVersion(key);

    // The write stays private to the transaction until ENDX: reads of
    // other clients keep seeing committed state (no dirty reads), and
    // an abort has nothing to roll back. The transaction reads its own
    // writes through its write set.
    xr.writes.push_back({key, ver, scope_id});

    std::uint64_t round_id = 0;
    if (p == Persistency::Strict) {
        // Strict: the write itself stalls until durable on all nodes.
        round_id = rounds.alloc();
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::Write;
        round.key = key;
        round.ver = ver;
        round.xactId = xr.id;
        round.followersNeeded = liveFollowerCount(key);
        round.issuedAt = rq.issued;
        round.done = std::move(rq.done);
        round.phases = rq.acc;
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::Replication;
        round.pendingLocalPersists = 1;
        requests.free(req); // the round owns the completion now
        issuePersist(key, ver, round_id, false, 0, 0, false);
    } else if (p == Persistency::ReadEnforced) {
        issuePersist(key, ver, 0, false, 0, 0, false);
    } else if (p == Persistency::Eventual) {
        std::uint32_t ep = currentEpoch;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
    }
    // Synchronous: persists are deferred to ENDX (VP of the update).

    Message inv = makeMsg(MsgType::Inv, key, ver, round_id);
    inv.hasData = true;
    inv.dataLines = cfg.valueLines;
    inv.xactId = xr.id;
    inv.scopeId = scope_id;
    multicast(key, std::move(inv));
    hot.invSent.add(rmap.followerCount(key));

    if (p != Persistency::Strict) {
        OpResult res = requestResult(rq);
        res.version = ver;
        hot.writesCompleted.add();
        if (trace)
            trace->async(tracePid, "write", ++traceSpanId, rq.issued,
                         eq.now());
        completeRequest(req, res);
    } else {
        checkRound(round_id);
    }
}

void
ProtocolNode::startPropagatedWrite(std::uint64_t req)
{
    const Consistency c = cfg.model.consistency;
    const Persistency p = cfg.model.persistency;
    Request &rq = requests.at(req);
    const KeyId key = rq.key;
    const OpContext octx = rq.octx;
    KeyReplica &kr = keyState(key);
    Version ver = allocateVersion(key);

    kr.volatileVer = ver;
    backend->put(key, ver.number);

    if (octx.clientSeq != 0)
        noteClientSeq(octx.clientId, octx.clientSeq);

    Message upd = makeMsg(MsgType::Upd, key, ver, 0);
    upd.hasData = true;
    upd.dataLines = cfg.valueLines;
    upd.scopeId = octx.scopeId;
    upd.clientId = octx.clientId;
    upd.clientSeq = octx.clientSeq;
    if (c == Consistency::Causal) {
        upd.cauhist.assign(applied.raw().begin(), applied.raw().end());
        applied[self] += 1;
    }

    // Under durable causal gating the coordinator's own sequence
    // number must also advance durably, or UPDs from peers that depend
    // on this write would buffer here forever.
    bool durable_gated =
        c == Consistency::Causal && (p == Persistency::Strict ||
                                     p == Persistency::Synchronous);
    NodeId causal_origin = durable_gated ? self : net::kNoNode;
    std::uint64_t own_seq = durable_gated ? applied[self] : 0;

    std::uint64_t round_id = 0;
    if (p == Persistency::Strict) {
        round_id = rounds.alloc();
        upd.opId = round_id;
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::Write;
        round.key = key;
        round.ver = ver;
        round.followersNeeded = liveFollowerCount(key);
        round.issuedAt = rq.issued;
        round.done = std::move(rq.done);
        round.phases = rq.acc;
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::Replication;
        round.pendingLocalPersists = 1;
        requests.free(req); // the round owns the completion now
        issuePersist(key, ver, round_id, false, 0, 0, false,
                     causal_origin, own_seq);
    } else if (p == Persistency::Synchronous ||
               p == Persistency::ReadEnforced) {
        issuePersist(key, ver, 0, false, 0, 0, false, causal_origin,
                     own_seq);
    } else if (p == Persistency::Scope) {
        scopeBuffers[octx.scopeId].emplace_back(key, ver);
    } else { // Eventual persistency
        std::uint32_t ep = currentEpoch;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
    }

    if (c == Consistency::Eventual && p != Persistency::Strict) {
        enqueueLazyUpd(std::move(upd));
    } else {
        multicast(key, std::move(upd));
        hot.updSent.add(rmap.followerCount(key));
    }

    if (p != Persistency::Strict) {
        OpResult res = requestResult(rq);
        res.version = ver;
        hot.writesCompleted.add();
        if (sink)
            sink->onWriteComplete(key, ver, eq.now());
        if (trace)
            trace->async(tracePid, "write", ++traceSpanId, rq.issued,
                         eq.now());
        completeRequest(req, res);
    } else {
        checkRound(round_id);
    }
}

// --------------------------------------------------------------------------
// Transactions
// --------------------------------------------------------------------------

void
ProtocolNode::clientInitXact(std::uint64_t xact_id, OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    sim::Tick issued = eq.now();
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, xact_id, issued, op_cost,
                           done = std::move(done)]() mutable {
        if (ep != currentEpoch)
            return;
        XactRecord xr;
        xr.id = xact_id;
        xr.coordinator = self;
        xactRecs.emplace(xact_id, std::move(xr));
        if (xactTable)
            xactTable->begin(xact_id);
        ctr.add("xact_started");

        std::uint64_t round_id = rounds.alloc();
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::InitXact;
        round.xactId = xact_id;
        round.followersNeeded = liveFollowers();
        round.issuedAt = issued;
        round.done = std::move(done);
        round.phases.add(sim::Phase::CoreQueue,
                         eq.now() - issued - op_cost);
        round.phases.add(sim::Phase::Service, op_cost);
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::Replication;

        const Persistency p = cfg.model.persistency;
        bool log_persist = p == Persistency::Strict ||
                           p == Persistency::Synchronous;
        if (log_persist) {
            round.pendingLocalPersists = 1;
            sim::Tick done_at =
                nvmDev.write(eq.now(), xactLogAddr(xact_id));
            std::uint32_t ep2 = currentEpoch;
            eq.schedule(done_at, [this, ep2, round_id] {
                if (ep2 != currentEpoch)
                    return;
                if (Round *r = rounds.get(round_id)) {
                    --r->pendingLocalPersists;
                    checkRound(round_id);
                }
            });
        }

        Message m = makeMsg(MsgType::InitX, 0, Version{}, round_id);
        m.xactId = xact_id;
        broadcast(m);
        checkRound(round_id);
    });
}

void
ProtocolNode::clientEndXact(std::uint64_t xact_id, bool commit,
                            OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    sim::Tick issued = eq.now();
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, xact_id, commit, issued, op_cost,
                           done = std::move(done)]() mutable {
        if (ep != currentEpoch)
            return;
        sim::PhaseAccum acc;
        acc.add(sim::Phase::CoreQueue, eq.now() - issued - op_cost);
        acc.add(sim::Phase::Service, op_cost);
        auto it = xactRecs.find(xact_id);
        if (it == xactRecs.end()) {
            OpResult res;
            res.kind = OpKind::EndXact;
            res.node = self;
            res.issuedAt = issued;
            res.completedAt = eq.now();
            res.aborted = true;
            res.phases = acc;
            done(res);
            return;
        }
        XactRecord &xr = it->second;

        if (!commit || xr.aborted) {
            // Coordinator writes were buffered in the write set, so
            // an abort simply discards them.
            Message m = makeMsg(MsgType::EndX, 0, Version{}, 0);
            m.xactId = xact_id;
            m.commit = false;
            broadcast(m);
            if (xactTable)
                xactTable->end(xact_id);
            xactRecs.erase(it);
            ctr.add("xact_aborted");
            OpResult res;
            res.kind = OpKind::EndXact;
            res.node = self;
            res.issuedAt = issued;
            res.completedAt = eq.now();
            res.aborted = true;
            res.phases = acc;
            done(res);
            return;
        }

        std::uint64_t round_id = rounds.alloc();
        xr.endRoundId = round_id;
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::EndXact;
        round.xactId = xact_id;
        round.followersNeeded = liveFollowers();
        round.issuedAt = issued;
        round.done = std::move(done);
        round.phases = acc;
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::XactCommit;

        // Synchronous persistency: the transaction's VP is ENDX, so the
        // coordinator persists all its writes here. Scope persistency
        // hands the committed writes to their scopes' barrier.
        if (cfg.model.persistency == Persistency::Synchronous) {
            round.pendingLocalPersists =
                static_cast<std::uint32_t>(xr.writes.size());
            for (const auto &w : xr.writes)
                issuePersist(w.key, w.ver, round_id, false, 0, 0,
                             false);
        } else if (cfg.model.persistency == Persistency::Scope) {
            for (const auto &w : xr.writes)
                scopeBuffers[w.scopeId].emplace_back(w.key, w.ver);
        }

        Message m = makeMsg(MsgType::EndX, 0, Version{}, round_id);
        m.xactId = xact_id;
        m.commit = true;
        broadcast(m);
        checkRound(round_id);
    });
}

// --------------------------------------------------------------------------
// Scope persists
// --------------------------------------------------------------------------

void
ProtocolNode::clientPersistScope(std::uint64_t scope_id, OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    sim::Tick issued = eq.now();
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, scope_id, issued, op_cost,
                           done = std::move(done)]() mutable {
        if (ep != currentEpoch)
            return;
        // Under Eventual consistency the scope's UPDs may still be
        // queued; push them out so followers hold the writes the
        // PERSIST refers to (per-QP ordering delivers them first).
        if (cfg.model.consistency == Consistency::Eventual)
            flushLazyUpds();

        std::uint64_t round_id = rounds.alloc();
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::ScopePersist;
        round.scopeId = scope_id;
        round.followersNeeded = liveFollowers();
        round.issuedAt = issued;
        round.done = std::move(done);
        round.phases.add(sim::Phase::CoreQueue,
                         eq.now() - issued - op_cost);
        round.phases.add(sim::Phase::Service, op_cost);
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::PersistStall;

        auto buf = scopeBuffers.find(scope_id);
        if (buf != scopeBuffers.end()) {
            round.pendingLocalPersists =
                static_cast<std::uint32_t>(buf->second.size());
            for (const auto &[key, ver] : buf->second)
                issuePersist(key, ver, round_id, false, 0, 0, false);
            scopeBuffers.erase(buf);
        }

        Message m = makeMsg(MsgType::Persist, 0, Version{}, round_id);
        m.scopeId = scope_id;
        broadcast(m);
        checkRound(round_id);
    });
}

// --------------------------------------------------------------------------
// Coordinator round progress
// --------------------------------------------------------------------------

void
ProtocolNode::completeWriteToClient(Round &round)
{
    if (round.clientNotified)
        return;
    round.clientNotified = true;
    OpResult res;
    res.kind = OpKind::Write;
    res.key = round.key;
    res.node = self;
    res.issuedAt = round.issuedAt;
    res.completedAt = eq.now();
    res.version = round.ver;
    res.phases = round.phases;
    res.phases.add(round.waitPhase, eq.now() - round.startedAt);
    hot.writesCompleted.add();
    if (trace)
        trace->async(tracePid, "write", ++traceSpanId, round.issuedAt,
                     eq.now());
    // Writes inside transactions report to the checker sink only when
    // the whole transaction commits.
    if (sink && round.xactId == 0)
        sink->onWriteComplete(round.key, round.ver, eq.now());
    if (round.done)
        round.done(res);
}

void
ProtocolNode::checkRound(std::uint64_t round_id)
{
    Round *rp = rounds.get(round_id);
    if (rp == nullptr)
        return;
    Round &r = *rp;
    const Persistency p = cfg.model.persistency;

    switch (r.kind) {
      case Round::Kind::Write: {
        bool xact_or_propagated = !isAckRoundConsistency();
        if (xact_or_propagated) {
            // Only Strict persistency creates write rounds here: the
            // write completes when durable everywhere.
            if (r.acksP >= r.followersNeeded &&
                r.pendingLocalPersists == 0) {
                KeyReplica &kr = keyState(r.key);
                if (kr.globalPersistVer < r.ver)
                    kr.globalPersistVer = r.ver;
                wakeWaiters(r.key);
                completeWriteToClient(r);
                rounds.free(round_id);
            }
            return;
        }

        bool combined = p == Persistency::Strict ||
                        p == Persistency::Synchronous;
        if (combined) {
            if (!r.consistencyDone && r.acksC >= r.followersNeeded &&
                r.pendingLocalPersists == 0) {
                r.consistencyDone = true;
                r.persistencyDone = true;
                Message val = makeMsg(MsgType::Val, r.key, r.ver, 0);
                val.scopeId = r.scopeId;
                val.clientId = r.clientId;
                val.clientSeq = r.clientSeq;
                multicast(r.key, val);
                KeyReplica &kr = keyState(r.key);
                if (kr.volatileVer < r.ver) {
                    // A concurrent round for a newer version may have
                    // already validated; never regress visibility.
                    kr.volatileVer = r.ver;
                    backend->put(r.key, r.ver.number);
                }
                // A concurrent remote INV with higher precedence
                // (same number, higher writer) may have raised
                // transientVer past this round's version while it was
                // collecting acks; the key must stay transient until
                // that winning write's VAL lands, or reads here would
                // serve the losing version after the winner completed.
                if (r.ver >= kr.transientVer)
                    kr.transient = false;
                kr.pendingOpId = 0;
                if (kr.globalPersistVer < r.ver)
                    kr.globalPersistVer = r.ver;
                completeWriteToClient(r);
                wakeWaiters(r.key);
            }
        } else if (p == Persistency::ReadEnforced) {
            if (!r.consistencyDone && r.acksC >= r.followersNeeded) {
                r.consistencyDone = true;
                Message val = makeMsg(MsgType::ValC, r.key, r.ver, 0);
                val.clientId = r.clientId;
                val.clientSeq = r.clientSeq;
                multicast(r.key, val);
                KeyReplica &kr = keyState(r.key);
                if (kr.volatileVer < r.ver) {
                    kr.volatileVer = r.ver;
                    backend->put(r.key, r.ver.number);
                }
                // A concurrent remote INV with higher precedence
                // (same number, higher writer) may have raised
                // transientVer past this round's version while it was
                // collecting acks; the key must stay transient until
                // that winning write's VAL lands, or reads here would
                // serve the losing version after the winner completed.
                if (r.ver >= kr.transientVer)
                    kr.transient = false;
                kr.pendingOpId = 0;
                completeWriteToClient(r);
                wakeWaiters(r.key);
            }
            if (!r.persistencyDone && r.acksP >= r.followersNeeded &&
                r.pendingLocalPersists == 0) {
                r.persistencyDone = true;
                Message val = makeMsg(MsgType::ValP, r.key, r.ver, 0);
                multicast(r.key, val);
                KeyReplica &kr = keyState(r.key);
                if (kr.globalPersistVer < r.ver)
                    kr.globalPersistVer = r.ver;
                wakeWaiters(r.key);
            }
        } else { // Scope / Eventual persistency: consistency round only
            if (!r.consistencyDone && r.acksC >= r.followersNeeded) {
                r.consistencyDone = true;
                r.persistencyDone = true;
                Message val = makeMsg(MsgType::ValC, r.key, r.ver, 0);
                val.scopeId = r.scopeId;
                val.clientId = r.clientId;
                val.clientSeq = r.clientSeq;
                multicast(r.key, val);
                KeyReplica &kr = keyState(r.key);
                if (kr.volatileVer < r.ver) {
                    kr.volatileVer = r.ver;
                    backend->put(r.key, r.ver.number);
                }
                // A concurrent remote INV with higher precedence
                // (same number, higher writer) may have raised
                // transientVer past this round's version while it was
                // collecting acks; the key must stay transient until
                // that winning write's VAL lands, or reads here would
                // serve the losing version after the winner completed.
                if (r.ver >= kr.transientVer)
                    kr.transient = false;
                kr.pendingOpId = 0;
                completeWriteToClient(r);
                wakeWaiters(r.key);
            }
        }
        if (r.consistencyDone && r.persistencyDone && r.clientNotified)
            rounds.free(round_id);
        return;
      }

      case Round::Kind::InitXact: {
        if (r.acksC >= r.followersNeeded &&
            r.pendingLocalPersists == 0) {
            OpResult res;
            res.kind = OpKind::InitXact;
            res.node = self;
            res.issuedAt = r.issuedAt;
            res.completedAt = eq.now();
            res.phases = r.phases;
            res.phases.add(r.waitPhase, eq.now() - r.startedAt);
            if (r.done)
                r.done(res);
            rounds.free(round_id);
        }
        return;
      }

      case Round::Kind::EndXact: {
        if (r.acksC >= r.followersNeeded &&
            r.pendingLocalPersists == 0) {
            auto xit = xactRecs.find(r.xactId);
            if (xit != xactRecs.end()) {
                // Commit point at the coordinator: the buffered writes
                // become visible (their local persists, if any, have
                // already completed as part of this round).
                for (const auto &w : xit->second.writes) {
                    KeyReplica &kr = keyState(w.key);
                    noteVersion(w.key, w.ver);
                    if (kr.volatileVer < w.ver) {
                        kr.volatileVer = w.ver;
                        backend->put(w.key, w.ver.number);
                    }
                    wakeWaiters(w.key);
                    if (sink)
                        sink->onWriteComplete(w.key, w.ver, eq.now());
                }
                xactRecs.erase(xit);
            }
            if (xactTable)
                xactTable->end(r.xactId);
            ctr.add("xact_committed");

            Message val = makeMsg(MsgType::Val, 0, Version{}, 0);
            val.xactId = r.xactId;
            broadcast(val);

            OpResult res;
            res.kind = OpKind::EndXact;
            res.node = self;
            res.issuedAt = r.issuedAt;
            res.completedAt = eq.now();
            res.phases = r.phases;
            res.phases.add(r.waitPhase, eq.now() - r.startedAt);
            if (r.done)
                r.done(res);
            rounds.free(round_id);
        }
        return;
      }

      case Round::Kind::ScopePersist: {
        if (r.acksP >= r.followersNeeded &&
            r.pendingLocalPersists == 0) {
            Message val = makeMsg(MsgType::ValP, 0, Version{}, 0);
            val.scopeId = r.scopeId;
            broadcast(val);
            OpResult res;
            res.kind = OpKind::PersistScope;
            res.node = self;
            res.issuedAt = r.issuedAt;
            res.completedAt = eq.now();
            res.phases = r.phases;
            res.phases.add(r.waitPhase, eq.now() - r.startedAt);
            if (r.done)
                r.done(res);
            rounds.free(round_id);
        }
        return;
      }
    }
}

// --------------------------------------------------------------------------
// Message handling
// --------------------------------------------------------------------------

void
ProtocolNode::handleMessage(const Message &msg)
{
    if (downFlag) {
        // Crashed and not yet restarted: the NIC is dark.
        hot.msgsDroppedNodeDown.add();
        return;
    }
    if (msg.epoch != currentEpoch)
        return; // stale traffic from before a crash
    // Every live arrival is evidence for the failure detector; the
    // inter-arrival gap is what the phi estimate is fit to.
    if (msg.src != self && msg.src < cfg.numNodes) {
        bool before = detector.lastVerdict(msg.src);
        detector.heartbeat(msg.src, eq.now());
        traceSuspicion(msg.src, before, detector.lastVerdict(msg.src));
    }
    sim::Tick cost = cfg.msgProcessing;
    if (msg.type == MsgType::Upd &&
        cfg.model.consistency == Consistency::Causal) {
        cost += cfg.causalUpdOverhead;
    }
    cost = scaledCost(cost);
    sim::Tick admitted = cores.acquire(eq.now(), cost);
    std::uint32_t idx;
    if (!inboxFree.empty()) {
        idx = inboxFree.back();
        inboxFree.pop_back();
        inbox[idx] = msg;
    } else {
        idx = static_cast<std::uint32_t>(inbox.size());
        inbox.push_back(msg);
    }
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, idx] {
        Message m = takeInbound(idx);
        if (ep == currentEpoch)
            processMessage(m);
    });
}

Message
ProtocolNode::takeInbound(std::uint32_t idx)
{
    // Moved out before processing: a handler may park further
    // arrivals, which can grow (and move) the inbox.
    Message m = std::move(inbox[idx]);
    inboxFree.push_back(idx);
    return m;
}

void
ProtocolNode::processMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::Ack:
      case MsgType::AckC:
      case MsgType::AckP:
        handleAck(msg);
        break;
      case MsgType::Val:
      case MsgType::ValC:
      case MsgType::ValP:
        handleVal(msg);
        break;
      case MsgType::Upd:
        handleUpd(msg);
        break;
      case MsgType::InitX:
        handleInitX(msg);
        break;
      case MsgType::EndX:
        handleEndX(msg);
        break;
      case MsgType::Persist:
        handlePersistScope(msg);
        break;
      case MsgType::RecQuery:
      case MsgType::RecSummary:
      case MsgType::RecInstall:
      case MsgType::RecAck:
        recovery->onMessage(msg);
        break;
      case MsgType::NetAck:
        // Link-level traffic is consumed by the fabric's reliability
        // layer and never reaches protocol handlers.
        break;
    }
}

void
ProtocolNode::handleInv(const Message &msg)
{
    const Persistency p = cfg.model.persistency;
    noteVersion(msg.key, msg.version);
    hierarchy.deliverDdio(addrOf(msg.key));

    if (msg.xactId != 0) {
        // Transactional write: buffer until ENDX; acknowledge per the
        // persistency model (Fig. 4: no persist wait except Strict).
        XactRecord &xr = xactRecs[msg.xactId];
        xr.id = msg.xactId;
        xr.coordinator = msg.src;
        xr.writes.push_back({msg.key, msg.version, msg.scopeId});
        if (p == Persistency::Strict) {
            issuePersist(msg.key, msg.version, 0, true, msg.src,
                         msg.opId, false);
        } else {
            sendTo(msg.src,
                   makeMsg(MsgType::AckC, msg.key, msg.version,
                           msg.opId));
        }
        return;
    }

    KeyReplica &kr = keyState(msg.key);
    // Invalidation is idempotent: a retransmitted or late INV whose
    // version is not newer than what this replica already validated
    // must not re-mark the key transient — the matching VAL has been
    // consumed and will never come again, so the key would stall
    // reads forever. It is still acknowledged below (the coordinator
    // may be waiting on the ack), it just cannot regress visibility.
    if (kr.volatileVer < msg.version) {
        kr.transient = true;
        if (kr.transientVer < msg.version)
            kr.transientVer = msg.version;
    }

    switch (p) {
      case Persistency::Strict:
      case Persistency::Synchronous:
        // Persist before acknowledging: the combined ACK certifies both
        // the volatile update and its durability.
        issuePersist(msg.key, msg.version, 0, true, msg.src, msg.opId,
                     false);
        break;
      case Persistency::ReadEnforced:
        sendTo(msg.src,
               makeMsg(MsgType::AckC, msg.key, msg.version, msg.opId));
        issuePersist(msg.key, msg.version, 0, true, msg.src, msg.opId,
                     false);
        break;
      case Persistency::Scope:
        sendTo(msg.src,
               makeMsg(MsgType::AckC, msg.key, msg.version, msg.opId));
        scopeBuffers[msg.scopeId].emplace_back(msg.key, msg.version);
        break;
      case Persistency::Eventual: {
        sendTo(msg.src,
               makeMsg(MsgType::AckC, msg.key, msg.version, msg.opId));
        std::uint32_t ep = currentEpoch;
        KeyId key = msg.key;
        Version ver = msg.version;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
        break;
      }
    }
}

void
ProtocolNode::handleAck(const Message &msg)
{
    // The opId echoed in the ack is a generation-tagged slab handle: a
    // late ack for an already-freed round (or for a pre-crash round —
    // clear() bumped every generation) dereferences to null here.
    Round *rp = rounds.get(msg.opId);
    if (rp == nullptr) {
        hot.acksUnmatched.add();
        return;
    }
    Round &r = *rp;
    switch (msg.type) {
      case MsgType::Ack:
        ++r.acksC;
        ++r.acksP;
        break;
      case MsgType::AckC:
        ++r.acksC;
        break;
      case MsgType::AckP:
        ++r.acksP;
        break;
      default:
        break;
    }
    checkRound(msg.opId);
}

void
ProtocolNode::handleVal(const Message &msg)
{
    if (msg.xactId != 0 || (msg.key == 0 && msg.scopeId != 0 &&
                            msg.type == MsgType::ValP)) {
        // Transaction/scope completion markers carry no per-key state.
        return;
    }
    noteVersion(msg.key, msg.version);
    KeyReplica &kr = keyState(msg.key);

    if (msg.type == MsgType::Val || msg.type == MsgType::ValC) {
        // The write is applied here: remember its client sequence so a
        // failed-over client's retransmit of it is deduped.
        if (msg.clientSeq != 0)
            noteClientSeq(msg.clientId, msg.clientSeq);
        if (kr.volatileVer < msg.version) {
            kr.volatileVer = msg.version;
            backend->put(msg.key, msg.version.number);
        }
        if (kr.transient && msg.version >= kr.transientVer)
            kr.transient = false;
        if (msg.type == MsgType::Val &&
            kr.globalPersistVer < msg.version) {
            // A combined VAL certifies durability everywhere.
            kr.globalPersistVer = msg.version;
        }
    } else { // ValP
        if (kr.globalPersistVer < msg.version)
            kr.globalPersistVer = msg.version;
    }
    wakeWaiters(msg.key);
}

bool
ProtocolNode::causalDepsSatisfied(const net::CausalHistory &deps) const
{
    // Strict and Synchronous persistency bind durability to the VP:
    // an update may only become visible (and be persisted) after its
    // entire happens-before history is durable on this node. Weaker
    // persistency models only require volatile causal order.
    const Persistency p = cfg.model.persistency;
    if (cfg.causalDurableGating &&
        (p == Persistency::Strict || p == Persistency::Synchronous))
        return durableApplied.dominates(
            std::span<const std::uint64_t>(deps.data(), deps.size()));
    return applied.dominates(
        std::span<const std::uint64_t>(deps.data(), deps.size()));
}

void
ProtocolNode::noteCausalDurable(NodeId origin, std::uint64_t seq)
{
    // Persists can complete out of order across NVM banks; advance the
    // durable clock contiguously. The pending list is sorted
    // descending (duplicates dropped), so its lowest entry is last.
    std::vector<std::uint64_t> &pending = pendingDurable[origin];
    auto pos = std::lower_bound(pending.begin(), pending.end(), seq,
                                std::greater<>());
    if (pos == pending.end() || *pos != seq)
        pending.insert(pos, seq);
    while (!pending.empty() &&
           pending.back() == durableApplied[origin] + 1) {
        durableApplied[origin] = pending.back();
        pending.pop_back();
    }
}

void
ProtocolNode::handleUpd(const Message &msg)
{
    if (cfg.model.consistency == Consistency::Causal) {
        // Per-origin FIFO order must be preserved: if earlier UPDs
        // from this origin are still buffered, this one queues behind
        // them even if its own dependencies happen to be satisfied.
        SlabFifo &queue = causalBuffer[msg.src];
        if (queue.head == 0 && causalDepsSatisfied(msg.cauhist)) {
            applyCausalUpd(msg);
            drainCausalBuffer();
        } else {
            std::uint64_t h = bufferedUpds.alloc();
            bufferedUpds.at(h).msg = msg;
            if (queue.tail == 0)
                queue.head = h;
            else
                bufferedUpds.at(queue.tail).next = h;
            queue.tail = h;
            ++causalBuffered;
            hot.causalBuffered.add();
            if (causalBuffered > causalPeak)
                causalPeak = causalBuffered;
        }
        return;
    }

    // Eventual consistency: apply in arrival order, no version check —
    // this is what costs the model its monotonic reads (Table 4 row 5).
    if (msg.clientSeq != 0)
        noteClientSeq(msg.clientId, msg.clientSeq);
    KeyReplica &kr = keyState(msg.key);
    noteVersion(msg.key, msg.version);
    kr.volatileVer = msg.version;
    backend->put(msg.key, msg.version.number);
    hierarchy.deliverDdio(addrOf(msg.key));

    const Persistency p = cfg.model.persistency;
    if (p == Persistency::Strict) {
        issuePersist(msg.key, msg.version, 0, true, msg.src, msg.opId,
                     true);
    } else if (p == Persistency::Synchronous ||
               p == Persistency::ReadEnforced) {
        issuePersist(msg.key, msg.version, 0, false, 0, 0, true);
    } else if (p == Persistency::Scope) {
        scopeBuffers[msg.scopeId].emplace_back(msg.key, msg.version);
    } else {
        std::uint32_t ep = currentEpoch;
        KeyId key = msg.key;
        Version ver = msg.version;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, true);
        });
    }
    wakeWaiters(msg.key);
}

void
ProtocolNode::applyCausalUpd(const Message &msg)
{
    NodeId origin = msg.src;
    std::uint64_t seq = msg.cauhist[origin] + 1;
    if (applied[origin] < seq)
        applied[origin] = seq;
    if (msg.clientSeq != 0)
        noteClientSeq(msg.clientId, msg.clientSeq);

    KeyReplica &kr = keyState(msg.key);
    noteVersion(msg.key, msg.version);
    if (kr.volatileVer < msg.version) {
        kr.volatileVer = msg.version;
        backend->put(msg.key, msg.version.number);
        hierarchy.deliverDdio(addrOf(msg.key));
    }

    const Persistency p = cfg.model.persistency;
    if (p == Persistency::Strict || p == Persistency::Synchronous) {
        // The durable clock only advances once this update's own
        // persist completes, which in turn unblocks buffered UPDs that
        // depend on it.
        issuePersist(msg.key, msg.version, 0,
                     /*follower_acks=*/p == Persistency::Strict, msg.src,
                     msg.opId, false, origin, seq);
    } else if (p == Persistency::ReadEnforced) {
        issuePersist(msg.key, msg.version, 0, false, 0, 0, false);
    } else if (p == Persistency::Scope) {
        scopeBuffers[msg.scopeId].emplace_back(msg.key, msg.version);
    } else {
        std::uint32_t ep = currentEpoch;
        KeyId key = msg.key;
        Version ver = msg.version;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
    }
    wakeWaiters(msg.key);
}

void
ProtocolNode::drainCausalBuffer()
{
    // Only queue heads can become applicable; an apply may unblock
    // other origins' heads, so loop until a full pass makes no
    // progress.
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &queue : causalBuffer) {
            while (queue.head != 0) {
                BufferedUpd &b = bufferedUpds.at(queue.head);
                if (!causalDepsSatisfied(b.msg.cauhist))
                    break;
                Message m = std::move(b.msg);
                std::uint64_t next = b.next;
                bufferedUpds.free(queue.head);
                queue.head = next;
                if (next == 0)
                    queue.tail = 0;
                --causalBuffered;
                applyCausalUpd(m);
                progress = true;
            }
        }
    }
}

void
ProtocolNode::adoptCausalProgress(const VectorClock &clock)
{
    applied.mergeFrom(clock);
    durableApplied.mergeFrom(clock);
    drainCausalBuffer();
}

void
ProtocolNode::adoptVisible(KeyId key, Version version)
{
    noteVersion(key, version);
    KeyReplica &kr = keyState(key);
    if (kr.volatileVer < version) {
        kr.volatileVer = version;
        backend->put(key, version.number);
        ctr.add("view_reconciled_keys");
    }
}

void
ProtocolNode::handleInitX(const Message &msg)
{
    XactRecord &xr = xactRecs[msg.xactId];
    xr.id = msg.xactId;
    xr.coordinator = msg.src;

    const Persistency p = cfg.model.persistency;
    if (p == Persistency::Strict || p == Persistency::Synchronous) {
        // Persist the transaction-begin event before acknowledging.
        sim::Tick done_at = nvmDev.write(eq.now(), xactLogAddr(msg.xactId));
        std::uint32_t ep = currentEpoch;
        NodeId dst = msg.src;
        std::uint64_t op = msg.opId;
        eq.schedule(done_at, [this, ep, dst, op] {
            if (ep == currentEpoch)
                sendTo(dst, makeMsg(MsgType::Ack, 0, Version{}, op));
        });
    } else {
        sendTo(msg.src, makeMsg(MsgType::Ack, 0, Version{}, msg.opId));
    }
}

void
ProtocolNode::handleEndX(const Message &msg)
{
    auto it = xactRecs.find(msg.xactId);
    if (!msg.commit) {
        if (it != xactRecs.end())
            xactRecs.erase(it);
        return;
    }

    // Collect the transaction's buffered writes in version order.
    std::vector<XactWrite> writes;
    if (it != xactRecs.end()) {
        writes = std::move(it->second.writes);
        xactRecs.erase(it);
    }
    std::sort(writes.begin(), writes.end(),
              [](const XactWrite &a, const XactWrite &b) {
                  return a.ver < b.ver;
              });

    const Persistency p = cfg.model.persistency;
    NodeId dst = msg.src;
    std::uint64_t op = msg.opId;

    if (p == Persistency::Synchronous && !writes.empty()) {
        // Persist first, make visible second, ACK last: reads must
        // never observe a transaction that could still be wiped out
        // (this is what keeps Table 4's monotonic-reads "yes").
        std::uint64_t bh = barriers.alloc();
        PersistBarrier &b = barriers.at(bh);
        b.remaining = static_cast<std::uint32_t>(writes.size());
        b.ackType = MsgType::Ack;
        b.ackDst = dst;
        b.ackOp = op;
        b.writes = writes;
        for (const auto &w : writes) {
            issuePersist(w.key, w.ver, 0, false, 0, 0, false,
                         net::kNoNode, 0, bh);
        }
        return;
    }
    applyCommitted(writes);

    if (p == Persistency::ReadEnforced) {
        for (const auto &w : writes)
            issuePersist(w.key, w.ver, 0, false, 0, 0, false);
    } else if (p == Persistency::Scope) {
        // Each committed write joins its own scope's barrier.
        for (const auto &w : writes)
            scopeBuffers[w.scopeId].emplace_back(w.key, w.ver);
    } else if (p == Persistency::Eventual) {
        for (const auto &w : writes) {
            std::uint32_t ep = currentEpoch;
            KeyId k = w.key;
            Version v = w.ver;
            eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, k, v] {
                if (ep == currentEpoch)
                    issuePersist(k, v, 0, false, 0, 0, false);
            });
        }
    }
    // Strict: the writes were persisted at INV time.
    sendTo(dst, makeMsg(MsgType::Ack, 0, Version{}, op));
}

void
ProtocolNode::applyCommitted(const std::vector<XactWrite> &writes)
{
    for (const auto &w : writes) {
        KeyReplica &kr = keyState(w.key);
        noteVersion(w.key, w.ver);
        if (kr.volatileVer < w.ver) {
            kr.volatileVer = w.ver;
            backend->put(w.key, w.ver.number);
        }
        wakeWaiters(w.key);
    }
}

void
ProtocolNode::handlePersistScope(const Message &msg)
{
    auto it = scopeBuffers.find(msg.scopeId);
    NodeId dst = msg.src;
    std::uint64_t op = msg.opId;

    if (it == scopeBuffers.end() || it->second.empty()) {
        if (it != scopeBuffers.end())
            scopeBuffers.erase(it);
        sendTo(dst, makeMsg(MsgType::AckP, 0, Version{}, op));
        return;
    }

    std::vector<std::pair<KeyId, Version>> entries =
        std::move(it->second);
    scopeBuffers.erase(it);
    std::uint64_t bh = barriers.alloc();
    PersistBarrier &b = barriers.at(bh);
    b.remaining = static_cast<std::uint32_t>(entries.size());
    b.ackType = MsgType::AckP;
    b.ackDst = dst;
    b.ackOp = op;
    for (const auto &[key, ver] : entries)
        issuePersist(key, ver, 0, false, 0, 0, false, net::kNoNode, 0, bh);
}

// --------------------------------------------------------------------------
// Eventual-consistency lazy propagation
// --------------------------------------------------------------------------

void
ProtocolNode::enqueueLazyUpd(Message msg)
{
    lazyQueue.push_back(std::move(msg));
    if (!lazyFlushScheduled) {
        lazyFlushScheduled = true;
        std::uint32_t ep = currentEpoch;
        eq.scheduleIn(cfg.lazyUpdDelay, [this, ep] {
            if (ep == currentEpoch)
                flushLazyUpds();
        });
    }
}

void
ProtocolNode::flushLazyUpds()
{
    lazyFlushScheduled = false;
    std::vector<Message> pending = std::move(lazyQueue);
    lazyQueue.clear();
    for (auto &m : pending) {
        KeyId key = m.key;
        hot.updSent.add(rmap.followerCount(key));
        multicast(key, std::move(m));
    }
}

// --------------------------------------------------------------------------
// Failure and recovery
// --------------------------------------------------------------------------

void
ProtocolNode::abortInFlight()
{
    ++currentEpoch;
    rounds.clear();
    xactRecs.clear();
    scopeBuffers.clear();
    bufferedUpds.clear();
    causalBuffer.assign(cfg.numNodes, {});
    causalBuffered = 0;
    lazyQueue.clear();
    lazyFlushScheduled = false;
    applied = VectorClock(cfg.numNodes);
    durableApplied = VectorClock(cfg.numNodes);
    pendingDurable.assign(cfg.numNodes, {});
    // One slab clear() retires every parked request (all outstanding
    // waiter handles go stale), every coalescing record and every
    // persist obligation; the per-key handles reset below. A parked
    // request's waiter was its only owner, so its record goes too.
    // Requests owned by a scheduled event are freed when that event
    // fires into the new epoch — or run on, for a woken waiter's
    // resume, which is not epoch-guarded.
    waiterSlab.forEach([this](std::uint64_t, Waiter &w) {
        requests.free(w.request);
    });
    waiterSlab.clear();
    persistFlights.clear();
    obligations.clear();
    barriers.clear();
    for (auto &kr : keys) {
        kr.transient = false;
        kr.transientVer = Version{};
        kr.pendingOpId = 0;
        kr.waiterHead = sim::ChunkedSlab<Waiter>::kNull;
        kr.waiterTail = sim::ChunkedSlab<Waiter>::kNull;
        kr.persistFlight = sim::ChunkedSlab<PersistFlight>::kNull;
    }

    // A survivor still backfilling when another node crashes: the
    // epoch bump just killed its in-flight fault-in completions and
    // the backfill timer. Demote Faulting keys back to Cold (their
    // NVM reads are dead) and re-arm the backfill under the new epoch;
    // coldRemaining is unchanged since Faulting still counted as cold.
    if (instantActive) {
        bool demoted = false;
        for (KeyId key = 0; key < keyTemp.size(); ++key) {
            if (keyTemp[key] == KeyTemp::Faulting) {
                keyTemp[key] = KeyTemp::Cold;
                demoted = true;
            }
        }
        if (demoted)
            backfillCursor = 0; // demoted keys may lie behind it
        scheduleBackfill(cfg.instantBackfillInterval);
    }
}

void
ProtocolNode::crashVolatile()
{
    // A crash cancels any in-flight shard range acquire: drop the
    // transfer state before abortInFlight() so it cannot re-arm the
    // backfill timer. The full image scan below re-establishes every
    // key, and the cluster's migration bookkeeping (which sees the
    // crash) re-sources the range from the still-live team.
    instantActive = false;
    rangeAcquireActive = false;
    recoveryDoneFn = nullptr;
    freshestFn = nullptr;
    keyTemp.clear();
    staleStaging.clear();
    coldRemaining = 0;

    abortInFlight();
    hierarchy.crash();
    image.crash();
    clientSeqSeen.clear();

    // Rebuild volatile state from what recovery actually finds in the
    // medium — NOT from the in-memory persistedVer bookkeeping, which
    // a real crash wipes out along with everything else volatile. For
    // single-line values the two agree by construction; for multi-line
    // values recovery must verify each key's commit record and roll
    // torn in-flight copies back to the last intact version (or, with
    // commit records ablated, install the torn copy and pay for it).
    for (KeyId key = 0; key < keys.size(); ++key) {
        KeyReplica &kr = keys[key];
        mem::PersistImage::Recovered rec = image.recover(key);
        if (rec.tornDetected) {
            ctr.add("torn_persists_detected");
            if (sink)
                sink->onTornDetected(cfg.observerIdOffset + self, key, rec.version);
        }
        if (rec.uncommittedRollback)
            ctr.add("uncommitted_persists_rolled_back");
        if (rec.tornInstalled) {
            ctr.add("torn_values_installed");
            if (sink)
                sink->onTornInstall(cfg.observerIdOffset + self, key, rec.version);
        }
        kr.persistedVer = rec.version;
        kr.volatileVer = kr.persistedVer;
        if (kr.globalPersistVer > kr.persistedVer)
            kr.globalPersistVer = kr.persistedVer;
        if (kr.persistedVer.number > 0)
            backend->put(key, kr.persistedVer.number);
        else
            backend->erase(key);
    }
}

void
ProtocolNode::crashVolatileInstant()
{
    // Instant recovery's lazy scan leans on commit records: the intact
    // version a cold-aware getter reports must be exactly what a full
    // recover() would settle on, which only holds when recovery never
    // installs a staged (possibly torn) copy. The ablation is rejected
    // at the CLI; keep the invariant visible here too.
    assert((cfg.commitRecords || cfg.valueLines == 1) &&
           "instant recovery requires commit records");

    // If a previous instant recovery or range acquire is still
    // draining, drop it first so abortInFlight() below does not re-arm
    // its backfill timer; the fresh crash re-snapshots everything
    // anyway.
    instantActive = false;
    rangeAcquireActive = false;
    recoveryDoneFn = nullptr;
    freshestFn = nullptr;

    abortInFlight();
    hierarchy.crash();
    image.crash();
    clientSeqSeen.clear();

    // Defer the durable-image scan (MM-DIRECT): remember which keys
    // had a persist frozen mid-flight and mark the whole key space
    // cold. The per-key verified scan (recoverOnDemand) runs lazily at
    // the first post-crash touch — request fault-in, backfill, or a
    // new persist of the same key.
    std::vector<KeyId> frozen = image.inflightKeys();
    staleStaging.clear();
    staleStaging.insert(frozen.begin(), frozen.end());
    keyTemp.assign(keys.size(), KeyTemp::Cold);
    coldRemaining = keys.size();
    backfillCursor = 0;
    instantActive = true;

    // The volatile copies are gone; until a key is faulted in the
    // cold-aware getters substitute the durable image's intact
    // version. maxSeen survives as the version allocator's seed, the
    // same convention crashVolatile() follows.
    for (auto &kr : keys) {
        kr.volatileVer = Version{};
        kr.persistedVer = Version{};
        kr.globalPersistVer = Version{};
    }
    backend->clear();
}

void
ProtocolNode::beginInstantRecovery(
    std::function<Version(KeyId)> freshest, std::function<void()> done)
{
    assert(instantActive &&
           "beginInstantRecovery needs crashVolatileInstant first");
    freshestFn = std::move(freshest);
    recoveryDoneFn = std::move(done);
    ctr.add("instant_recoveries_started");
    if (coldRemaining == 0) {
        finishInstantRecovery();
        return;
    }
    scheduleBackfill(cfg.instantBackfillInterval);
}

void
ProtocolNode::beginRangeAcquire(
    KeyId lo, KeyId hi, std::function<Version(KeyId)> freshest,
    std::function<void()> done)
{
    assert(lo < hi && hi <= keys.size());
    assert(!instantActive &&
           "range acquire cannot overlap an active recovery/acquire");

    // Unlike a crash, the node keeps everything it has: only the
    // incoming range goes cold, no epoch bump, no volatile wipe, and
    // staleStaging is untouched (the durable image here never froze —
    // this node did not crash). Requests touching [lo, hi) park on the
    // cold key and fault it in on demand, exactly the instant-recovery
    // path; each fault-in merges the freshest version the source
    // team's live replicas hold. The background backfill's existing
    // flow control paces the transfer behind foreground traffic.
    keyTemp.assign(keys.size(), KeyTemp::Warm);
    for (KeyId key = lo; key < hi; ++key)
        keyTemp[key] = KeyTemp::Cold;
    coldRemaining = hi - lo;
    backfillCursor = lo;
    instantActive = true;
    rangeAcquireActive = true;
    freshestFn = std::move(freshest);
    recoveryDoneFn = std::move(done);
    ctr.add("shard_range_acquires_started");
    scheduleBackfill(cfg.instantBackfillInterval);
}

Version
ProtocolNode::settleStaleStaging(KeyId key)
{
    auto it = staleStaging.find(key);
    if (it == staleStaging.end())
        return image.intactVersion(key);
    staleStaging.erase(it);
    mem::PersistImage::Recovered rec = image.recoverOnDemand(key);
    if (rec.tornDetected) {
        ctr.add("torn_persists_detected");
        if (sink)
            sink->onTornDetected(cfg.observerIdOffset + self, key, rec.version);
    }
    if (rec.uncommittedRollback)
        ctr.add("uncommitted_persists_rolled_back");
    if (rec.tornInstalled) {
        ctr.add("torn_values_installed");
        if (sink)
            sink->onTornInstall(cfg.observerIdOffset + self, key, rec.version);
    }
    return rec.version;
}

sim::Tick
ProtocolNode::startFaultIn(KeyId key)
{
    assert(instantActive && keyTemp[key] == KeyTemp::Cold);
    keyTemp[key] = KeyTemp::Faulting;
    ctr.add(rangeAcquireActive ? "shard_acquire_fault_ins"
                               : "recovery_fault_ins");
    // Pull every line of the value from NVM; the commit record rides
    // the same scan. Lines map to different banks and read in
    // parallel, so the fault-in completes when the slowest one does.
    sim::Tick done_at = eq.now();
    for (std::uint32_t i = 0; i < cfg.valueLines; ++i) {
        sim::Tick t = nvmDev.read(eq.now(), addrOf(key) + 64ull * i);
        if (t > done_at)
            done_at = t;
    }
    std::uint32_t ep = currentEpoch;
    eq.schedule(done_at, [this, ep, key] {
        if (ep != currentEpoch)
            return; // raced another crash; abortInFlight demoted us
        completeFaultIn(key);
    });
    return done_at;
}

void
ProtocolNode::completeFaultIn(KeyId key)
{
    assert(instantActive && keyTemp[key] == KeyTemp::Faulting);
    // Checksum-verified local load (rolls torn staging back to the
    // last intact copy), then merge in the freshest version the live
    // peers hold — the per-key slice of recovery state transfer.
    Version best = settleStaleStaging(key);
    if (freshestFn) {
        Version peer = freshestFn(key);
        if (best < peer)
            best = peer;
    }
    installFaulted(key, best);
    keyTemp[key] = KeyTemp::Warm;
    assert(coldRemaining > 0);
    --coldRemaining;
    wakeWaiters(key);
    if (coldRemaining == 0)
        finishInstantRecovery();
}

void
ProtocolNode::installFaulted(KeyId key, Version ver)
{
    // Monotone install: catch-up INVs/VALs/UPDs may already have
    // advanced the cold key past its durable baseline — the fault-in
    // must never regress what post-restart traffic established.
    KeyReplica &kr = keyState(key);
    noteVersion(key, ver);
    if (kr.volatileVer < ver) {
        kr.volatileVer = ver;
        if (ver.number > 0)
            backend->put(key, ver.number);
    }
    if (kr.persistedVer < ver)
        kr.persistedVer = ver;
    if (kr.globalPersistVer < ver)
        kr.globalPersistVer = ver;
    if (image.intactVersion(key) < ver)
        image.installCommitted(key, ver);
}

void
ProtocolNode::scheduleBackfill(sim::Tick delay)
{
    if (!instantActive || coldRemaining == 0 ||
        backfillCursor >= keys.size())
        return;
    std::uint32_t ep = currentEpoch;
    eq.scheduleIn(delay, [this, ep] {
        if (ep != currentEpoch || !instantActive)
            return;
        // Fault in the next batch of still-cold keys. Keys the request
        // stream already touched are Faulting or Warm and skip for
        // free — on-demand traffic effectively prioritizes hot keys
        // ahead of this cursor.
        std::uint32_t batch = 0;
        sim::Tick batch_done = eq.now();
        while (batch < cfg.instantBackfillBatch &&
               backfillCursor < keys.size()) {
            KeyId key = backfillCursor++;
            if (keyTemp[key] != KeyTemp::Cold)
                continue;
            sim::Tick t = startFaultIn(key);
            if (t > batch_done)
                batch_done = t;
            ++batch;
        }
        // Flow control: the next round waits for this batch's NVM
        // reads to drain plus the configured pause. Without it a
        // multi-line backfill can outrun the device's service rate,
        // and demand fault-ins queue behind an ever-growing backlog.
        scheduleBackfill(batch_done - eq.now() +
                         cfg.instantBackfillInterval);
    });
}

void
ProtocolNode::finishInstantRecovery()
{
    if (!instantActive)
        return;
    instantActive = false;
    keyTemp.clear();
    keyTemp.shrink_to_fit();
    staleStaging.clear();
    freshestFn = nullptr;
    ctr.add(rangeAcquireActive ? "shard_range_acquires_completed"
                               : "instant_recoveries_completed");
    rangeAcquireActive = false;
    auto done = std::move(recoveryDoneFn);
    recoveryDoneFn = nullptr;
    if (done)
        done();
}

void
ProtocolNode::installRecovered(KeyId key, Version version)
{
    KeyReplica &kr = keyState(key);
    kr.volatileVer = version;
    kr.persistedVer = version;
    kr.globalPersistVer = version;
    noteVersion(key, version);
    image.installCommitted(key, version);
    if (version.number > 0)
        backend->put(key, version.number);
}

void
ProtocolNode::setDown(bool down)
{
    if (downFlag == down)
        return;
    downFlag = down;
    peerUp[self] = !down;
    ctr.add(down ? "node_down" : "node_restarted");
}

void
ProtocolNode::setPeerDown(NodeId peer, bool down)
{
    assert(peer < peerUp.size());
    bool came_back = !down && !peerUp[peer];
    peerUp[peer] = !down;
    if (!came_back || peer == self || downFlag)
        return;

    // Re-join catch-up: write rounds issued during the peer's downtime
    // never reached it, so without help the returning replica would
    // keep serving the superseded version after those writes complete
    // — a linearizability hole on re-join. Rounds still invalidating
    // get their INV re-sent with the ack set widened (the round now
    // waits for the returning replica too); rounds already validated
    // get the winning value pushed directly.
    rounds.forEach([&](std::uint64_t id, Round &r) {
        if (r.kind != Round::Kind::Write)
            return;
        if (!rmap.isReplica(r.key, peer))
            return;
        if (isAckRoundConsistency() && !r.consistencyDone) {
            Message inv = makeMsg(MsgType::Inv, r.key, r.ver, id);
            inv.hasData = true;
            inv.dataLines = cfg.valueLines;
            inv.xactId = r.xactId;
            inv.scopeId = r.scopeId;
            inv.clientId = r.clientId;
            inv.clientSeq = r.clientSeq;
            sendTo(peer, std::move(inv));
            ++r.followersNeeded;
            ctr.add("rejoin_round_invs");
        } else if (r.consistencyDone) {
            Message val = makeMsg(MsgType::ValC, r.key, r.ver, 0);
            val.clientId = r.clientId;
            val.clientSeq = r.clientSeq;
            sendTo(peer, std::move(val));
            ctr.add("rejoin_round_vals");
        }
    });
}

std::uint32_t
ProtocolNode::liveFollowers() const
{
    std::uint32_t n = 0;
    for (NodeId i = 0; i < cfg.numNodes; ++i) {
        if (i != self && peerUp[i])
            ++n;
    }
    return n;
}

std::uint32_t
ProtocolNode::liveFollowerCount(KeyId key) const
{
    if (rmap.full())
        return liveFollowers();
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < rmap.factor(); ++i) {
        NodeId r = rmap.replica(key, i);
        if (r != self && peerUp[r])
            ++n;
    }
    return n;
}

void
ProtocolNode::noteClientSeq(std::uint32_t client, std::uint64_t seq)
{
    std::uint64_t &seen = clientSeqSeen[client];
    if (seen < seq)
        seen = seq;
}

Version
ProtocolNode::visibleVersion(KeyId key) const
{
    // A cold key's volatile copy was wiped by the instant crash but
    // its durable intact version is recoverable on demand; report the
    // stronger of the two so recovery hooks and durability audits see
    // what a fault-in would establish.
    const KeyReplica &kr = keyState(key);
    if (keyCold(key)) {
        Version intact = image.intactVersion(key);
        return kr.volatileVer < intact ? intact : kr.volatileVer;
    }
    return kr.volatileVer;
}

Version
ProtocolNode::persistedVersion(KeyId key) const
{
    const KeyReplica &kr = keyState(key);
    if (keyCold(key)) {
        Version intact = image.intactVersion(key);
        return kr.persistedVer < intact ? intact : kr.persistedVer;
    }
    return kr.persistedVer;
}

Version
ProtocolNode::pendingInvalidation(KeyId key) const
{
    const KeyReplica &kr = keyState(key);
    return kr.transient ? kr.transientVer : Version{};
}

} // namespace ddp::core

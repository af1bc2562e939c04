#include "cluster/cluster.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

namespace ddp::cluster {

Cluster::Cluster(const ClusterConfig &config)
    : cfg(config),
      rmap(config.numServers, config.replicationFactor),
      eq(config.queueImpl),
      hedgeEstimator(config.numServers)
{
    assert(cfg.numServers >= 2 && "need at least one follower");

    if (sharded()) {
        assert(cfg.numServers % cfg.numShards == 0 &&
               "servers must split evenly into shard teams");
        teamSize_ = cfg.numServers / cfg.numShards;
        assert(teamSize_ >= 2 && "each shard team needs a follower");
        assert(cfg.replicationFactor == 0 &&
               "shard teams replicate fully within the team");
        assert(!cfg.faults.any() && !cfg.faults.anySlow() &&
               "fault plans address the single-fabric topology");
        assert(cfg.recovery != RecoveryPolicy::SimulatedVoting &&
               "the voting message protocol is team-local; use another "
               "policy in sharded mode");
        assert(!cfg.hedgedReads &&
               "hedge estimator state is ambiguous across teams");
    } else {
        teamSize_ = cfg.numServers;
    }

    if (cfg.faults.any() || cfg.faults.anySlow()) {
        if (cfg.faults.any()) {
            // A lossy wire needs the reliable-delivery layer or the
            // protocols would deadlock on the first dropped VAL.
            // Slow-only plans deliberately do NOT enable it: a gray
            // node delays traffic but loses nothing, and leaving the
            // wire format untouched keeps slow-free runs byte-
            // identical to earlier builds.
            cfg.network.reliability.enabled = true;
        }
        faultPlan = std::make_unique<net::FaultPlan>(
            cfg.faults, cfg.numServers, cfg.seed);
    }

    // One fabric per replica team. In legacy mode that is one fabric
    // over all servers; sharded teams are network-isolated from each
    // other (inter-team coordination happens client-side, through the
    // router hop).
    for (std::uint32_t t = 0; t < numTeams(); ++t)
        fabrics.push_back(
            std::make_unique<net::Fabric>(eq, cfg.network, teamSize_));
    if (faultPlan)
        fabrics[0]->setFaultPlan(faultPlan.get());

    core::NodeParams np = cfg.node;
    np.model = cfg.model;
    np.numNodes = teamSize_;
    np.replicationFactor = cfg.replicationFactor;
    np.keyCount = cfg.keyCount;

    // Global node n lives in team n / teamSize_ under team-local id
    // n % teamSize_; the protocol engine runs unmodified within its
    // team, while checker observations carry the global id.
    for (std::uint32_t n = 0; n < cfg.numServers; ++n) {
        np.observerIdOffset = (n / teamSize_) * teamSize_;
        nodes.push_back(std::make_unique<core::ProtocolNode>(
            eq, *fabrics[n / teamSize_], n % teamSize_, np, ctr,
            &xactTable));
    }

    // Fail-slow injection: degraded layers pull their factor from the
    // plan at access time (a pure function of the clock — it consumes
    // no RNG state, so the chaos streams are unperturbed).
    if (faultPlan) {
        const net::FaultPlan *fp = faultPlan.get();
        for (net::NodeId n = 0; n < cfg.numServers; ++n) {
            if (fp->hasSlow(n, net::SlowLayer::Nvm))
                nodes[n]->nvm().setSlowFactor([fp, n](sim::Tick at) {
                    return fp->slowFactor(at, n, net::SlowLayer::Nvm);
                });
            if (fp->hasSlow(n, net::SlowLayer::Nic))
                fabrics[0]->nic(n).setSlowFactor([fp, n](sim::Tick at) {
                    return fp->slowFactor(at, n, net::SlowLayer::Nic);
                });
            if (fp->hasSlow(n, net::SlowLayer::Core))
                nodes[n]->setCoreSlowFactor([fp, n](sim::Tick at) {
                    return fp->slowFactor(at, n, net::SlowLayer::Core);
                });
        }
    }

    // Resolve the tenant table: empty = one implicit tenant driving
    // cfg.workload. Every tenant's DDP binding must equal the run's
    // model — one cluster executes one protocol, so heterogeneous
    // bindings are expressed as separate runs.
    if (cfg.tenants.empty()) {
        TenantSpec def;
        def.workload = cfg.workload;
        def.model = cfg.model;
        tenantTable.push_back(def);
    } else {
        tenantTable = cfg.tenants;
    }
    for (const TenantSpec &t : tenantTable) {
        (void)t;
        assert(t.model == cfg.model &&
               "tenant DDP bindings must equal the run's model");
    }

    // Partition the client pool: explicit TenantSpec::clients counts
    // are honored; entries left at 0 split the remaining pool evenly,
    // earlier tenants absorbing the remainder.
    {
        std::uint32_t total = cfg.totalClients();
        std::uint32_t assigned = 0;
        std::uint32_t flexible = 0;
        for (const TenantSpec &t : tenantTable) {
            if (t.clients > 0)
                assigned += t.clients;
            else
                ++flexible;
        }
        std::uint32_t pool = total > assigned ? total - assigned : 0;
        std::uint32_t share = flexible ? pool / flexible : 0;
        std::uint32_t extra = flexible ? pool % flexible : 0;
        for (const TenantSpec &t : tenantTable) {
            std::uint32_t n = t.clients;
            if (n == 0) {
                n = share + (extra > 0 ? 1 : 0);
                if (extra > 0)
                    --extra;
            }
            tenantClients.push_back(n);
        }
    }
    frontiers.resize(tenantTable.size());
    // Zipfian constants cost keyCount pow() calls to compute: build one
    // immutable set per distinct (keyCount, theta) across the tenants,
    // shared by every client generator that samples from it.
    for (const TenantSpec &t : tenantTable) {
        workload::ZipfTable table;
        for (const workload::ZipfTable &z : zipfTables) {
            if (z->itemCount() == t.workload.keyCount &&
                z->skew() == t.workload.zipfTheta) {
                table = z;
                break;
            }
        }
        zipfTables.push_back(table ? table
                                   : workload::makeZipfTable(t.workload));
    }
    // Tenant rate-series bucket: the configured timeline bucket, or
    // 1/20th of the run when no timeline was asked for (offered-vs-
    // served plots need some shape either way).
    {
        sim::Tick tb = cfg.timelineBucket;
        if (tb == 0) {
            tb = (cfg.warmup + cfg.measure) / 20;
            if (tb == 0)
                tb = 1;
        }
        for (std::size_t t = 0; t < tenantTable.size(); ++t)
            tenantStats.emplace_back(tb);
    }

    std::uint32_t cid = 0;
    for (std::uint32_t t = 0; t < tenantTable.size(); ++t) {
        for (std::uint32_t k = 0; k < tenantClients[t]; ++k, ++cid) {
            clients.push_back(std::make_unique<Client>(
                *this, *nodes[cid % cfg.numServers], cid, t));
        }
    }

    if (cfg.timelineBucket > 0) {
        ownTimeline =
            std::make_unique<stats::RateSeries>(cfg.timelineBucket);
        timeline = ownTimeline.get();
    }

    if (sharded()) {
        layout =
            shard::ShardLayout::makeInitial(cfg.keyCount, cfg.numShards);
        teamServed.assign(cfg.numShards, 0);
        shard::DataDistributor::Params dp;
        dp.interval = cfg.shardRebalanceInterval;
        dp.splitThreshold = cfg.shardSplitThreshold;
        dp.teamMaxOps = cfg.shardMaxOps;
        shard::DataDistributor::Hooks hooks;
        hooks.teamHealthy = [this](shard::TeamId t) {
            return teamHealthy(t);
        };
        hooks.migrationActive = [this] { return migration.active; };
        hooks.split = [this](std::size_t idx, net::KeyId mid) {
            executeSplit(idx, mid);
        };
        hooks.migrate = [this](std::size_t idx, shard::TeamId dst) {
            executeMigration(idx, dst);
        };
        distributor = std::make_unique<shard::DataDistributor>(
            layout, ctr, dp, std::move(hooks));
        distributor->start(eq);
    }
}

Cluster::~Cluster() = default;

core::ProtocolNode &
Cluster::nodeForKey(net::KeyId key, std::uint32_t client_id)
{
    if (sharded())
        return nodeInTeam(layout.teamFor(key), client_id);
    if (rmap.full())
        return *nodes[client_id % cfg.numServers];
    return *nodes[rmap.coordinatorFor(key, client_id)];
}

sim::Tick
Cluster::hedgeDelayFor(net::NodeId node) const
{
    if (!hedgeEstimator.hasEstimate(node))
        return 0; // too little evidence to call anything "slow"
    sim::Tick p99 = hedgeEstimator.p99Estimate(node);
    return p99 > cfg.hedgeMinDelay ? p99 : cfg.hedgeMinDelay;
}

net::NodeId
Cluster::hedgePeerFor(net::KeyId key, net::NodeId primary)
{
    if (sharded())
        return net::kNoNode; // hedging rejected at construction
    const bool any_copy =
        cfg.model.consistency == core::Consistency::Eventual;

    // Freshest visible version across the live replica set: the bar a
    // hedge target must meet under the stronger consistency models.
    net::Version freshest{};
    if (!any_copy) {
        for (std::uint32_t i = 0; i < rmap.factor(); ++i) {
            net::NodeId n = rmap.replica(key, i);
            if (nodes[n]->isDown())
                continue;
            net::Version v = nodes[n]->visibleVersion(key);
            if (freshest < v)
                freshest = v;
        }
    }

    // Deterministic pick: the admissible replica closest after the
    // primary in node order (spreads hedges without consuming RNG).
    net::NodeId best = net::kNoNode;
    std::uint32_t best_dist = 0;
    for (std::uint32_t i = 0; i < rmap.factor(); ++i) {
        net::NodeId n = rmap.replica(key, i);
        if (n == primary || nodes[n]->isDown())
            continue;
        if (!any_copy && !(nodes[n]->visibleVersion(key) == freshest))
            continue;
        std::uint32_t dist =
            (n + cfg.numServers - primary) % cfg.numServers;
        if (best == net::kNoNode || dist < best_dist) {
            best = n;
            best_dist = dist;
        }
    }
    return best;
}

void
Cluster::setChecker(core::PropertyChecker *c)
{
    checker = c;
    for (auto &n : nodes)
        n->setSink(c);
}

void
Cluster::setTracer(net::MessageTracer *t)
{
    tracerPtr = t;
    for (auto &f : fabrics)
        f->setTracer(t);
}

void
Cluster::setTrace(sim::TraceRecorder *t)
{
    trace = t;
    for (std::uint32_t f = 0; f < fabrics.size(); ++f)
        fabrics[f]->setTrace(t, f * teamSize_);
    for (std::uint32_t n = 0; n < nodes.size(); ++n) {
        nodes[n]->setTrace(t, n);
        nodes[n]->nvm().setTrace(t, n, 2);
        nodes[n]->dram().setTrace(t, n, 3);
    }
    if (!t)
        return;
    for (std::uint32_t n = 0; n < nodes.size(); ++n) {
        std::string name =
            sharded() ? "team" + std::to_string(n / teamSize_) +
                            ".node" + std::to_string(n % teamSize_)
                      : "node" + std::to_string(n);
        t->processName(n, name);
        t->threadName(n, 0, "requests");
        t->threadName(n, 1, "nic");
        t->threadName(n, 2, "nvm");
        t->threadName(n, 3, "dram");
    }
    std::uint32_t cpid = static_cast<std::uint32_t>(nodes.size());
    t->processName(cpid, "cluster");
    t->threadName(cpid, 0, "events");
}

void
Cluster::recordOp(core::OpKind kind, sim::Tick latency,
                  const sim::PhaseAccum &phases, net::KeyId key)
{
    const bool client_req = kind == core::OpKind::Read ||
                            kind == core::OpKind::Write ||
                            kind == core::OpKind::Scan;
    if (client_req && sharded()) {
        // Load feedback drives the distributor during warmup too; the
        // per-team served tally is measurement-window only.
        distributor->noteOp(key);
        if (recording)
            ++teamServed[layout.teamFor(key)];
    }
    if (timeline && client_req)
        timeline->record(eq.now());
    if (recoveringCount > 0 && client_req)
        ++servedDuringRecoveryCount;
    if (!recording)
        return;
    switch (kind) {
      case core::OpKind::Read:
      case core::OpKind::Write:
        assert(phases.sum() == latency &&
               "request phase spans must sum to end-to-end latency");
        if (kind == core::OpKind::Read)
            readLat.record(latency);
        else
            writeLat.record(latency);
        allLat.record(latency);
        for (std::size_t p = 0; p < sim::kPhaseCount; ++p)
            phaseLat[p].record(phases.ticks[p]);
        break;
      case core::OpKind::Scan:
        // Scans obey the phase invariant but stay out of the paper's
        // read/write throughput histograms; their counts ride the
        // scans_completed counter instead.
        assert(phases.sum() == latency &&
               "request phase spans must sum to end-to-end latency");
        break;
      default:
        // InitXact/EndXact/PersistScope pace the clients but are not
        // client requests in the paper's throughput accounting.
        break;
    }
}

void
Cluster::noteTenantOffered(std::uint32_t t, sim::Tick at)
{
    TenantAccum &ta = tenantStats[t];
    ++ta.offered;
    ta.offeredSeries.record(at);
}

void
Cluster::noteTenantShed(std::uint32_t t)
{
    ++tenantStats[t].shed;
}

void
Cluster::noteTenantDone(std::uint32_t t, bool served, sim::Tick latency)
{
    if (!served)
        return; // abandoned: folds into timedOut at run end
    TenantAccum &ta = tenantStats[t];
    ++ta.served;
    ta.servedSeries.record(eq.now());
    ta.lat.record(latency);
    sim::Tick slo = tenantTable[t].sloLatency;
    if (slo > 0 && latency <= slo)
        ++ta.sloMet;
}

void
Cluster::scheduleCrash(sim::Tick at)
{
    eq.schedule(at, [this] { crashNow(); });
}

void
Cluster::schedulePartialCrash(sim::Tick at,
                              std::vector<net::NodeId> victims)
{
    eq.schedule(at, [this, victims = std::move(victims)] {
        crashPartial(victims);
    });
}

void
Cluster::schedulePartialCrash(sim::Tick at,
                              std::vector<net::NodeId> victims,
                              sim::Tick restart_after)
{
    eq.schedule(at, [this, victims = std::move(victims), restart_after] {
        crashPartialStaged(victims, restart_after);
    });
}

void
Cluster::auditEpoch(RecoveryStats &rs,
                    const std::function<net::Version(net::KeyId)>
                        &recovered_version)
{
    if (!checker)
        return;
    core::PropertyChecker::DurabilityAudit audit =
        checker->auditDurability(cfg.model, recovered_version);
    rs.lostAckedWriteKeys = audit.lostAckedKeys;
    rs.lostAckedWrites = audit.lostAckedWrites;
    lostKeysTotal += rs.lostAckedWriteKeys;
    lostWritesTotal += rs.lostAckedWrites;
}

std::vector<net::Version>
Cluster::pendingReplaySnapshot(const std::vector<bool> &crashed) const
{
    std::vector<net::Version> replay(cfg.keyCount);
    for (net::KeyId key = 0; key < cfg.keyCount; ++key) {
        forEachReplica(key, [&](net::NodeId rep) {
            if (crashed[rep])
                return;
            net::Version v = nodes[rep]->pendingInvalidation(key);
            // Only writes whose coordinator died are replayed; a
            // surviving writer aborts its own round and the client
            // retries it. Version writer ids are team-local in sharded
            // mode; map back to the holder's team for the lookup.
            net::NodeId writer =
                sharded() ? static_cast<net::NodeId>(
                                teamOf(rep) * teamSize_ + v.writer)
                          : v.writer;
            if (v.number > 0 && writer < crashed.size() &&
                crashed[writer] && replay[key] < v)
                replay[key] = v;
        });
    }
    return replay;
}

void
Cluster::crashPartial(const std::vector<net::NodeId> &victims)
{
    if (trace)
        trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                       "partial_crash", eq.now(), "victims",
                       victims.size());
    std::vector<bool> crashed(nodes.size(), false);
    for (net::NodeId v : victims) {
        assert(v < nodes.size());
        crashed[v] = true;
    }
    if (sharded()) {
        std::vector<std::uint32_t> perTeam(numTeams(), 0);
        for (net::NodeId v : victims)
            ++perTeam[teamOf(v)];
        for (std::uint32_t t = 0; t < numTeams(); ++t)
            assert(perTeam[t] < teamSize_ &&
                   "each shard team needs a survivor");
    }

    std::uint64_t torn_before = ctr.get("torn_persists_detected");
    if (firstCrashAt == 0)
        firstCrashAt = eq.now();

    std::vector<net::Version> replay = pendingReplaySnapshot(crashed);

    // Victims lose volatile state; survivors abandon in-flight
    // exchanges (their rounds reference peers that just died).
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        if (crashed[n]) {
            noteAcquireCancelled(static_cast<net::NodeId>(n));
            nodes[n]->crashVolatile();
        } else {
            nodes[n]->abortInFlight();
        }
    }
    xactTable.clear();

    // Victims rebuild each key from the freshest surviving copy: a
    // surviving replica's volatile version, a write-replayed pending
    // invalidation from a dead coordinator, or failing those the best
    // NVM copy among all replicas.
    RecoveryStats rs;
    for (net::KeyId key = 0; key < cfg.keyCount; ++key) {
        net::Version best = replay[key];
        forEachReplica(key, [&](net::NodeId rep) {
            net::Version v = crashed[rep]
                                 ? nodes[rep]->persistedVersion(key)
                                 : nodes[rep]->visibleVersion(key);
            if (best < v)
                best = v;
        });
        if (best.number == 0)
            continue;
        ++rs.keysInstalled;
        // Recovery reconciles the whole replica set: victims rebuild
        // their state and survivors adopt versions whose VAL died with
        // the crash (anti-entropy), so all replicas agree afterwards.
        forEachReplica(key, [&](net::NodeId rep) {
            nodes[rep]->installRecovered(key, best);
        });
    }
    // State transfer: victims stream their share of keys from peers.
    rs.recoveryTime =
        cfg.network.roundTrip +
        (rs.keysInstalled / std::max<std::size_t>(1, nodes.size())) *
            cfg.network.serializationTicks(64);
    rs.tornDetected = ctr.get("torn_persists_detected") - torn_before;

    auditEpoch(rs, [this](net::KeyId key) {
        net::Version best{};
        forEachReplica(key, [&](net::NodeId rep) {
            net::Version v = nodes[rep]->visibleVersion(key);
            if (best < v)
                best = v;
        });
        return best;
    });

    recoveryLog.push_back(rs);
    sim::Tick resume = eq.now() + rs.recoveryTime;
    for (auto &c : clients)
        c->restartAt(resume);
}

void
Cluster::crashPartialStaged(const std::vector<net::NodeId> &victims,
                            sim::Tick restart_after)
{
    assert(cfg.clientRequestTimeout > 0 &&
           "staged partial crash needs client request timeouts: victims' "
           "clients would otherwise hang for the whole downtime");
    if (trace)
        trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                       "partial_crash", eq.now(), "victims",
                       victims.size());
    std::vector<bool> crashed(nodes.size(), false);
    for (net::NodeId v : victims) {
        assert(v < nodes.size());
        crashed[v] = true;
    }
    if (sharded()) {
        std::vector<std::uint32_t> perTeam(numTeams(), 0);
        for (net::NodeId v : victims)
            ++perTeam[teamOf(v)];
        for (std::uint32_t t = 0; t < numTeams(); ++t)
            assert(perTeam[t] < teamSize_ &&
                   "each shard team needs a survivor");
    }

    std::uint64_t torn_before = ctr.get("torn_persists_detected");
    if (firstCrashAt == 0)
        firstCrashAt = eq.now();

    std::vector<net::Version> replay = pendingReplaySnapshot(crashed);

    // Victims go dark: volatile state lost, NVM recovered in place
    // (torn persists rolled back), and every message to or from them
    // swallowed until restart. Survivors abandon in-flight exchanges
    // and stop waiting for the victims' acknowledgments, so the live
    // replica set keeps completing writes through the downtime.
    // Instant policy defers the NVM scan instead: the whole key space
    // goes cold and recovery happens per key on first touch after
    // re-join.
    bool instant = cfg.recovery == RecoveryPolicy::Instant;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        if (crashed[n]) {
            noteAcquireCancelled(static_cast<net::NodeId>(n));
            if (instant)
                nodes[n]->crashVolatileInstant();
            else
                nodes[n]->crashVolatile();
            nodes[n]->setDown(true);
        } else {
            nodes[n]->abortInFlight();
        }
    }
    for (net::NodeId v : victims)
        setPeerDownAll(v, true);
    xactTable.clear();

    // Survivor view reconciliation: the epoch bump abandoned in-flight
    // fire-and-forget VAL/UPD propagation between survivors — traffic
    // a real network still delivers when an unrelated node dies.
    // Align every survivor to the freshest surviving visible version
    // (volatile only, durability untouched), as a real view change
    // does; otherwise a survivor could serve a version older than an
    // acknowledged write for the rest of the run.
    for (net::KeyId key = 0; key < cfg.keyCount; ++key) {
        net::Version maxv = replay[key];
        forEachReplica(key, [&](net::NodeId rep) {
            if (crashed[rep])
                return;
            net::Version v = nodes[rep]->visibleVersion(key);
            if (maxv < v)
                maxv = v;
        });
        if (maxv.number == 0)
            continue;
        forEachReplica(key, [&](net::NodeId rep) {
            if (!crashed[rep])
                nodes[rep]->adoptVisible(key, maxv);
        });
    }

    // Audit the crash epoch. An acked write survives if a surviving
    // replica still serves it or a victim holds it durably — the
    // victim's NVM comes back at restart, so durable-but-dark copies
    // are unavailable, not lost.
    RecoveryStats rs;
    rs.tornDetected = ctr.get("torn_persists_detected") - torn_before;
    auditEpoch(rs, [this, &crashed](net::KeyId key) {
        net::Version best{};
        forEachReplica(key, [&](net::NodeId rep) {
            net::Version v = crashed[rep]
                                 ? nodes[rep]->persistedVersion(key)
                                 : nodes[rep]->visibleVersion(key);
            if (best < v)
                best = v;
        });
        return best;
    });
    recoveryLog.push_back(rs);

    // Clients are deliberately NOT restarted: survivors' clients keep
    // running, and the victims' clients detect the dead coordinator by
    // request timeout and fail over on their own.
    //
    // Downtime model: a staged node must finish its bulk state
    // transfer before re-joining, so restart fires after an a-priori
    // transfer estimate on top of the outage. Instant recovery only
    // builds a cheap index over the persist image before re-joining;
    // its extra downtime is that scan alone. The gap between the two
    // is exactly what the downtime-vs-instant benchmark measures.
    if (instant) {
        eq.schedule(eq.now() + restart_after + instantScanTicks(),
                    [this, victims] { restartVictimsInstant(victims); });
    } else {
        std::uint32_t survivors =
            static_cast<std::uint32_t>(nodes.size()) -
            static_cast<std::uint32_t>(victims.size());
        sim::Tick transfer =
            cfg.network.roundTrip +
            (cfg.keyCount / std::max(1u, survivors)) *
                cfg.network.serializationTicks(
                    64 * std::max(1u, cfg.node.valueLines));
        eq.schedule(eq.now() + restart_after + transfer,
                    [this, victims] { restartVictims(victims); });
    }
}

void
Cluster::restartVictims(const std::vector<net::NodeId> &victims)
{
    if (trace)
        trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                       "restart", eq.now(), "victims", victims.size());
    std::vector<bool> returning(nodes.size(), false);
    for (net::NodeId v : victims)
        returning[v] = true;

    for (net::NodeId v : victims)
        nodes[v]->setDown(false);
    for (net::NodeId v : victims)
        setPeerDownAll(v, false);

    // State transfer: each returning node pulls the freshest copy of
    // every key it replicates — a survivor's visible version or its
    // own recovered NVM — and installs it. Survivors are untouched:
    // re-join must not make anything durable that was not already.
    RecoveryStats rs;
    rs.restart = true;
    std::uint64_t diverged = 0;
    for (net::KeyId key = 0; key < cfg.keyCount; ++key) {
        net::Version best{};
        bool victim_replica = false;
        forEachReplica(key, [&](net::NodeId rep) {
            if (returning[rep])
                victim_replica = true;
            net::Version v = returning[rep]
                                 ? nodes[rep]->persistedVersion(key)
                                 : nodes[rep]->visibleVersion(key);
            if (best < v)
                best = v;
        });
        if (!victim_replica || best.number == 0)
            continue;
        ++rs.keysInstalled;
        forEachReplica(key, [&](net::NodeId rep) {
            if (returning[rep])
                nodes[rep]->installRecovered(key, best);
        });
        // Convergence audit: after the transfer a returning replica
        // must serve at least what the survivors serve.
        forEachReplica(key, [&](net::NodeId rep) {
            if (returning[rep] && nodes[rep]->visibleVersion(key) < best)
                ++diverged;
        });
    }
    rs.convergenceFailures = diverged;
    convergenceFailTotal += diverged;

    // Causal progress transfers with the data: without it, UPDs that
    // depend on writes from the downtime window would buffer forever
    // at the returning node.
    transferCausalProgress(victims);

    std::uint32_t survivors = static_cast<std::uint32_t>(nodes.size()) -
                              static_cast<std::uint32_t>(victims.size());
    rs.recoveryTime =
        cfg.network.roundTrip +
        (rs.keysInstalled / std::max(1u, survivors)) *
            cfg.network.serializationTicks(
                64 * std::max(1u, cfg.node.valueLines));
    recoveryLog.push_back(rs);
    nodeRestartCount += victims.size();
    if (serviceResumeAt == 0)
        serviceResumeAt = eq.now();

    // Clients route back to their home coordinators.
    for (auto &c : clients)
        c->failback();
}

sim::Tick
Cluster::instantScanTicks() const
{
    // Building the recovery index is a sequential sweep over per-key
    // commit records (one cache line each), not a value replay —
    // modeled at 4 keys per nanosecond of NVM metadata bandwidth.
    return cfg.keyCount * sim::kNanosecond / 4;
}

void
Cluster::restartVictimsInstant(const std::vector<net::NodeId> &victims)
{
    if (trace)
        trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                       "restart_instant", eq.now(), "victims",
                       victims.size());
    for (net::NodeId v : victims)
        nodes[v]->setDown(false);
    for (net::NodeId v : victims)
        setPeerDownAll(v, false);

    // Causal progress transfers at re-join (clock metadata only — a
    // few words per node, not key data): without it, UPDs depending on
    // downtime-window writes would buffer forever at the victim.
    transferCausalProgress(victims);

    RecoveryStats rs;
    rs.restart = true;
    rs.recoveryTime = instantScanTicks();
    recoveryLog.push_back(rs);
    nodeRestartCount += victims.size();
    recoveringCount += static_cast<std::uint32_t>(victims.size());
    if (serviceResumeAt == 0)
        serviceResumeAt = eq.now();

    // Each victim admits requests immediately; cold keys are faulted
    // in on demand against the freshest live copy, and the background
    // backfill drains the rest. No convergence audit is needed here:
    // fault-in max-merges the survivor version with the victim's own
    // recovered NVM copy, so a faulted key converges by construction.
    for (net::NodeId v : victims) {
        nodes[v]->beginInstantRecovery(
            [this, v](net::KeyId key) {
                net::Version best{};
                forEachReplica(key, [&](net::NodeId rep) {
                    if (rep == v)
                        return;
                    net::Version vv = nodes[rep]->visibleVersion(key);
                    if (best < vv)
                        best = vv;
                });
                return best;
            },
            [this] {
                if (recoveringCount > 0)
                    --recoveringCount;
            });
    }

    // Clients route back to their home coordinators.
    for (auto &c : clients)
        c->failback();
}

void
Cluster::crashNow()
{
    if (trace)
        trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                       "crash", eq.now());
    if (firstCrashAt == 0)
        firstCrashAt = eq.now();
    if (cfg.recovery == RecoveryPolicy::SimulatedVoting) {
        // Lose volatile state everywhere, then run the voting recovery
        // as a real message protocol; clients resume when it reports.
        for (auto &n : nodes)
            n->crashVolatile();
        xactTable.clear();
        nodes[0]->recoveryAgent().startCoordinator(
            cfg.keyCount, cfg.recoveryBatch,
            [this](const core::RecoveryReport &report) {
                RecoveryStats rs;
                rs.keysInstalled = report.keysInstalled;
                rs.divergentKeys = report.divergentKeys;
                rs.recoveryTime = report.duration();
                rs.timeouts = report.timeouts;
                rs.retries = report.retries;
                rs.quorumBatches = report.quorumBatches;
                rs.quorumFailures = report.quorumFailures;
                rs.unreachable = report.unreachable;
                auditEpoch(rs, [this](net::KeyId key) {
                    return nodes[rmap.home(key)]->visibleVersion(key);
                });
                recoveryLog.push_back(rs);
                for (auto &c : clients)
                    c->restartAt(eq.now());
            });
        return;
    }

    if (cfg.recovery == RecoveryPolicy::Instant) {
        // Whole cluster down: every node defers its NVM replay, marks
        // the key space cold, and re-admits after only the index scan.
        for (std::size_t n = 0; n < nodes.size(); ++n)
            noteAcquireCancelled(static_cast<net::NodeId>(n));
        for (auto &n : nodes)
            n->crashVolatileInstant();
        xactTable.clear();

        RecoveryStats rs;
        rs.recoveryTime = instantScanTicks();
        // Audit against what recovery *will* serve: the freshest
        // intact NVM copy across the replica set (the cold-aware
        // persistedVersion), since fault-in max-merges exactly that.
        auditEpoch(rs, [this](net::KeyId key) {
            net::Version best{};
            forEachReplica(key, [&](net::NodeId rep) {
                net::Version v = nodes[rep]->persistedVersion(key);
                if (best < v)
                    best = v;
            });
            return best;
        });
        recoveryLog.push_back(rs);

        recoveringCount += static_cast<std::uint32_t>(nodes.size());
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            net::NodeId self = static_cast<net::NodeId>(n);
            nodes[n]->beginInstantRecovery(
                [this, self](net::KeyId key) {
                    net::Version best{};
                    forEachReplica(key, [&](net::NodeId rep) {
                        if (rep == self)
                            return;
                        net::Version v =
                            nodes[rep]->persistedVersion(key);
                        if (best < v)
                            best = v;
                    });
                    return best;
                },
                [this] {
                    if (recoveringCount > 0)
                        --recoveringCount;
                });
        }

        sim::Tick resume = eq.now() + rs.recoveryTime;
        if (serviceResumeAt == 0)
            serviceResumeAt = resume;
        for (auto &c : clients)
            c->restartAt(resume);
        return;
    }

    RecoveryStats rs = recoverAll();
    recoveryLog.push_back(rs);
    xactTable.clear();
    sim::Tick resume = eq.now() + rs.recoveryTime;
    for (auto &c : clients)
        c->restartAt(resume);
}

RecoveryStats
Cluster::recoverAll()
{
    RecoveryStats rs;
    std::uint64_t torn_before = ctr.get("torn_persists_detected");
    for (std::size_t n = 0; n < nodes.size(); ++n)
        noteAcquireCancelled(static_cast<net::NodeId>(n));
    for (auto &n : nodes)
        n->crashVolatile();
    rs.tornDetected = ctr.get("torn_persists_detected") - torn_before;

    if (cfg.recovery == RecoveryPolicy::Voting) {
        std::uint64_t divergent = 0;
        std::uint64_t installed = 0;
        for (net::KeyId key = 0; key < cfg.keyCount; ++key) {
            // Only the key's replicas vote and receive the winner.
            net::Version best{};
            bool differ = false;
            bool first = true;
            net::Version first_seen{};
            forEachReplica(key, [&](net::NodeId rep) {
                net::Version v = nodes[rep]->persistedVersion(key);
                if (first) {
                    first_seen = v;
                    first = false;
                } else if (v != first_seen) {
                    differ = true;
                }
                if (best < v)
                    best = v;
            });
            if (differ)
                ++divergent;
            if (best.number > 0) {
                ++installed;
                forEachReplica(key, [&](net::NodeId rep) {
                    nodes[rep]->installRecovered(key, best);
                });
            }
        }
        rs.divergentKeys = divergent;
        rs.keysInstalled = installed;
        // The vote exchanges per-key version summaries in batches of
        // 4096 per round trip, then ships divergent lines.
        std::uint64_t rounds = cfg.keyCount / 4096 + 1;
        rs.recoveryTime =
            rounds * cfg.network.roundTrip +
            divergent * cfg.network.serializationTicks(64);
    } else {
        // Local-only: every node replays its own NVM; cost is a scan.
        for (net::KeyId key = 0; key < cfg.keyCount; ++key) {
            net::Version best{};
            if (sharded()) {
                forEachReplica(key, [&](net::NodeId rep) {
                    net::Version v = nodes[rep]->persistedVersion(key);
                    if (best < v)
                        best = v;
                });
            } else {
                best = nodes[rmap.home(key)]->persistedVersion(key);
            }
            if (best.number > 0)
                ++rs.keysInstalled;
        }
        rs.recoveryTime =
            cfg.keyCount * cfg.node.nvmParams.readLatency /
            (cfg.node.nvmParams.channels *
             cfg.node.nvmParams.banksPerChannel);
    }

    // The key's home replica holds the recovered version (legacy);
    // sharded audits take the freshest copy across the key's teams.
    auditEpoch(rs, [this](net::KeyId key) {
        if (!sharded())
            return nodes[rmap.home(key)]->visibleVersion(key);
        net::Version best{};
        forEachReplica(key, [&](net::NodeId rep) {
            net::Version v = nodes[rep]->visibleVersion(key);
            if (best < v)
                best = v;
        });
        return best;
    });
    return rs;
}

void
Cluster::setPeerDownAll(net::NodeId victim, bool down)
{
    if (!sharded()) {
        for (auto &node : nodes)
            node->setPeerDown(victim, down);
        return;
    }
    // Peer tables are team-local: only the victim's teammates can see
    // (or miss) it.
    shard::TeamId t = teamOf(victim);
    net::NodeId local = victim % teamSize_;
    for (std::uint32_t r = 0; r < teamSize_; ++r)
        nodes[t * teamSize_ + r]->setPeerDown(local, down);
}

void
Cluster::transferCausalProgress(const std::vector<net::NodeId> &victims)
{
    if (cfg.model.consistency != core::Consistency::Causal)
        return;
    std::vector<bool> returning(nodes.size(), false);
    for (net::NodeId v : victims)
        returning[v] = true;
    if (!sharded()) {
        core::VectorClock merged(nodes.size());
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            if (!returning[n])
                merged.mergeFrom(nodes[n]->appliedClock());
        }
        for (net::NodeId v : victims)
            nodes[v]->adoptCausalProgress(merged);
        return;
    }
    // Causal clocks are team-local (one slot per teammate): merge each
    // returning victim's surviving teammates only.
    for (std::uint32_t t = 0; t < numTeams(); ++t) {
        core::VectorClock merged(teamSize_);
        bool any = false;
        for (std::uint32_t r = 0; r < teamSize_; ++r) {
            net::NodeId n = t * teamSize_ + r;
            if (returning[n])
                any = true;
            else
                merged.mergeFrom(nodes[n]->appliedClock());
        }
        if (!any)
            continue;
        for (std::uint32_t r = 0; r < teamSize_; ++r) {
            net::NodeId n = t * teamSize_ + r;
            if (returning[n])
                nodes[n]->adoptCausalProgress(merged);
        }
    }
}

bool
Cluster::teamHealthy(shard::TeamId t) const
{
    for (std::uint32_t r = 0; r < teamSize_; ++r) {
        const core::ProtocolNode &n = *nodes[t * teamSize_ + r];
        if (n.isDown() || n.instantRecovering() || n.shedding())
            return false;
    }
    return true;
}

std::vector<shard::RangeSlice>
Cluster::scanSlices(net::KeyId key, std::uint32_t len) const
{
    // Clamp exactly the way a node-side scan clamps its window, so the
    // fan-out covers precisely the keys one node would have walked.
    net::KeyId lo = key < cfg.keyCount ? key : cfg.keyCount - 1;
    std::uint64_t span = len ? len : 1;
    net::KeyId hi = lo + span > cfg.keyCount ? cfg.keyCount : lo + span;
    return layout.overlapping(lo, hi);
}

void
Cluster::noteShardWrite(net::KeyId key, shard::TeamId served_by,
                        net::Version v)
{
    if (!sharded() || v.number == 0)
        return;
    shard::TeamId owner = layout.teamFor(key);
    if (owner == served_by)
        return;
    // The write raced a migration flip: it completed (and was acked)
    // at the previous owner. Forward the version to the new owner's
    // live members (monotone adopt — a still-cold key re-merges it at
    // fault-in) and remember the serving team so durability audits
    // keep consulting the one place the version is durable.
    ++shardStrayWriteCount;
    ctr.add("shard_stray_writes");
    for (std::uint32_t r = 0; r < teamSize_; ++r) {
        net::NodeId n = owner * teamSize_ + r;
        if (!nodes[n]->isDown())
            nodes[n]->adoptVisible(key, v);
    }
    straySource[key] = served_by;
}

void
Cluster::executeSplit(std::size_t range_idx, net::KeyId mid)
{
    layout.split(range_idx, mid);
    if (trace)
        trace->instant(static_cast<std::uint32_t>(nodes.size()), 0,
                       "shard_split", eq.now(), "mid", mid);
}

void
Cluster::executeMigration(std::size_t range_idx, shard::TeamId dst)
{
    assert(sharded() && !migration.active);
    const shard::Range r = layout.range(range_idx);
    if (r.team == dst)
        return;
    // Metadata-first flip (DESIGN.md decision 17): new traffic routes
    // to the destination immediately; the data follows as a flow-
    // controlled background range acquire through the instant-recovery
    // fault-in path, and keys touched before the backfill reaches them
    // are faulted in on demand against the freshest live source copy.
    migration.active = true;
    migration.lo = r.lo;
    migration.hi = r.hi;
    migration.srcTeam = r.team;
    migration.dstTeam = dst;
    migration.pending = 0;
    migration.crashedOut = false;
    migration.startedAt = eq.now();
    migration.spanId = ++migrationSpanSeq;
    layout.moveRange(range_idx, dst);

    auto freshest = [this](net::KeyId key) {
        return migrationFreshest(key);
    };
    for (std::uint32_t i = 0; i < teamSize_; ++i) {
        net::NodeId n = dst * teamSize_ + i;
        if (nodes[n]->isDown())
            continue;
        ++migration.pending;
        nodes[n]->beginRangeAcquire(r.lo, r.hi, freshest,
                                    [this] { onAcquireDone(); });
    }
    if (migration.pending == 0) {
        // No live acquirer (the health hook should prevent this):
        // nothing moved, so the source stays authoritative.
        migration.crashedOut = true;
        finishMigration();
    }
}

net::Version
Cluster::migrationFreshest(net::KeyId key) const
{
    net::Version best{};
    if (!migration.active)
        return best;
    for (std::uint32_t i = 0; i < teamSize_; ++i) {
        net::NodeId n = migration.srcTeam * teamSize_ + i;
        if (nodes[n]->isDown())
            continue;
        net::Version v = nodes[n]->visibleVersion(key);
        if (best < v)
            best = v;
    }
    return best;
}

void
Cluster::onAcquireDone()
{
    assert(migration.active && migration.pending > 0);
    if (--migration.pending == 0)
        finishMigration();
}

void
Cluster::finishMigration()
{
    assert(migration.active);
    shardKeysMigratedCount += migration.hi - migration.lo;
    if (migration.crashedOut) {
        // A destination replica died mid-acquire, so its copy of the
        // range is incomplete and the source team's NVM may hold the
        // only durable copy of some keys. Keep the source in the
        // range's replica set for the rest of the run.
        residualSources.push_back(
            {migration.lo, migration.hi, migration.srcTeam});
    }
    if (trace)
        trace->async(static_cast<std::uint32_t>(nodes.size()),
                     "shard_migrate", migration.spanId,
                     migration.startedAt, eq.now());
    migration.active = false;
}

void
Cluster::noteAcquireCancelled(net::NodeId victim)
{
    if (!sharded() || !migration.active)
        return;
    if (teamOf(victim) != migration.dstTeam ||
        !nodes[victim]->rangeAcquiring())
        return;
    // The crash is about to wipe this node's acquire state; account
    // for it here so the migration still completes (falling back to a
    // residual source if no acquirer remains).
    migration.crashedOut = true;
    assert(migration.pending > 0);
    if (--migration.pending == 0)
        finishMigration();
}

RunResult
Cluster::run()
{
    assert(!ran && "a Cluster can only run once");
    ran = true;
    auto wall_start = std::chrono::steady_clock::now();

    for (auto &c : clients) {
        Client *cp = c.get();
        eq.schedule(0, [cp] { cp->start(); });
    }

    eq.runUntil(cfg.warmup);

    auto ctr_snap = ctr.snapshot();
    auto sumFabrics = [this](auto fn) {
        std::uint64_t s = 0;
        for (const auto &f : fabrics)
            s += fn(*f);
        return s;
    };
    std::uint64_t msg_snap =
        sumFabrics([](const net::Fabric &f) { return f.totalMessages(); });
    std::uint64_t bytes_snap =
        sumFabrics([](const net::Fabric &f) { return f.totalBytes(); });
    readLat.clear();
    writeLat.clear();
    allLat.clear();
    for (auto &h : phaseLat)
        h.clear();
    recording = true;

    eq.runUntil(cfg.warmup + cfg.measure);
    recording = false;

    RunResult res;
    res.reads = readLat.count();
    res.writes = writeLat.count();
    res.throughput =
        cfg.measure == 0
            ? 0.0
            : static_cast<double>(res.reads + res.writes) /
                  sim::ticksToSeconds(cfg.measure);
    res.meanReadNs = readLat.mean() / sim::kNanosecond;
    res.meanWriteNs = writeLat.mean() / sim::kNanosecond;
    res.meanNs = allLat.mean() / sim::kNanosecond;
    res.p50ReadNs =
        static_cast<double>(readLat.p50()) / sim::kNanosecond;
    res.p95ReadNs =
        static_cast<double>(readLat.p95()) / sim::kNanosecond;
    res.p99ReadNs =
        static_cast<double>(readLat.p99()) / sim::kNanosecond;
    res.p50WriteNs =
        static_cast<double>(writeLat.p50()) / sim::kNanosecond;
    res.p95WriteNs =
        static_cast<double>(writeLat.p95()) / sim::kNanosecond;
    res.p99WriteNs =
        static_cast<double>(writeLat.p99()) / sim::kNanosecond;
    for (std::size_t p = 0; p < sim::kPhaseCount; ++p) {
        res.phaseBreakdown[p].meanNs =
            phaseLat[p].mean() / sim::kNanosecond;
        res.phaseBreakdown[p].p95Ns =
            static_cast<double>(phaseLat[p].p95()) / sim::kNanosecond;
    }
    res.eventsExecuted = eq.executedEvents();
    res.queueImpl = sim::queueImplName(eq.impl());
    res.doorbellDrains = sumFabrics(
        [](const net::Fabric &f) { return f.doorbellDrains(); });
    res.drainedMessages = sumFabrics(
        [](const net::Fabric &f) { return f.drainedMessages(); });
    res.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    res.counters = ctr.diff(ctr_snap);
    res.messages =
        sumFabrics([](const net::Fabric &f) { return f.totalMessages(); }) -
        msg_snap;
    res.networkBytes =
        sumFabrics([](const net::Fabric &f) { return f.totalBytes(); }) -
        bytes_snap;
    res.persistsIssued = res.counters["persists_issued"];
    res.readsStalledVisibility =
        res.counters["reads_stalled_visibility"];
    res.readsStalledPersist = res.counters["reads_stalled_persist"];
    res.xactStarted = res.counters["xact_started"];
    res.xactCommitted = res.counters["xact_committed"];
    res.xactAborted = res.counters["xact_aborted"];
    res.xactConflicts = res.counters["xact_conflicts"];
    res.scans = res.counters["scans_completed"];
    res.scanKeysVisited = res.counters["scan_keys_visited"];

    // Per-tenant open-loop accounting (whole-run: every offered
    // arrival lands in exactly one of served/shed/timedOut only over
    // the entire run, so these are not measurement-window diffs).
    res.openLoop = cfg.openLoop;
    if (cfg.openLoop) {
        double rate = 0.0;
        for (const TenantSpec &t : tenantTable)
            rate += t.arrival.ratePerSec;
        res.offeredLoadOpsPerSec = rate;
        sim::Tick end = cfg.warmup + cfg.measure;
        for (std::size_t t = 0; t < tenantTable.size(); ++t) {
            TenantAccum &ta = tenantStats[t];
            RunResult::TenantResult tr;
            tr.name = tenantTable[t].name;
            tr.arrival =
                workload::arrivalKindName(tenantTable[t].arrival.kind);
            tr.offered = ta.offered;
            tr.issued = ta.offered;
            tr.served = ta.served;
            tr.shed = ta.shed;
            tr.timedOut = ta.offered >= ta.served + ta.shed
                              ? ta.offered - ta.served - ta.shed
                              : 0;
            tr.p50Ns =
                static_cast<double>(ta.lat.p50()) / sim::kNanosecond;
            tr.p99Ns =
                static_cast<double>(ta.lat.p99()) / sim::kNanosecond;
            if (tenantTable[t].sloLatency > 0) {
                tr.sloTargetUs =
                    static_cast<double>(tenantTable[t].sloLatency) /
                    static_cast<double>(sim::kMicrosecond);
                tr.sloAttainment =
                    ta.served == 0
                        ? 0.0
                        : static_cast<double>(ta.sloMet) /
                              static_cast<double>(ta.served);
            }
            ta.offeredSeries.extendTo(end - 1);
            ta.offeredSeries.closeAt(end);
            ta.servedSeries.extendTo(end - 1);
            ta.servedSeries.closeAt(end);
            tr.offeredRate.reserve(ta.offeredSeries.buckets());
            for (std::size_t i = 0; i < ta.offeredSeries.buckets(); ++i)
                tr.offeredRate.push_back(ta.offeredSeries.rateAt(i));
            tr.servedRate.reserve(ta.servedSeries.buckets());
            for (std::size_t i = 0; i < ta.servedSeries.buckets(); ++i)
                tr.servedRate.push_back(ta.servedSeries.rateAt(i));
            res.tenants.push_back(std::move(tr));
        }
    }

    for (auto &n : nodes) {
        if (n->causalBufferPeak() > res.causalBufferPeak)
            res.causalBufferPeak = n->causalBufferPeak();
    }

    // Fault / reliability accounting. Whole-run totals, not
    // measurement-window diffs: a chaos report wants every injected
    // fault, including warmup ones.
    res.netDropped = sumFabrics(
        [](const net::Fabric &f) { return f.droppedMessages(); });
    res.netRetransmits =
        sumFabrics([](const net::Fabric &f) { return f.retransmits(); });
    res.netRtoTimeouts =
        sumFabrics([](const net::Fabric &f) { return f.rtoTimeouts(); });
    res.netGiveUps = sumFabrics(
        [](const net::Fabric &f) { return f.retransmitGiveUps(); });
    res.netAcks =
        sumFabrics([](const net::Fabric &f) { return f.netAcksSent(); });
    res.netDuplicateArrivals = sumFabrics(
        [](const net::Fabric &f) { return f.duplicateArrivals(); });
    res.netOutOfOrderArrivals = sumFabrics(
        [](const net::Fabric &f) { return f.outOfOrderArrivals(); });
    if (faultPlan) {
        res.netDuplicated = faultPlan->duplicatesInjected();
        res.netDelayed = faultPlan->delaysInjected();
        res.netReordered = faultPlan->reordersInjected();
        res.netPartitionDrops = faultPlan->partitionDrops();
    }
    if (tracerPtr)
        res.tracerDropped = tracerPtr->droppedEntries();
    res.counters["net_dropped"] = res.netDropped;
    res.counters["net_retransmits"] = res.netRetransmits;
    res.counters["net_rto_timeouts"] = res.netRtoTimeouts;
    res.counters["net_give_ups"] = res.netGiveUps;

    // Torn-persist / restart / failover accounting. Whole-run totals
    // for the same reason as the fault accounting above.
    res.tornPersistsDetected = ctr.get("torn_persists_detected");
    res.tornValuesInstalled = ctr.get("torn_values_installed");
    res.clientRetransmitsDeduped = ctr.get("client_retransmits_deduped");
    res.clientFailovers = clientFailoverCount;
    res.clientRetransmits = clientRetransmitCount;
    res.xactAbandoned = xactAbandonedCount;

    // Gray-failure mitigation accounting (whole-run totals).
    res.shedRequests = ctr.get("shed_requests");
    res.hedgesSent = hedgesSentCount;
    res.hedgesWon = hedgesWonCount;
    res.hedgesCancelled = hedgesCancelledCount;
    res.counters["shed_requests"] = res.shedRequests;
    res.counters["hedges_sent"] = res.hedgesSent;
    res.counters["hedges_won"] = res.hedgesWon;
    res.counters["hedges_cancelled"] = res.hedgesCancelled;
    res.nodeRestarts = nodeRestartCount;
    res.convergenceFailures = convergenceFailTotal;

    for (const RecoveryStats &rs : recoveryLog) {
        res.recoveryTimeouts += rs.timeouts;
        res.recoveryRetries += rs.retries;
        res.recoveryQuorumBatches += rs.quorumBatches;
        res.recoveryQuorumFailures += rs.quorumFailures;
        for (net::NodeId n : rs.unreachable) {
            auto &u = res.unreachableNodes;
            if (std::find(u.begin(), u.end(), n) == u.end())
                u.push_back(n);
        }
    }
    std::sort(res.unreachableNodes.begin(), res.unreachableNodes.end());

    // Throughput-over-time series + recovery SLO (cluster-owned
    // timeline only; an externally attached series stays external).
    if (ownTimeline) {
        // Materialize every bucket of the run, so crash downtime and a
        // quiet tail appear as explicit zero samples; close the series
        // at the run end so a trailing partial bucket is normalized by
        // the span it covers (a full-width divisor would understate
        // tail throughput and skew the SLO crossing below).
        ownTimeline->extendTo(cfg.warmup + cfg.measure - 1);
        ownTimeline->closeAt(cfg.warmup + cfg.measure);
        res.timelineBucket = cfg.timelineBucket;
        res.timelineRate.reserve(ownTimeline->buckets());
        for (std::size_t i = 0; i < ownTimeline->buckets(); ++i)
            res.timelineRate.push_back(ownTimeline->rateAt(i));
        if (firstCrashAt > 0) {
            // Pre-crash baseline: mean rate over buckets fully inside
            // [warmup, firstCrashAt) — warmup ramp and the crash
            // bucket itself are both excluded.
            double sum = 0.0;
            std::size_t n = 0;
            for (std::size_t i = 0; i < ownTimeline->buckets(); ++i) {
                if (ownTimeline->bucketStart(i) < cfg.warmup)
                    continue;
                if (ownTimeline->bucketStart(i) + cfg.timelineBucket >
                    firstCrashAt)
                    break;
                sum += ownTimeline->rateAt(i);
                ++n;
            }
            if (n > 0) {
                double slo =
                    cfg.recoverySloFrac * (sum / static_cast<double>(n));
                for (std::size_t i = 0; i < ownTimeline->buckets();
                     ++i) {
                    if (ownTimeline->bucketStart(i) <= firstCrashAt)
                        continue;
                    if (ownTimeline->rateAt(i) >= slo) {
                        res.recoveryTimeToSloUs =
                            static_cast<double>(
                                ownTimeline->bucketStart(i) -
                                firstCrashAt) /
                            static_cast<double>(sim::kMicrosecond);
                        break;
                    }
                }
            }
        }
    }
    res.servedDuringRecovery = servedDuringRecoveryCount;
    res.recoveryFaultIns = ctr.get("recovery_fault_ins");
    res.counters["recovery_fault_ins"] = res.recoveryFaultIns;

    if (sharded()) {
        res.sharded = true;
        res.shardTeams = cfg.numShards;
        res.shardRangesFinal =
            static_cast<std::uint32_t>(layout.numRanges());
        res.shardSplits = distributor->splits();
        res.shardMigrations = distributor->migrations();
        res.shardKeysMigrated = shardKeysMigratedCount;
        res.shardStrayWrites = shardStrayWriteCount;
        res.shardAcquireFaultIns = ctr.get("shard_acquire_fault_ins");
        res.shardTeamServed = teamServed;
        for (std::uint64_t v : teamServed)
            res.shardServedOps += v;
        // Whole-run totals (the window diff above would drop warmup
        // splits/migrations, breaking the ranges invariant).
        res.counters["shard_splits"] = res.shardSplits;
        res.counters["shard_migrations"] = res.shardMigrations;
        res.counters["shard_stray_writes"] = res.shardStrayWrites;
        res.counters["shard_acquire_fault_ins"] =
            res.shardAcquireFaultIns;
        res.counters["shard_keys_migrated"] = res.shardKeysMigrated;
    }

    if (checker) {
        res.monotonicViolations = checker->monotonicViolations();
        res.staleReads = checker->staleReads();
        res.lostAckedWriteKeys = lostKeysTotal;
        res.lostAckedWrites = lostWritesTotal;
        res.crashEpochs = checker->crashEpochs();
        res.tornReadsServed = checker->tornServed();
    }
    return res;
}

} // namespace ddp::cluster

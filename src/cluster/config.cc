#include "cluster/config.hh"

#include <string>
#include <vector>

#include "kv/store.hh"

namespace ddp::cluster {

namespace {

using std::to_string;

std::string
nodeOutOfRange(const char *what, net::NodeId node, std::uint32_t servers)
{
    return std::string(what) + " node " + to_string(node) +
           " out of range (servers: " + to_string(servers) + ")";
}

} // namespace

std::string
ClusterConfig::validate() const
{
    if (numServers < 2)
        return "a cluster needs at least 2 servers (a coordinator and a "
               "follower), got " + to_string(numServers);
    if (replicationFactor > numServers)
        return "replication factor " + to_string(replicationFactor) +
               " exceeds the " + to_string(numServers) +
               " servers (use 0 for full replication)";

    if (numShards > 0) {
        if (numServers % numShards != 0 || numServers / numShards < 2)
            return to_string(numShards) + " shards must divide the " +
                   to_string(numServers) +
                   " servers into teams of at least 2 nodes";
        if (keyCount < numShards)
            return to_string(numShards) + " shards need at least that "
                   "many keys (" + to_string(keyCount) + " given): "
                   "every shard owns a non-empty key range";
        if (replicationFactor != 0)
            return "sharding and partial replication are exclusive: "
                   "each shard team replicates fully within the team";
        if (recovery == RecoveryPolicy::SimulatedVoting)
            return "simulated-voting recovery is not available with "
                   "sharding (the voting message protocol is "
                   "team-local); use voting, local or instant";
        if (faults.any())
            return "fault injection is not available with sharding: "
                   "fault plans address the single-fabric topology, "
                   "shard teams run one isolated fabric each";
        if (faults.anySlow())
            return "fail-slow injection is not available with "
                   "sharding: slow plans address the single-fabric "
                   "topology";
        if (hedgedReads)
            return "hedged reads are not available with sharding: the "
                   "hedge estimator's per-server state is ambiguous "
                   "across teams";
    }

    if (replicationFactor != 0 && replicationFactor < numServers &&
        (model.consistency == core::Consistency::Causal ||
         model.consistency == core::Consistency::Transactional))
        return std::string("partial replication requires "
                           "Linearizable, Read-Enforced, or Eventual "
                           "consistency, not ") +
               core::consistencyName(model.consistency);

    for (const net::NodeOutage &o : faults.outages)
        if (o.node >= numServers)
            return nodeOutOfRange("fault plan isolates", o.node,
                                  numServers);
    for (const net::PartitionWindow &p : faults.partitions)
        for (net::NodeId n : p.groupA)
            if (n >= numServers)
                return nodeOutOfRange("fault plan partitions", n,
                                      numServers);
    for (const net::SlowWindow &w : faults.slow)
        if (w.node >= numServers)
            return nodeOutOfRange("slow plan degrades", w.node,
                                  numServers);

    // Tenant rules; with no table, one implicit tenant runs `workload`.
    std::uint64_t assigned = 0, flexible = 0;
    bool scans = tenants.empty() && workload.scanFraction > 0.0;
    for (const TenantSpec &t : tenants) {
        if (t.model != model)
            return "tenant '" + t.name + "' binds " +
                   core::modelName(t.model) + " but the run's model is " +
                   core::modelName(model) +
                   ": one cluster executes one protocol";
        if (t.clients > 0)
            assigned += t.clients;
        else
            ++flexible;
        scans = scans || t.workload.scanFraction > 0.0;
    }
    std::uint64_t pool = totalClients();
    if (assigned + flexible > pool)
        return "tenant client counts need " + to_string(assigned) +
               " clients plus " + to_string(flexible) +
               " for the unset tenants, but the pool has " +
               to_string(pool) + " (servers x clients per server); "
               "shrink the counts or grow the pool";
    if (scans && !kv::storeKindOrdered(node.storeKind))
        return std::string("the workload issues range scans, which "
                           "need an ordered store (SkipList or "
                           "BPlusTree), not ") +
               kv::storeKindName(node.storeKind);

    if (trace)
        for (const workload::Op &op : *trace)
            if (op.key >= keyCount)
                return "the trace touches key " + to_string(op.key) +
                       ", outside the " + to_string(keyCount) +
                       "-key space";

    if (recovery == RecoveryPolicy::Instant && !node.commitRecords)
        return "instant recovery requires commit records: on-demand "
               "fault-in must tell torn from committed values by "
               "checksum";
    return {};
}

std::string
ClusterConfig::validateCrashVictims(
    const std::vector<net::NodeId> &victims) const
{
    const std::uint32_t teams = numShards > 0 ? numShards : 1;
    const std::uint32_t team_size = numServers / teams;
    std::vector<bool> dead(numServers, false);
    std::vector<std::uint32_t> dead_in_team(teams, 0);
    for (net::NodeId v : victims) {
        if (v >= numServers)
            return nodeOutOfRange("crash victim", v, numServers);
        if (!dead[v]) {
            dead[v] = true;
            ++dead_in_team[v / team_size];
        }
    }
    for (std::uint32_t t = 0; t < teams; ++t) {
        if (dead_in_team[t] < team_size)
            continue;
        if (numShards == 0)
            return "a partial crash of all " + to_string(numServers) +
                   " servers leaves no survivor; crash fewer nodes or "
                   "crash the whole cluster";
        return "crash victims kill all " + to_string(team_size) +
               " nodes of shard team " + to_string(t) +
               "; each team needs a survivor";
    }
    return {};
}

std::string
ClusterConfig::validateStagedCrash() const
{
    if (clientRequestTimeout == 0)
        return "a staged partial crash needs a client request timeout: "
               "without failover the victims' clients hang for the "
               "whole downtime";
    return {};
}

} // namespace ddp::cluster

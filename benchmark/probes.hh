/**
 * @file
 * Layer probes: host cost of single public calls into each src/ module.
 *
 * Each probe drives one call (EventQueue::schedule+step, Fabric::broadcast,
 * MemoryDevice::write, PersistImage::recoverOnDemand, Store::get/put,
 * OpGenerator::next, ArrivalStream::next, ShardLayout::teamFor,
 * Histogram::record) with inputs generated from the workload's own
 * WorkloadSpec, ArrivalSpec and seed, after a warm-up pass, and reports
 * the median ns per call over five timed repetitions of at least 200 ms.
 */

#ifndef DDPBENCH_PROBES_HH
#define DDPBENCH_PROBES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kv/store.hh"
#include "shard/keymap.hh"
#include "workload/arrival.hh"
#include "workload/ycsb.hh"

namespace ddpbench {

/** What a workload feeds its probes. */
struct ProbeInputs
{
    ddp::workload::WorkloadSpec workload;
    ddp::workload::ArrivalSpec arrival;
    std::uint64_t seed = 42;
    ddp::kv::StoreKind store = ddp::kv::StoreKind::HashTable;
    /** Nodes on one fabric (the team size when sharded). */
    std::uint32_t fabricNodes = 5;
    std::uint32_t valueLines = 1;
    bool commitRecords = true;
    /** Mean pending events the workload's traced run sampled. */
    double pendingMean = 1.0;
    /** Final layout of a sharded run; nullptr when unsharded. */
    const ddp::shard::ShardLayout *layout = nullptr;
};

/** One probe result: ns per call, median of the timed repetitions. */
struct ProbeResult
{
    std::string metric;
    double nsPerOp = 0.0;
};

/** Runs @p body inside a host span named @p name. */
using SpanFn = std::function<void(const std::string &name,
                                  const std::function<void()> &body)>;

/**
 * Run every probe, each layer's probes inside span("probe.<layer>").
 * The shard probe reports 0 when @p in has no layout: unsharded
 * workloads never route through the keymap.
 */
std::vector<ProbeResult> runProbes(const ProbeInputs &in,
                                   const SpanFn &span);

} // namespace ddpbench

#endif // DDPBENCH_PROBES_HH

/**
 * @file
 * Allocation-count regression: the steady-state request path of a
 * cluster must not go back to heap-allocating per simulated event.
 *
 * This binary replaces the global operator new/delete with counting
 * versions, runs a cluster to steady state, and counts allocations
 * between the start and the end of the measurement window (two events
 * scheduled on the cluster's own queue). The bounds are twice the
 * per-request counts measured when the hot path was made slab-backed
 * (DESIGN.md decision 22), so a change that reintroduces one
 * allocation per request — a closure spilling out of its inline
 * buffer, a std::function, a shared_ptr context — fails here.
 *
 * Labeled `alloc`: sanitizer builds supply their own operator new, so
 * the sanitized CI lane excludes this label.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/cluster.hh"

namespace {

std::uint64_t gAllocations = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++gAllocations;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace ddp;

namespace {

// Per-request counts measured when the bounds were set: 0.292 and
// 0.0999 (the remainder is the fabric's delivery-ring deque blocks and
// first fills of sparse cache sets).
constexpr double kLinStrictMeasured = 0.30;
constexpr double kCausalSyncMeasured = 0.10;

/** Allocations per served request over the measurement window. */
double
allocationsPerRequest(core::DdpModel model)
{
    cluster::ClusterConfig cfg;
    cfg.model = model;
    cfg.numServers = 5;
    cfg.clientsPerServer = 4;
    cfg.keyCount = 2000;
    cfg.workload = workload::WorkloadSpec::ycsbA(cfg.keyCount);
    cfg.warmup = 200 * sim::kMicrosecond;
    cfg.measure = 1 * sim::kMillisecond;
    cfg.seed = 42;
    cluster::Cluster c(cfg);
    std::uint64_t at_start = 0;
    std::uint64_t at_end = 0;
    c.queue().schedule(cfg.warmup, [&] { at_start = gAllocations; });
    c.queue().schedule(cfg.warmup + cfg.measure,
                       [&] { at_end = gAllocations; });
    cluster::RunResult r = c.run();
    std::uint64_t served = r.reads + r.writes;
    EXPECT_GT(served, 1000u);
    return static_cast<double>(at_end - at_start) /
           static_cast<double>(served);
}

} // namespace

TEST(AllocationCount, LinearizableStrictSteadyState)
{
    double per_request = allocationsPerRequest(
        {core::Consistency::Linearizable, core::Persistency::Strict});
    EXPECT_LE(per_request, 2 * kLinStrictMeasured) << per_request;
}

TEST(AllocationCount, CausalSynchronousSteadyState)
{
    double per_request = allocationsPerRequest(
        {core::Consistency::Causal, core::Persistency::Synchronous});
    EXPECT_LE(per_request, 2 * kCausalSyncMeasured) << per_request;
}

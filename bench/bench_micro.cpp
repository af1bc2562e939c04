/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrates: the
 * event kernel, RNG/zipfian sampling, the store backends, the
 * channel/bank memory model, the cache hierarchy, and the fabric.
 * These bound the host-side cost of simulation and catch performance
 * regressions in the substrate code.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "kv/store.hh"
#include "mem/cache.hh"
#include "mem/memory_device.hh"
#include "net/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/ycsb.hh"

using namespace ddp;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<sim::Tick>(i * 7 % 911), [] {});
        eq.run();
        benchmark::DoNotOptimize(eq.executedEvents());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_EventQueueTimerChurn(benchmark::State &state)
{
    constexpr int kTimers = 4096;
    std::uint64_t sink = 0;
    std::vector<sim::TimerId> ids;
    ids.reserve(kTimers);
    for (auto _ : state) {
        sim::EventQueue eq;
        ids.clear();
        for (int i = 0; i < kTimers; ++i)
            ids.push_back(eq.scheduleTimer(
                static_cast<sim::Tick>(1000 + i * 13 % 977),
                [&sink] { ++sink; }));
        // Cancel every other timer — the retransmit-timer pattern: most
        // timers are cancelled by an ack before they fire.
        for (int i = 0; i < kTimers; i += 2)
            eq.cancelTimer(ids[static_cast<std::size_t>(i)]);
        eq.run();
        benchmark::DoNotOptimize(eq.executedEvents());
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kTimers);
}
BENCHMARK(BM_EventQueueTimerChurn);

static void
BM_Pcg32(benchmark::State &state)
{
    sim::Pcg32 rng(1, 1);
    std::uint64_t sum = 0;
    for (auto _ : state)
        sum += rng.nextU32();
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Pcg32);

static void
BM_Zipfian(benchmark::State &state)
{
    sim::Pcg32 rng(1, 1);
    sim::ZipfianGenerator zipf(100000, 0.99);
    std::uint64_t sum = 0;
    for (auto _ : state)
        sum += zipf.next(rng);
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Zipfian);

static void
BM_StorePut(benchmark::State &state)
{
    auto kind = static_cast<kv::StoreKind>(state.range(0));
    auto store = kv::makeStore(kind);
    sim::Pcg32 rng(1, 2);
    for (auto _ : state)
        store->put(rng.nextBounded(1 << 16), 1);
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(kv::storeKindName(kind));
}
BENCHMARK(BM_StorePut)->DenseRange(0, 4);

static void
BM_StoreGet(benchmark::State &state)
{
    auto kind = static_cast<kv::StoreKind>(state.range(0));
    auto store = kv::makeStore(kind);
    for (kv::KeyId k = 0; k < (1 << 16); ++k)
        store->put(k, k);
    sim::Pcg32 rng(1, 3);
    kv::Value v;
    for (auto _ : state)
        benchmark::DoNotOptimize(store->get(rng.nextBounded(1 << 16), v));
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(kv::storeKindName(kind));
}
BENCHMARK(BM_StoreGet)->DenseRange(0, 4);

static void
BM_NvmWriteTiming(benchmark::State &state)
{
    mem::MemoryDevice dev(mem::MemoryParams::nvm());
    sim::Pcg32 rng(1, 4);
    sim::Tick t = 0;
    for (auto _ : state) {
        t = dev.write(t, rng.nextU64() & 0xffffc0);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvmWriteTiming);

static void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    mem::CacheHierarchy h(mem::CacheHierarchyParams::paperDefault());
    sim::Pcg32 rng(1, 5);
    for (auto _ : state) {
        auto r = h.access((rng.nextU64() & 0xffff) * 64);
        benchmark::DoNotOptimize(r.latency);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

static void
BM_FabricSend(benchmark::State &state)
{
    sim::EventQueue eq;
    net::NetworkParams p;
    net::Fabric fabric(eq, p, 5);
    for (net::NodeId n = 0; n < 5; ++n)
        fabric.attach(n, [](const net::Message &) {});
    net::Message m;
    m.src = 0;
    m.hasData = true;
    for (auto _ : state) {
        fabric.broadcast(m);
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_FabricSend);

static void
BM_YcsbOpGen(benchmark::State &state)
{
    workload::OpGenerator gen(workload::WorkloadSpec::ycsbA(100000), 1,
                              1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YcsbOpGen);

BENCHMARK_MAIN();

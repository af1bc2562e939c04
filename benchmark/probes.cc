#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "mem/memory_device.hh"
#include "mem/persist_image.hh"
#include "net/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "stats/histogram.hh"

namespace ddpbench {

namespace {

using namespace ddp;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;
constexpr auto kRepTime = std::chrono::milliseconds(200);
constexpr auto kWarmupTime = std::chrono::milliseconds(50);
constexpr std::uint64_t kBatch = 1024;
/** Keys pre-drawn from the workload, so a probe times its call and not
 *  the generator. */
constexpr std::size_t kStreamLen = 1 << 16;

/** Results flow here so the optimizer cannot drop a probed call. */
volatile std::uint64_t gSink = 0;

/**
 * ns per call of @p batch(n), which performs n calls and returns how
 * many operations they were: a warm-up pass, then the median of kReps
 * repetitions that each run whole batches for at least kRepTime.
 */
template <typename Batch>
double
nsPerOp(Batch &&batch)
{
    auto rep = [&](Clock::duration min_time) {
        std::uint64_t ops = 0;
        auto t0 = Clock::now();
        auto t = t0;
        do {
            ops += batch(kBatch);
            t = Clock::now();
        } while (t - t0 < min_time);
        return std::chrono::duration<double, std::nano>(t - t0).count() /
               static_cast<double>(ops);
    };
    rep(kWarmupTime);
    std::vector<double> v;
    for (int i = 0; i < kReps; ++i)
        v.push_back(rep(kRepTime));
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

std::vector<std::uint64_t>
keyStream(const ProbeInputs &in)
{
    workload::OpGenerator gen(in.workload, in.seed, 0);
    std::vector<std::uint64_t> keys(kStreamLen);
    for (auto &k : keys)
        k = gen.next().key;
    return keys;
}

/** Hold model: every fired event schedules one successor, so the
 *  queue stays at its initial occupancy. */
struct Hold
{
    sim::EventQueue eq;
    sim::Pcg32 rng;

    explicit Hold(std::uint64_t seed) : rng(seed, 1) {}

    void
    arm()
    {
        sim::Tick delay = (1 + rng.nextBounded(2000)) * sim::kNanosecond;
        eq.scheduleIn(delay, [this] { arm(); });
    }
};

double
probeEventQueue(const ProbeInputs &in)
{
    Hold h(in.seed);
    auto pending = static_cast<std::size_t>(
        std::max(1.0, std::round(in.pendingMean)));
    for (std::size_t i = 0; i < pending; ++i)
        h.arm();
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            h.eq.step();
        return n;
    });
}

double
probeFabric(const ProbeInputs &in, const std::vector<std::uint64_t> &keys)
{
    sim::EventQueue eq;
    net::Fabric fabric(eq, net::NetworkParams{}, in.fabricNodes);
    std::uint64_t delivered = 0;
    for (net::NodeId n = 0; n < in.fabricNodes; ++n)
        fabric.attach(n, [&delivered](const net::Message &) {
            ++delivered;
        });
    std::size_t j = 0;
    return nsPerOp([&](std::uint64_t n) {
        std::uint64_t before = delivered;
        for (std::uint64_t i = 0; i < n; ++i, j = (j + 1) % keys.size()) {
            net::Message m;
            m.type = net::MsgType::Inv;
            m.src = static_cast<net::NodeId>(i % in.fabricNodes);
            m.key = keys[j];
            m.version = {i + 1, m.src};
            m.hasData = true;
            m.dataLines = in.valueLines;
            fabric.broadcast(std::move(m));
            eq.run();
        }
        return delivered - before;
    });
}

double
probeNvmWrite(const ProbeInputs &in, const std::vector<std::uint64_t> &keys)
{
    mem::MemoryDevice dev(mem::MemoryParams::nvm());
    sim::Tick at = 0;
    std::size_t j = 0;
    return nsPerOp([&](std::uint64_t n) {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < n; ++i, j = (j + 1) % keys.size()) {
            at += 100 * sim::kNanosecond;
            acc += dev.write(at, keys[j] * 64 * in.valueLines);
        }
        gSink = gSink + acc;
        return n;
    });
}

double
probeRecover(const ProbeInputs &in, const std::vector<std::uint64_t> &keys)
{
    // Every key durable at version 1; every 8th key caught mid-persist
    // of version 2 (multi-line values), as a crash would leave them.
    std::uint64_t key_count = in.workload.keyCount;
    mem::PersistImage img(key_count, in.valueLines, in.commitRecords);
    for (net::KeyId k = 0; k < key_count; ++k) {
        if (in.valueLines == 1) {
            img.atomicPersist(k, {1, 0});
            continue;
        }
        img.beginWrite(k, {1, 0});
        for (std::uint32_t l = 0; l < in.valueLines; ++l)
            img.lineWritten(k);
        img.commitWrite(k);
        if (k % 8 == 0) {
            img.beginWrite(k, {2, 0});
            img.lineWritten(k);
        }
    }
    img.crash();
    std::size_t j = 0;
    return nsPerOp([&](std::uint64_t n) {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < n; ++i, j = (j + 1) % keys.size())
            acc += img.recoverOnDemand(keys[j]).version.number;
        gSink = gSink + acc;
        return n;
    });
}

void
probeStore(const ProbeInputs &in, const std::vector<std::uint64_t> &keys,
           double &get_ns, double &put_ns)
{
    std::unique_ptr<kv::Store> store = kv::makeStore(in.store);
    for (kv::KeyId k = 0; k < in.workload.keyCount; ++k)
        store->put(k, k);
    std::size_t j = 0;
    get_ns = nsPerOp([&](std::uint64_t n) {
        std::uint64_t acc = 0;
        kv::Value v = 0;
        for (std::uint64_t i = 0; i < n; ++i, j = (j + 1) % keys.size())
            acc += store->get(keys[j], v) ? v : 0;
        gSink = gSink + acc;
        return n;
    });
    put_ns = nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i, j = (j + 1) % keys.size())
            store->put(keys[j], i);
        return n;
    });
}

} // namespace

std::vector<ProbeResult>
runProbes(const ProbeInputs &in, const SpanFn &span)
{
    std::vector<ProbeResult> out;
    std::vector<std::uint64_t> keys = keyStream(in);

    span("probe.sim", [&] {
        out.push_back({"sim.probe_ns_per_event", probeEventQueue(in)});
    });
    span("probe.net", [&] {
        out.push_back({"net.probe_ns_per_msg", probeFabric(in, keys)});
    });
    span("probe.mem", [&] {
        out.push_back({"mem.probe_ns_per_nvm_write", probeNvmWrite(in, keys)});
        out.push_back({"mem.probe_ns_per_recover", probeRecover(in, keys)});
    });
    span("probe.kv", [&] {
        double get_ns = 0.0;
        double put_ns = 0.0;
        probeStore(in, keys, get_ns, put_ns);
        out.push_back({"kv.probe_ns_per_get", get_ns});
        out.push_back({"kv.probe_ns_per_put", put_ns});
    });
    span("probe.workload", [&] {
        workload::OpGenerator gen(in.workload, in.seed, 1);
        out.push_back({"workload.probe_ns_per_op",
                       nsPerOp([&](std::uint64_t n) {
                           std::uint64_t acc = 0;
                           for (std::uint64_t i = 0; i < n; ++i)
                               acc += gen.next().key;
                           gSink = gSink + acc;
                           return n;
                       })});
        workload::ArrivalStream arrivals(in.arrival, in.seed, 1);
        out.push_back({"workload.probe_ns_per_arrival",
                       nsPerOp([&](std::uint64_t n) {
                           std::uint64_t acc = 0;
                           for (std::uint64_t i = 0; i < n; ++i)
                               acc += arrivals.next();
                           gSink = gSink + acc;
                           return n;
                       })});
    });
    double lookup_ns = 0.0;
    if (in.layout) {
        span("probe.shard", [&] {
            std::size_t j = 0;
            lookup_ns = nsPerOp([&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n;
                     ++i, j = (j + 1) % keys.size())
                    acc += in.layout->teamFor(keys[j]);
                gSink = gSink + acc;
                return n;
            });
        });
    }
    out.push_back({"shard.probe_ns_per_lookup", lookup_ns});
    span("probe.stats", [&] {
        // Recorded values: the workload's own inter-arrival gaps.
        workload::ArrivalStream arrivals(in.arrival, in.seed, 2);
        std::vector<std::uint64_t> gaps(kStreamLen);
        sim::Tick prev = 0;
        for (auto &g : gaps) {
            sim::Tick t = arrivals.next();
            g = t - prev;
            prev = t;
        }
        stats::Histogram h;
        std::size_t j = 0;
        out.push_back({"stats.probe_ns_per_record",
                       nsPerOp([&](std::uint64_t n) {
                           for (std::uint64_t i = 0; i < n;
                                ++i, j = (j + 1) % gaps.size())
                               h.record(gaps[j]);
                           gSink = gSink + h.max();
                           return n;
                       })});
    });
    return out;
}

} // namespace ddpbench

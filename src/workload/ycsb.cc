#include "workload/ycsb.hh"

#include <cassert>
#include <utility>

namespace ddp::workload {

WorkloadSpec
WorkloadSpec::ycsbA(std::uint64_t keys)
{
    WorkloadSpec w;
    w.name = "ycsb-a";
    w.readFraction = 0.5;
    w.keyCount = keys;
    return w;
}

WorkloadSpec
WorkloadSpec::ycsbB(std::uint64_t keys)
{
    WorkloadSpec w;
    w.name = "ycsb-b";
    w.readFraction = 0.95;
    w.keyCount = keys;
    return w;
}

WorkloadSpec
WorkloadSpec::ycsbC(std::uint64_t keys)
{
    WorkloadSpec w;
    w.name = "ycsb-c";
    w.readFraction = 1.0;
    w.keyCount = keys;
    return w;
}

WorkloadSpec
WorkloadSpec::ycsbW(std::uint64_t keys)
{
    WorkloadSpec w;
    w.name = "ycsb-w";
    w.readFraction = 0.05;
    w.keyCount = keys;
    return w;
}

WorkloadSpec
WorkloadSpec::ycsbD(std::uint64_t keys)
{
    WorkloadSpec w;
    w.name = "ycsb-d";
    w.readFraction = 0.95;
    w.keyCount = keys;
    w.distribution = KeyDistribution::Latest;
    return w;
}

WorkloadSpec
WorkloadSpec::ycsbE(std::uint64_t keys)
{
    WorkloadSpec w;
    w.name = "ycsb-e";
    w.readFraction = 0.95;
    w.scanFraction = 0.95; // the whole read share is short scans
    w.keyCount = keys;
    return w;
}

ZipfTable
makeZipfTable(const WorkloadSpec &spec)
{
    return std::make_shared<const sim::ZipfianGenerator>(spec.keyCount,
                                                         spec.zipfTheta);
}

OpGenerator::OpGenerator(const WorkloadSpec &spec, std::uint64_t seed,
                         std::uint64_t stream)
    : OpGenerator(spec, seed, stream, makeZipfTable(spec))
{
}

OpGenerator::OpGenerator(const WorkloadSpec &spec, std::uint64_t seed,
                         std::uint64_t stream, ZipfTable table)
    : wl(spec), rng(seed, stream), zipf(std::move(table))
{
    assert(zipf && zipf->itemCount() == spec.keyCount &&
           zipf->skew() == spec.zipfTheta);
}

std::uint64_t &
OpGenerator::frontierRef()
{
    return sharedFrontier ? sharedFrontier->value : frontier;
}

Op
OpGenerator::next()
{
    Op op;
    op.type = rng.nextDouble() < wl.readFraction ? OpType::Read
                                                 : OpType::Write;
    if (op.type == OpType::Read && wl.scanFraction > 0.0 &&
        rng.nextDouble() < wl.scanFraction / wl.readFraction) {
        op.type = OpType::Scan;
        op.scanLen = 1 + static_cast<std::uint32_t>(
                             rng.nextBounded(wl.maxScanLen));
    }
    switch (wl.distribution) {
      case KeyDistribution::Zipfian:
        op.key = zipf->next(rng);
        break;
      case KeyDistribution::Uniform:
        op.key = rng.nextU64() % wl.keyCount;
        break;
      case KeyDistribution::Latest:
        if (op.type == OpType::Write) {
            // Writes advance the insertion frontier (cyclically).
            std::uint64_t &fr = frontierRef();
            fr = (fr + 1) % wl.keyCount;
            op.key = fr;
        } else {
            // Reads favour keys just behind the frontier.
            std::uint64_t back = zipf->next(rng);
            op.key = (frontierRef() + wl.keyCount -
                      back % wl.keyCount) %
                     wl.keyCount;
        }
        break;
    }
    if (wl.hotRangeOffset != 0)
        op.key = (op.key + wl.hotRangeOffset) % wl.keyCount;
    if (keyShift != 0)
        op.key = (op.key + keyShift) % wl.keyCount;
    return op;
}

} // namespace ddp::workload

/**
 * @file
 * YCSB-compatible workload specification and operation generator.
 *
 * Reproduces the workload mixes the paper evaluates with the Yahoo!
 * Cloud Serving Benchmark: workload A (50% reads / 50% writes — the
 * default), B (95/5), C (100/0), and the paper-defined workload W
 * (5/95). Key popularity follows the YCSB zipfian distribution
 * (Gray et al. rejection sampler, theta = 0.99) or uniform.
 */

#ifndef DDP_WORKLOAD_YCSB_HH
#define DDP_WORKLOAD_YCSB_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/random.hh"

namespace ddp::workload {

/** Operation kind issued by a client. */
enum class OpType : std::uint8_t
{
    Read,
    Write,
    /** Ordered range scan over [key, key + scanLen) (YCSB-E). */
    Scan,
};

/** One client operation. */
struct Op
{
    OpType type = OpType::Read;
    std::uint64_t key = 0;
    /** Number of keys a Scan visits (0 for point ops). */
    std::uint32_t scanLen = 0;

    friend bool
    operator==(const Op &a, const Op &b)
    {
        return a.type == b.type && a.key == b.key &&
               a.scanLen == b.scanLen;
    }
};

/** Key popularity distribution. */
enum class KeyDistribution : std::uint8_t
{
    Zipfian,
    Uniform,
    /**
     * YCSB "latest": recently inserted keys are the most popular.
     * The generator tracks a moving insertion frontier; reads sample a
     * zipfian offset back from it, writes advance it (cyclically, so
     * the key space stays bounded).
     */
    Latest,
};

/** A workload mix over a key space. */
struct WorkloadSpec
{
    std::string name = "ycsb-a";
    double readFraction = 0.5;
    std::uint64_t keyCount = 10000;
    KeyDistribution distribution = KeyDistribution::Zipfian;
    double zipfTheta = 0.99;
    /**
     * Fraction of ops that are range scans (YCSB-E). Scans are carved
     * out of the read share: an op is a write with probability
     * 1 - readFraction, otherwise a scan with probability
     * scanFraction / readFraction, else a point read.
     */
    double scanFraction = 0.0;
    /** Scan lengths are uniform in [1, maxScanLen] (YCSB-E default). */
    std::uint32_t maxScanLen = 100;
    /**
     * Hot-range targeting (sharded clusters): rotate every generated
     * key by this many slots mod keyCount. The Gray et al. zipfian
     * sampler emits unscrambled ranks — key 0 is the hottest, and the
     * popular head is spatially *contiguous* — so the offset aims that
     * hot range at any shard of a range-partitioned keymap instead of
     * always hammering the first one.
     */
    std::uint64_t hotRangeOffset = 0;

    /** YCSB-A: 50% reads, 50% writes (the paper's default). */
    static WorkloadSpec ycsbA(std::uint64_t keys = 10000);
    /** YCSB-B: 95% reads, 5% writes. */
    static WorkloadSpec ycsbB(std::uint64_t keys = 10000);
    /** YCSB-C: 100% reads. */
    static WorkloadSpec ycsbC(std::uint64_t keys = 10000);
    /** Paper-defined workload W: 5% reads, 95% writes. */
    static WorkloadSpec ycsbW(std::uint64_t keys = 10000);
    /** YCSB-D: 95% reads, 5% writes, latest-distribution reads. */
    static WorkloadSpec ycsbD(std::uint64_t keys = 10000);
    /** YCSB-E: 95% range scans, 5% writes (ordered backends only). */
    static WorkloadSpec ycsbE(std::uint64_t keys = 10000);
};

/**
 * The Latest distribution's insertion frontier, shared by every
 * generator of one workload. YCSB-D semantics are workload-global:
 * "latest" means the newest insertion across the whole tenant, not
 * per connection. A per-client frontier (the pre-fix behavior) made
 * N clients track N diverging frontiers, flattening the aggregate
 * popularity distribution. The run's event order is deterministic,
 * so sharing one mutable frontier preserves byte-identical sweeps.
 */
struct SharedFrontier
{
    std::uint64_t value = 0;
};

/**
 * Immutable zipfian constants of one (keyCount, theta) pair. Computing
 * them costs keyCount pow() calls, so a cluster builds one set per
 * tenant workload and every client generator of that tenant shares it.
 */
using ZipfTable = std::shared_ptr<const sim::ZipfianGenerator>;

/** Compute the zipfian constants of @p spec's key space and skew. */
ZipfTable makeZipfTable(const WorkloadSpec &spec);

/**
 * Per-client operation generator. Each generator owns an independent
 * RNG stream so clients are statistically independent yet the whole
 * simulation stays deterministic.
 */
class OpGenerator
{
  public:
    /** Standalone generator: computes its own zipfian constants. */
    OpGenerator(const WorkloadSpec &spec, std::uint64_t seed,
                std::uint64_t stream);
    /**
     * Generator over shared constants @p table, which must have been
     * made from @p spec's keyCount and zipfTheta (makeZipfTable).
     */
    OpGenerator(const WorkloadSpec &spec, std::uint64_t seed,
                std::uint64_t stream, ZipfTable table);

    /** Draw the next operation. */
    Op next();

    /**
     * Bind the Latest insertion frontier to a workload-shared slot
     * (see SharedFrontier). Unbound generators fall back to a private
     * frontier, which is fine for single-client use.
     */
    void bindFrontier(SharedFrontier *shared) { sharedFrontier = shared; }

    /**
     * Rotate the key space by @p shift slots (flash-crowd hot-key
     * shift): every subsequently generated key moves by shift mod the
     * key count, so the popular head of the distribution lands on a
     * previously cold region.
     */
    void setKeyShift(std::uint64_t shift) { keyShift = shift; }
    std::uint64_t currentKeyShift() const { return keyShift; }

    const WorkloadSpec &spec() const { return wl; }
    /** The zipfian constants this generator samples from. */
    const ZipfTable &zipfTable() const { return zipf; }

  private:
    std::uint64_t &frontierRef();

    WorkloadSpec wl;
    sim::Pcg32 rng;
    ZipfTable zipf;
    /** Insertion frontier for the Latest distribution (unbound case). */
    std::uint64_t frontier = 0;
    SharedFrontier *sharedFrontier = nullptr;
    std::uint64_t keyShift = 0;
};

} // namespace ddp::workload

#endif // DDP_WORKLOAD_YCSB_HH

/**
 * @file
 * Client-visible operation types and completion callbacks.
 *
 * Clients interact with a ProtocolNode through reads, writes, and —
 * depending on the DDP model — transaction begin/end requests and
 * scope-persist requests. Every request completes asynchronously at a
 * simulated time with an OpResult.
 */

#ifndef DDP_CORE_CLIENT_API_HH
#define DDP_CORE_CLIENT_API_HH

#include <cstdint>

#include "net/message.hh"
#include "sim/inline_fn.hh"
#include "sim/phase.hh"
#include "sim/ticks.hh"

namespace ddp::core {

/** Client request kinds. */
enum class OpKind : std::uint8_t
{
    Read,
    Write,
    InitXact,
    EndXact,
    PersistScope,
    /** Ordered range scan (YCSB-E); served by ordered backends. */
    Scan,
};

/** Completion record delivered to the issuing client. */
struct OpResult
{
    OpKind kind = OpKind::Read;
    net::KeyId key = 0;
    net::NodeId node = 0;        ///< serving (coordinator) node
    sim::Tick issuedAt = 0;
    sim::Tick completedAt = 0;
    net::Version version{};      ///< version read / written
    bool aborted = false;        ///< transaction squashed by a conflict

    /**
     * Phase attribution of this request's latency (simulated clock).
     * Invariant for completed requests: phases.sum() == latency().
     */
    sim::PhaseAccum phases{};

    sim::Tick latency() const { return completedAt - issuedAt; }
};

/** Completion callback: move-only; closures of up to 48 bytes are
 *  stored in place, so issuing a request allocates nothing. */
using OpCompletion = sim::InlineFn<void(const OpResult &)>;

/** Optional transactional / scope context of a read or write. */
struct OpContext
{
    std::uint64_t xactId = 0;  ///< 0 = not inside a transaction
    std::uint64_t scopeId = 0; ///< 0 = no scope tag

    /**
     * Exactly-once retransmission identity. A client that fails over
     * to a new coordinator after a request timeout retransmits the
     * write under the same (clientId, clientSeq); coordinators dedup
     * on it. clientSeq 0 = no retransmission tracking (the default,
     * and the only mode exercised when request timeouts are disabled).
     */
    std::uint32_t clientId = 0;
    std::uint64_t clientSeq = 0;

    /**
     * Hedged duplicate of a read already in flight elsewhere (Dean &
     * Barroso's tail-at-scale technique). Speculative requests are the
     * first work an overloaded node sheds: dropping one costs nothing
     * but its latency benefit, so the admission controller rejects
     * them before queue delay collapses the primaries.
     */
    bool speculative = false;
};

/**
 * Observation sink for property checkers. The protocol engine reports
 * every read it answers and every write completion it signals; the
 * checkers derive monotonic-read, non-stale-read, and durability
 * verdicts from the stream.
 */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /** A read returned @p version at @p node. */
    virtual void
    onRead(net::NodeId node, net::KeyId key, net::Version version,
           sim::Tick issued_at, sim::Tick completed_at) = 0;

    /** A write of @p version completed (acknowledged to its client). */
    virtual void
    onWriteComplete(net::KeyId key, net::Version version,
                    sim::Tick completed_at) = 0;

    /**
     * Crash recovery detected a torn (partially persisted) value via
     * commit-record checksum mismatch and rolled @p key back to
     * @p rolled_back_to. Default: ignore.
     */
    virtual void
    onTornDetected(net::NodeId /*node*/, net::KeyId /*key*/,
                   net::Version /*rolled_back_to*/)
    {
    }

    /**
     * Crash recovery, running without commit records (ablation),
     * trusted the newest version tag it found and installed a torn
     * value as @p key's current version. Default: ignore.
     */
    virtual void
    onTornInstall(net::NodeId /*node*/, net::KeyId /*key*/,
                  net::Version /*torn_version*/)
    {
    }
};

} // namespace ddp::core

#endif // DDP_CORE_CLIENT_API_HH

/**
 * @file
 * Protocol message types (paper Table 3) and common identifiers.
 *
 * Every DDP protocol exchange is expressed with these messages:
 *
 *   INV (+data)      invalidate a key's replica and carry the new value
 *   ACK              acknowledge an event (combined c+p)
 *   ACK_c / ACK_p    acknowledge a consistency / persistency event
 *   VAL              mark the termination of an event (combined)
 *   VAL_c / VAL_p    mark termination of a consistency / persistency event
 *   UPD (+cauhist)   carry an updated value plus its causal history
 *   INITX / ENDX     transaction begin / end
 *   PERSIST_s        end of scope s
 *
 * Under Scope persistency all messages additionally carry the scope id.
 */

#ifndef DDP_NET_MESSAGE_HH
#define DDP_NET_MESSAGE_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

namespace ddp::net {

/** Server (replica node) identifier. */
using NodeId = std::uint32_t;

/** Key identifier; keys map to 64 B lines at addr = key * 64. */
using KeyId = std::uint64_t;

/** Sentinel for "no node". */
constexpr NodeId kNoNode = ~NodeId{0};

/**
 * Hermes-style logical timestamp: (version, coordinator) compared
 * lexicographically, so concurrent writes to a key resolve identically
 * at every replica.
 */
struct Version
{
    std::uint64_t number = 0;
    NodeId writer = 0;

    friend bool
    operator<(const Version &a, const Version &b)
    {
        if (a.number != b.number)
            return a.number < b.number;
        return a.writer < b.writer;
    }
    friend bool
    operator==(const Version &a, const Version &b)
    {
        return a.number == b.number && a.writer == b.writer;
    }
    friend bool operator!=(const Version &a, const Version &b)
    { return !(a == b); }
    friend bool operator>(const Version &a, const Version &b)
    { return b < a; }
    friend bool operator<=(const Version &a, const Version &b)
    { return !(b < a); }
    friend bool operator>=(const Version &a, const Version &b)
    { return !(a < b); }
};

/** Message kinds, one per row of paper Table 3. */
enum class MsgType : std::uint8_t
{
    Inv,     ///< INV (+data)
    Ack,     ///< ACK (combined consistency+persistency)
    AckC,    ///< ACK_c
    AckP,    ///< ACK_p
    Val,     ///< VAL (combined)
    ValC,    ///< VAL_c
    ValP,    ///< VAL_p
    Upd,     ///< UPD (+cauhist)
    InitX,   ///< INITX
    EndX,    ///< ENDX
    Persist, ///< [PERSIST]s

    // Recovery protocol (crash recovery, paper Sec. 9): batched
    // version-summary voting followed by winner installation.
    RecQuery,   ///< coordinator asks for a key range's versions
    RecSummary, ///< replica's packed versions for the range
    RecInstall, ///< winners the replicas must install
    RecAck,     ///< installation finished

    /**
     * Link-level delivery acknowledgment of the reliable-delivery
     * layer (NIC firmware, not protocol traffic): acknowledges the
     * per-QP sequence number in netSeq. Never surfaced to protocol
     * handlers, never itself acknowledged or retransmitted.
     */
    NetAck,
};

/** Human-readable message-type name (for traces and tests). */
const char *msgTypeName(MsgType t);

/**
 * Vector-clock causal history: per-server applied-update counters.
 * Recovery messages reuse the field for batches of packed versions.
 *
 * Up to kInline entries live inside the message, so a Causal UPD of a
 * replica team of up to kInline servers (the paper's 5-server cluster,
 * every team of a sharded one) is broadcast, parked and buffered
 * without a heap allocation. Longer histories — larger teams, recovery
 * batches — spill to the heap.
 */
class CausalHistory
{
  public:
    static constexpr std::uint32_t kInline = 5;

    CausalHistory() = default;
    CausalHistory(std::initializer_list<std::uint64_t> init)
    {
        assign(init.begin(), init.end());
    }
    CausalHistory(const CausalHistory &other)
    {
        assign(other.begin(), other.end());
    }
    CausalHistory(CausalHistory &&other) noexcept { steal(other); }
    CausalHistory &
    operator=(const CausalHistory &other)
    {
        if (this != &other)
            assign(other.begin(), other.end());
        return *this;
    }
    CausalHistory &
    operator=(CausalHistory &&other) noexcept
    {
        if (this != &other) {
            release();
            steal(other);
        }
        return *this;
    }
    ~CausalHistory() { release(); }

    /** Replace the contents with the range [@p first, @p last). */
    template <typename It>
    void
    assign(It first, It last)
    {
        count = 0;
        reserve(static_cast<std::uint32_t>(std::distance(first, last)));
        for (; first != last; ++first)
            data()[count++] = *first;
    }

    void
    reserve(std::size_t n)
    {
        if (n <= cap)
            return;
        auto *grown = new std::uint64_t[n];
        std::copy(begin(), end(), grown);
        if (cap > kInline)
            delete[] heap;
        heap = grown;
        cap = static_cast<std::uint32_t>(n);
    }

    void
    push_back(std::uint64_t v)
    {
        if (count == cap)
            reserve(std::size_t{cap} * 2);
        data()[count++] = v;
    }

    std::size_t size() const { return count; }

    std::uint64_t *data() { return cap > kInline ? heap : inl; }
    const std::uint64_t *data() const { return cap > kInline ? heap : inl; }
    std::uint64_t &operator[](std::size_t i) { return data()[i]; }
    std::uint64_t operator[](std::size_t i) const { return data()[i]; }
    std::uint64_t *begin() { return data(); }
    std::uint64_t *end() { return data() + count; }
    const std::uint64_t *begin() const { return data(); }
    const std::uint64_t *end() const { return data() + count; }

  private:
    void
    release()
    {
        if (cap > kInline)
            delete[] heap;
        cap = kInline;
        count = 0;
    }

    /** Take @p other's contents, leaving it empty (inline). */
    void
    steal(CausalHistory &other) noexcept
    {
        count = other.count;
        cap = other.cap;
        if (cap > kInline)
            heap = other.heap;
        else
            std::copy(other.inl, other.inl + count, inl);
        other.cap = kInline;
        other.count = 0;
    }

    std::uint32_t count = 0;
    std::uint32_t cap = kInline; ///< > kInline: entries live in heap
    union
    {
        std::uint64_t inl[kInline] = {};
        std::uint64_t *heap;
    };
};

/** One protocol message. */
struct Message
{
    MsgType type = MsgType::Inv;
    NodeId src = 0;
    NodeId dst = 0;
    KeyId key = 0;
    Version version{};

    /** Matches ACK/VAL traffic to the originating write operation. */
    std::uint64_t opId = 0;

    /** Scope id (Scope persistency); 0 when unused. */
    std::uint64_t scopeId = 0;

    /** Transaction id (Transactional consistency); 0 when unused. */
    std::uint64_t xactId = 0;

    /** Causal dependencies (Causal consistency UPDs only). */
    CausalHistory cauhist;

    /** True for messages that carry the value payload. */
    bool hasData = false;
    /** 64 B lines the value payload spans (ignored unless hasData). */
    std::uint32_t dataLines = 1;

    /** Commit flag for ENDX (false = abort the transaction). */
    bool commit = true;

    /**
     * Failure epoch of the sender. Receivers drop messages from an
     * older epoch, modeling in-flight traffic lost to a crash.
     */
    std::uint32_t epoch = 0;

    /**
     * Per-(src, dst) queue-pair sequence number assigned by the
     * reliable-delivery layer (0 = unsequenced). For NetAck this is
     * the sequence number being acknowledged.
     */
    std::uint64_t netSeq = 0;

    /**
     * Exactly-once retransmission identity of the originating client
     * request (clientSeq 0 = none). Rides on INV/UPD/VAL so every
     * replica learns which client sequence numbers are already applied
     * and can dedup a failed-over client's retransmits.
     */
    std::uint32_t clientId = 0;
    std::uint64_t clientSeq = 0;

    /** Wire size, used for NIC serialization timing. */
    std::uint32_t sizeBytes() const;
};

} // namespace ddp::net

#endif // DDP_NET_MESSAGE_HH

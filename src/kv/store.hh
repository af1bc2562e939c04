/**
 * @file
 * Common interface for the in-memory key-value store backends.
 *
 * The paper evaluates memcached plus simpler stores (HashTable, Map,
 * B-Tree, BPlusTree) under every DDP model. DDPSim implements all five
 * from scratch behind this interface. Stores are real, functional data
 * structures (the examples use them directly as an embeddable KV
 * library); the simulator additionally reads back a per-operation probe
 * count so local compute cost can be charged proportionally to the
 * structure actually traversed.
 */

#ifndef DDP_KV_STORE_HH
#define DDP_KV_STORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace ddp::kv {

using KeyId = std::uint64_t;
using Value = std::uint64_t;

/** The store backends DDPSim provides. */
enum class StoreKind
{
    HashTable, ///< robin-hood open-addressing hash table
    SkipList,  ///< skip-list ordered map
    BTree,     ///< classic B-tree
    BPlusTree, ///< B+ tree with linked leaves
    SlabLru,   ///< memcached-like slab LRU cache
};

/** Human-readable backend name. */
const char *storeKindName(StoreKind kind);

/**
 * Whether backends of @p kind keep keys in order and support
 * rangeScan() (YCSB-E scans route through ordered backends only).
 */
bool storeKindOrdered(StoreKind kind);

/**
 * Abstract key-value store.
 *
 * Implementations additionally report lastProbes(): the number of
 * node/slot touches the most recent operation performed, which the
 * cluster model converts into compute time.
 */
class Store
{
  public:
    virtual ~Store() = default;

    /** Look up @p key. @return true and set @p out on hit. */
    virtual bool get(KeyId key, Value &out) = 0;

    /** Insert or overwrite @p key. */
    virtual void put(KeyId key, Value value) = 0;

    /** Remove @p key. @return true if it was present. */
    virtual bool erase(KeyId key) = 0;

    /** Number of live keys. */
    virtual std::size_t size() const = 0;

    /** Drop everything. */
    virtual void clear() = 0;

    /** Probe count of the most recent get/put/erase. */
    virtual std::uint32_t lastProbes() const = 0;

    /**
     * Visit keys in [lo, hi] in ascending order; charge the traversal
     * to lastProbes() like a point op. @return keys visited. Unordered
     * backends visit nothing and return 0.
     */
    virtual std::size_t
    rangeScan(KeyId lo, KeyId hi,
              const std::function<void(KeyId, Value)> &visit)
    {
        (void)lo;
        (void)hi;
        (void)visit;
        return 0;
    }

    /** Backend kind. */
    virtual StoreKind kind() const = 0;

    /** Backend name (== storeKindName(kind())). */
    const char *name() const { return storeKindName(kind()); }
};

/** Construct a backend of the given kind. */
std::unique_ptr<Store> makeStore(StoreKind kind);

} // namespace ddp::kv

#endif // DDP_KV_STORE_HH

/**
 * @file
 * Skip-list ordered map store.
 *
 * A classic Pugh skip list with geometric level distribution (p = 1/4,
 * max 16 levels) and a deterministic internal PCG stream, so identical
 * insertion sequences produce identical structure across runs. Serves
 * as the "Map" application of the paper and supports ordered iteration
 * for range scans.
 */

#ifndef DDP_KV_SKIP_LIST_HH
#define DDP_KV_SKIP_LIST_HH

#include <array>
#include <cstdint>
#include <functional>

#include "kv/store.hh"
#include "sim/random.hh"

namespace ddp::kv {

/** Skip-list map implementing Store. */
class SkipListMap : public Store
{
  public:
    explicit SkipListMap(std::uint64_t seed = 0xddf5eed);
    ~SkipListMap() override;

    SkipListMap(const SkipListMap &) = delete;
    SkipListMap &operator=(const SkipListMap &) = delete;

    bool get(KeyId key, Value &out) override;
    void put(KeyId key, Value value) override;
    bool erase(KeyId key) override;
    std::size_t size() const override { return count; }
    void clear() override;
    std::uint32_t lastProbes() const override { return probes; }
    StoreKind kind() const override { return StoreKind::SkipList; }

    /**
     * Visit keys in [lo, hi] in ascending order.
     * @return number of keys visited.
     */
    std::size_t
    rangeScan(KeyId lo, KeyId hi,
              const std::function<void(KeyId, Value)> &visit) override;

    /** Height of the tallest node (structure tests). */
    int currentLevels() const { return levels; }

  private:
    static constexpr int kMaxLevels = 16;

    struct Node
    {
        KeyId key;
        Value value;
        int height;
        std::array<Node *, kMaxLevels> next;
    };

    Node *makeNode(KeyId key, Value value, int height);
    int randomHeight();
    /** Find predecessors of @p key at every level; fills @p update. */
    Node *findPredecessors(KeyId key,
                           std::array<Node *, kMaxLevels> &update);

    Node *head;
    int levels = 1;
    std::size_t count = 0;
    std::uint32_t probes = 0;
    sim::Pcg32 rng;
};

} // namespace ddp::kv

#endif // DDP_KV_SKIP_LIST_HH

/**
 * @file
 * B+ tree store with linked leaves.
 *
 * All values live in the leaves; internal nodes carry separator keys
 * only. Leaves are singly linked for ordered range scans. Insertions
 * split bottom-up; deletions borrow from or merge with siblings, so
 * the occupancy invariants hold between operations (checked by
 * validate() in property tests).
 */

#ifndef DDP_KV_BPLUS_TREE_HH
#define DDP_KV_BPLUS_TREE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "kv/store.hh"

namespace ddp::kv {

/** B+ tree implementing Store. */
class BPlusTree : public Store
{
  public:
    BPlusTree();
    ~BPlusTree() override;

    BPlusTree(const BPlusTree &) = delete;
    BPlusTree &operator=(const BPlusTree &) = delete;

    bool get(KeyId key, Value &out) override;
    void put(KeyId key, Value value) override;
    bool erase(KeyId key) override;
    std::size_t size() const override { return count; }
    void clear() override;
    std::uint32_t lastProbes() const override { return probes; }
    StoreKind kind() const override { return StoreKind::BPlusTree; }

    /** Visit keys in [lo, hi] ascending via the leaf chain. */
    std::size_t
    rangeScan(KeyId lo, KeyId hi,
              const std::function<void(KeyId, Value)> &visit) override;

    /** Check ordering, occupancy, depth, and leaf-chain invariants. */
    bool validate() const;

    /** Tree height (1 for a lone root leaf). */
    int height() const;

  private:
    static constexpr int kFanout = 16;          // max children (internal)
    static constexpr int kLeafCap = 16;         // max entries (leaf)
    static constexpr int kMinChildren = kFanout / 2;
    static constexpr int kMinLeaf = kLeafCap / 2;

    struct Node
    {
        bool leaf = true;
        std::vector<KeyId> keys;       // separators or leaf keys
        std::vector<Value> values;     // leaf only
        std::vector<Node *> children;  // internal only
        Node *next = nullptr;          // leaf chain
    };

    static void destroy(Node *n);

    Node *findLeaf(KeyId key, std::vector<Node *> *path = nullptr,
                   std::vector<int> *slots = nullptr);
    void insertIntoParent(std::vector<Node *> &path,
                          std::vector<int> &slots, std::size_t level,
                          KeyId sep, Node *right);
    void rebalanceAfterErase(std::vector<Node *> &path,
                             std::vector<int> &slots, std::size_t level);

    bool validateNode(const Node *n, bool is_root, int depth,
                      int &leaf_depth) const;

    Node *root;
    std::size_t count = 0;
    std::uint32_t probes = 0;
};

} // namespace ddp::kv

#endif // DDP_KV_BPLUS_TREE_HH

#include "kv/store.hh"

#include "kv/bplus_tree.hh"
#include "kv/btree.hh"
#include "kv/hash_table.hh"
#include "kv/skip_list.hh"
#include "kv/slab_lru.hh"

namespace ddp::kv {

const char *
storeKindName(StoreKind kind)
{
    switch (kind) {
      case StoreKind::HashTable: return "HashTable";
      case StoreKind::SkipList: return "SkipList";
      case StoreKind::BTree: return "BTree";
      case StoreKind::BPlusTree: return "BPlusTree";
      case StoreKind::SlabLru: return "SlabLru";
    }
    return "?";
}

bool
storeKindOrdered(StoreKind kind)
{
    return kind == StoreKind::SkipList || kind == StoreKind::BPlusTree;
}

std::unique_ptr<Store>
makeStore(StoreKind kind)
{
    switch (kind) {
      case StoreKind::HashTable:
        return std::make_unique<RobinHoodHashTable>();
      case StoreKind::SkipList:
        return std::make_unique<SkipListMap>();
      case StoreKind::BTree:
        return std::make_unique<BTree>();
      case StoreKind::BPlusTree:
        return std::make_unique<BPlusTree>();
      case StoreKind::SlabLru:
        return std::make_unique<SlabLruCache>();
    }
    return nullptr;
}

} // namespace ddp::kv

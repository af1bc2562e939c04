/**
 * @file
 * Parameterized conformance tests run against every store backend,
 * plus a randomized differential test against std::map.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "kv/store.hh"
#include "sim/random.hh"

using namespace ddp::kv;

class StoreConformance : public ::testing::TestWithParam<StoreKind>
{
  protected:
    void SetUp() override { store = makeStore(GetParam()); }
    std::unique_ptr<Store> store;
};

TEST_P(StoreConformance, EmptyStore)
{
    Value v;
    EXPECT_EQ(store->size(), 0u);
    EXPECT_FALSE(store->get(42, v));
    EXPECT_FALSE(store->erase(42));
}

TEST_P(StoreConformance, PutThenGet)
{
    store->put(1, 100);
    Value v = 0;
    EXPECT_TRUE(store->get(1, v));
    EXPECT_EQ(v, 100u);
    EXPECT_EQ(store->size(), 1u);
}

TEST_P(StoreConformance, OverwriteKeepsSingleEntry)
{
    store->put(1, 100);
    store->put(1, 200);
    Value v = 0;
    EXPECT_TRUE(store->get(1, v));
    EXPECT_EQ(v, 200u);
    EXPECT_EQ(store->size(), 1u);
}

TEST_P(StoreConformance, EraseRemoves)
{
    store->put(1, 100);
    store->put(2, 200);
    EXPECT_TRUE(store->erase(1));
    Value v;
    EXPECT_FALSE(store->get(1, v));
    EXPECT_TRUE(store->get(2, v));
    EXPECT_EQ(store->size(), 1u);
    EXPECT_FALSE(store->erase(1));
}

TEST_P(StoreConformance, ClearEmpties)
{
    for (KeyId k = 0; k < 100; ++k)
        store->put(k, k);
    store->clear();
    EXPECT_EQ(store->size(), 0u);
    Value v;
    EXPECT_FALSE(store->get(50, v));
    // Store remains usable after clear.
    store->put(7, 7);
    EXPECT_TRUE(store->get(7, v));
}

TEST_P(StoreConformance, ManyKeysAllRetrievable)
{
    // SlabLru is lossy beyond its capacity; stay within it.
    const KeyId n = 10000;
    for (KeyId k = 0; k < n; ++k)
        store->put(k, k * 3);
    EXPECT_EQ(store->size(), n);
    for (KeyId k = 0; k < n; ++k) {
        Value v = 0;
        ASSERT_TRUE(store->get(k, v)) << "key " << k;
        ASSERT_EQ(v, k * 3);
    }
}

TEST_P(StoreConformance, SparseKeysWork)
{
    for (KeyId k = 0; k < 64; ++k)
        store->put(k * 1'000'003ULL, k);
    for (KeyId k = 0; k < 64; ++k) {
        Value v = 0;
        ASSERT_TRUE(store->get(k * 1'000'003ULL, v));
        ASSERT_EQ(v, k);
    }
}

TEST_P(StoreConformance, ProbeCountNonZeroAfterOp)
{
    store->put(5, 5);
    Value v;
    store->get(5, v);
    EXPECT_GT(store->lastProbes(), 0u);
}

TEST_P(StoreConformance, KindAndNameConsistent)
{
    EXPECT_EQ(store->kind(), GetParam());
    EXPECT_STREQ(store->name(), storeKindName(GetParam()));
}

TEST_P(StoreConformance, RangeScansExactlyWhenKindIsOrdered)
{
    for (KeyId k = 1; k <= 3; ++k)
        store->put(k, k);
    std::size_t visited = store->rangeScan(1, 3, [](KeyId, Value) {});
    EXPECT_EQ(visited, storeKindOrdered(GetParam()) ? 3u : 0u);
}

TEST_P(StoreConformance, DifferentialAgainstStdMap)
{
    // Randomized puts/gets/erases mirrored into std::map; within the
    // SlabLru capacity every backend must agree exactly.
    ddp::sim::Pcg32 rng(2024, static_cast<int>(GetParam()));
    std::map<KeyId, Value> ref;
    for (int i = 0; i < 30000; ++i) {
        KeyId key = rng.nextBounded(3000);
        switch (rng.nextBounded(4)) {
          case 0:
          case 1: { // put
            Value val = rng.nextU64();
            store->put(key, val);
            ref[key] = val;
            break;
          }
          case 2: { // get
            Value got = 0;
            bool have = store->get(key, got);
            auto it = ref.find(key);
            ASSERT_EQ(have, it != ref.end()) << "iter " << i;
            if (have) {
                ASSERT_EQ(got, it->second) << "iter " << i;
            }
            break;
          }
          case 3: { // erase
            bool removed = store->erase(key);
            ASSERT_EQ(removed, ref.erase(key) > 0) << "iter " << i;
            break;
          }
        }
        if (i % 1000 == 0) {
            ASSERT_EQ(store->size(), ref.size()) << "iter " << i;
        }
    }
    EXPECT_EQ(store->size(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, StoreConformance,
    ::testing::Values(StoreKind::HashTable, StoreKind::SkipList,
                      StoreKind::BTree, StoreKind::BPlusTree,
                      StoreKind::SlabLru),
    [](const ::testing::TestParamInfo<StoreKind> &info) {
        return storeKindName(info.param);
    });

TEST(StoreFactory, MakesEveryKind)
{
    for (StoreKind k :
         {StoreKind::HashTable, StoreKind::SkipList, StoreKind::BTree,
          StoreKind::BPlusTree, StoreKind::SlabLru}) {
        auto s = makeStore(k);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->kind(), k);
    }
}

// The sharded chain-index substrate:
//  * SlabPool geometry, reuse, and the memory-ceiling contract;
//  * ShardedIndex semantics — pointer stability across rehash,
//    deterministic iteration, and randomized churn (inserts, lookups and
//    accumulating updates, which exercise the per-shard hot entry) proven
//    equivalent to the single-map oracle mode;
//  * ChainIndex behind a Blockchain — fork/reorg churn driven identically
//    into a sharded chain and an oracle chain must answer every query
//    identically, and per-entry state snapshots stay independent.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/sharded_index.h"
#include "src/common/slab.h"
#include "src/contracts/htlc_contract.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

// ---------------------------------------------------------------- SlabPool

TEST(SlabPoolTest, TracksLiveBlocksInEveryBuild) {
  SlabPool pool(24);
  void* a = pool.Allocate();
  void* b = pool.Allocate();
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live_blocks(), 2u);
  pool.Deallocate(a);
  pool.Deallocate(b);
  EXPECT_EQ(pool.live_blocks(), 0u);
}

TEST(SlabPoolTest, CarvesSlabsAndReportsReservedBytes) {
  if (!SlabPool::kPoolingEnabled) {
    GTEST_SKIP() << "slab geometry is bypassed under sanitizers";
  }
  SlabPool pool(24, /*blocks_per_slab=*/8);
  // Block size rounds up to max_align_t alignment.
  EXPECT_EQ(pool.block_size() % alignof(std::max_align_t), 0u);
  EXPECT_GE(pool.block_size(), 24u);
  EXPECT_EQ(pool.slab_count(), 0u);
  EXPECT_EQ(pool.bytes_reserved(), 0u);

  std::vector<void*> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(pool.Allocate());
  EXPECT_EQ(pool.slab_count(), 1u);
  blocks.push_back(pool.Allocate());  // The 9th forces a second slab.
  EXPECT_EQ(pool.slab_count(), 2u);
  EXPECT_EQ(pool.bytes_reserved(), 2u * 8u * pool.block_size());

  for (void* block : blocks) pool.Deallocate(block);
  // Slabs are retained for reuse; reserved bytes stay put.
  EXPECT_EQ(pool.bytes_reserved(), 2u * 8u * pool.block_size());
}

TEST(SlabPoolTest, ReusesFreedBlocksWithoutNewSlabs) {
  if (!SlabPool::kPoolingEnabled) {
    GTEST_SKIP() << "free-list reuse is bypassed under sanitizers";
  }
  SlabPool pool(64, /*blocks_per_slab=*/8);
  void* first = pool.Allocate();
  pool.Deallocate(first);
  // LIFO free list: the freed block comes straight back.
  EXPECT_EQ(pool.Allocate(), first);
  const size_t slabs = pool.slab_count();
  for (int round = 0; round < 100; ++round) {
    void* block = pool.Allocate();
    pool.Deallocate(block);
  }
  EXPECT_EQ(pool.slab_count(), slabs);
  pool.Deallocate(first);
}

// ------------------------------------------------------------ ShardedIndex

TEST(ShardedIndexTest, EmplaceFindContains) {
  ShardedIndex<uint64_t, uint64_t> index;
  EXPECT_TRUE(index.empty());
  auto [value, inserted] = index.Emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 70u);
  // A duplicate emplace keeps the stored value and reports no insert.
  auto [again, second] = index.Emplace(7, 999);
  EXPECT_FALSE(second);
  EXPECT_EQ(again, value);
  EXPECT_EQ(*again, 70u);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.Contains(7));
  EXPECT_FALSE(index.Contains(8));
  const auto& const_index = index;
  ASSERT_NE(const_index.Find(7), nullptr);
  EXPECT_EQ(*const_index.Find(7), 70u);
  EXPECT_EQ(const_index.Find(8), nullptr);
}

TEST(ShardedIndexTest, GetOrCreateAccumulates) {
  ShardedIndex<uint64_t, std::vector<int>> index;
  index.GetOrCreate(3).push_back(1);
  index.GetOrCreate(3).push_back(2);
  ASSERT_NE(index.Find(3), nullptr);
  EXPECT_EQ(*index.Find(3), (std::vector<int>{1, 2}));
  EXPECT_EQ(index.size(), 1u);
}

TEST(ShardedIndexTest, ValuePointersSurviveRehash) {
  ShardedIndex<uint64_t, uint64_t> index;
  std::vector<const uint64_t*> pointers;
  for (uint64_t key = 0; key < 100; ++key) {
    pointers.push_back(index.Emplace(key, key * 10).first);
  }
  // 10k more inserts force many bucket-table rehashes in every shard.
  for (uint64_t key = 100; key < 10100; ++key) index.Emplace(key, key * 10);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(index.Find(key), pointers[key]);
    EXPECT_EQ(*pointers[key], key * 10);
  }
}

TEST(ShardedIndexTest, IterationIsDeterministicAcrossInstances) {
  using Index = ShardedIndex<uint64_t, uint64_t>;
  Index::Options options;
  options.shards = 8;
  Index first(options);
  Index second(options);
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = rng.NextU64() % 1500;
    first.Emplace(key, key + 1);
    second.Emplace(key, key + 1);
  }
  std::vector<std::pair<uint64_t, uint64_t>> seen_first;
  std::vector<std::pair<uint64_t, uint64_t>> seen_second;
  first.ForEach([&](const uint64_t& k, const uint64_t& v) {
    seen_first.emplace_back(k, v);
  });
  second.ForEach([&](const uint64_t& k, const uint64_t& v) {
    seen_second.emplace_back(k, v);
  });
  EXPECT_EQ(seen_first.size(), first.size());
  // Identical operation sequences iterate identically — the property the
  // golden fingerprints lean on.
  EXPECT_EQ(seen_first, seen_second);
}

TEST(ShardedIndexTest, OracleIteratesInInsertionOrder) {
  ShardedIndex<uint64_t, uint64_t>::Options options;
  options.oracle = true;
  ShardedIndex<uint64_t, uint64_t> index(options);
  EXPECT_TRUE(index.is_oracle());
  EXPECT_EQ(index.shard_count(), 1u);
  for (uint64_t key : {5u, 1u, 9u, 3u}) index.Emplace(key, key);
  std::vector<uint64_t> order;
  index.ForEach([&](const uint64_t& k, const uint64_t&) {
    order.push_back(k);
  });
  EXPECT_EQ(order, (std::vector<uint64_t>{5, 1, 9, 3}));
}

TEST(ShardedIndexTest, RandomChurnMatchesOracle) {
  using Index = ShardedIndex<uint64_t, uint64_t>;
  Index::Options sharded_options;
  sharded_options.shards = 8;
  Index::Options oracle_options;
  oracle_options.oracle = true;
  Index sharded(sharded_options);
  Index oracle(oracle_options);

  Rng rng(4242);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextU64() % 4096;
    switch (rng.NextU64() % 3) {
      case 0: {
        const uint64_t value = rng.NextU64();
        auto a = sharded.Emplace(key, value);
        auto b = oracle.Emplace(key, value);
        EXPECT_EQ(a.second, b.second);
        EXPECT_EQ(*a.first, *b.first);
        break;
      }
      case 1: {
        const uint64_t* a = sharded.Find(key);
        const uint64_t* b = oracle.Find(key);
        ASSERT_EQ(a != nullptr, b != nullptr);
        if (a != nullptr) {
          EXPECT_EQ(*a, *b);
        }
        break;
      }
      default: {
        const uint64_t bump = rng.NextU64() % 7;
        sharded.GetOrCreate(key) += bump;
        oracle.GetOrCreate(key) += bump;
        break;
      }
    }
  }
  ASSERT_EQ(sharded.size(), oracle.size());
  // Same key set, same values — compare as sorted pairs since the two
  // backends legitimately iterate in different orders.
  std::vector<std::pair<uint64_t, uint64_t>> a, b;
  sharded.ForEach([&](const uint64_t& k, const uint64_t& v) {
    a.emplace_back(k, v);
  });
  oracle.ForEach([&](const uint64_t& k, const uint64_t& v) {
    b.emplace_back(k, v);
  });
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ShardedIndexTest, SlabMemoryStaysUnderCeiling) {
  if (!SlabPool::kPoolingEnabled) {
    GTEST_SKIP() << "bytes_reserved degrades to live bytes under sanitizers";
  }
  ShardedIndex<uint64_t, uint64_t>::Options options;
  options.shards = 16;
  ShardedIndex<uint64_t, uint64_t> index(options);
  constexpr size_t kEntries = 100000;
  for (uint64_t key = 0; key < kEntries; ++key) index.Emplace(key, key);
  const size_t reserved = index.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  // Ceiling: generous per-node bound plus one partially-used slab per
  // shard. A regression to per-node heap allocation or slab leak per
  // rehash blows straight through this.
  const size_t kPerNodeCeiling = 160;
  const size_t kSlabSlack = 16 * 64 * 1024;
  EXPECT_LE(reserved, kEntries * kPerNodeCeiling + kSlabSlack);
}

// -------------------------------------------------- ChainIndex equivalence

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(61);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(62);
const crypto::KeyPair kMiner = crypto::KeyPair::FromSeed(63);

chain::ChainParams ChurnParams() {
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;
  return params;
}

TEST(ChainIndexTest, ForkReorgChurnMatchesOracleChain) {
  contracts::RegisterBuiltinContracts();
  const chain::ChainParams params = ChurnParams();
  const auto allocations =
      testutil::Fund({kAlice.public_key(), kBob.public_key()}, 100000);
  chain::Blockchain sharded(params, allocations);
  chain::ChainIndex::Options oracle_options;
  oracle_options.oracle = true;
  chain::Blockchain oracle(params, allocations, oracle_options);
  ASSERT_EQ(sharded.genesis()->hash, oracle.genesis()->hash);

  Rng rng(777);
  TimePoint now = 0;
  std::vector<crypto::Hash256> tx_ids;
  // Assemble once (on the sharded chain), submit the same block to both;
  // every status must agree.
  auto mine_on = [&](const crypto::Hash256& parent,
                     const std::vector<chain::Transaction>& txs) {
    now += 100;
    auto block =
        sharded.AssembleBlock(parent, txs, kMiner.public_key(), now, &rng);
    ASSERT_TRUE(block.ok());
    const Status a = sharded.SubmitBlock(*block, now);
    const Status b = oracle.SubmitBlock(*block, now);
    EXPECT_EQ(a.ok(), b.ok());
    for (const chain::Transaction& tx : block->txs) tx_ids.push_back(tx.Id());
  };

  chain::Wallet alice(kAlice, params.id);
  chain::Wallet bob(kBob, params.id);

  // An HTLC deploy + redeem so FindCall has real traffic to index.
  const Bytes secret{4, 8, 15, 16, 23, 42};
  auto deploy = alice.BuildDeploy(
      sharded.StateAtHead(), contracts::kHtlcKind,
      contracts::HtlcContract::MakeInitPayload(
          kBob.public_key(), crypto::Hash256::Of(secret), Minutes(60)),
      500, params.deploy_fee, /*nonce=*/1);
  ASSERT_TRUE(deploy.ok());
  const crypto::Hash256 contract_id = deploy->Id();
  mine_on(sharded.head()->hash, {*deploy});
  auto redeem = bob.BuildCall(sharded.StateAtHead(), contract_id,
                              contracts::kRedeemFunction, secret, 1,
                              /*nonce=*/1);
  ASSERT_TRUE(redeem.ok());
  mine_on(sharded.head()->hash, {*redeem});

  // Randomized churn: transfers on the head, plus empty fork blocks on
  // random recent parents (some of which overtake the head — reorgs).
  uint64_t nonce = 2;
  for (int round = 0; round < 40; ++round) {
    if (rng.NextU64() % 3 == 0) {
      auto tx = alice.BuildTransfer(sharded.StateAtHead(), kBob.public_key(),
                                    1 + rng.NextU64() % 5, 1, nonce++);
      ASSERT_TRUE(tx.ok());
      mine_on(sharded.head()->hash, {*tx});
    } else {
      const auto& arrivals = sharded.arrival_order();
      const size_t window = std::min<size_t>(arrivals.size(), 6);
      const chain::BlockEntry* parent =
          arrivals[arrivals.size() - 1 - rng.NextU64() % window];
      mine_on(parent->hash, {});
    }
    ASSERT_EQ(sharded.head()->hash, oracle.head()->hash);
    ASSERT_EQ(sharded.block_count(), oracle.block_count());
  }
  ASSERT_GT(sharded.block_count(), 40u);

  // Every query the facade exposes answers identically in both modes.
  EXPECT_EQ(sharded.index().EntryCount(), oracle.index().EntryCount());
  for (const crypto::Hash256& tx_id : tx_ids) {
    const auto a = sharded.FindTx(tx_id);
    const auto b = oracle.FindTx(tx_id);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->entry->hash, b->entry->hash);
      EXPECT_EQ(a->index, b->index);
    }
    EXPECT_EQ(sharded.index().OccurrencesOf(tx_id).size(),
              oracle.index().OccurrencesOf(tx_id).size());
    EXPECT_EQ(sharded.TxOnBranch(*sharded.head(), tx_id),
              oracle.TxOnBranch(*oracle.head(), tx_id));
  }
  for (bool require_success : {false, true}) {
    const auto a = sharded.FindCall(contract_id, contracts::kRedeemFunction,
                                    require_success);
    const auto b = oracle.FindCall(contract_id, contracts::kRedeemFunction,
                                   require_success);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->entry->hash, b->entry->hash);
      EXPECT_EQ(a->index, b->index);
    }
  }
  // Entry-by-entry: everything the sharded store holds, the oracle holds,
  // with the same canonical status.
  size_t visited = 0;
  sharded.ForEachEntry(
      [&](const crypto::Hash256& hash, const chain::BlockEntry& entry) {
        ++visited;
        const chain::BlockEntry* twin = oracle.Get(hash);
        ASSERT_NE(twin, nullptr);
        EXPECT_EQ(twin->height(), entry.height());
        EXPECT_EQ(sharded.ConfirmationsOf(hash), oracle.ConfirmationsOf(hash));
      });
  EXPECT_EQ(visited, sharded.block_count());
}

TEST(ChainIndexTest, EntrySnapshotsAreIndependentOfLaterChurn) {
  testutil::TestChain tc(ChurnParams(),
                         testutil::Fund({kAlice.public_key()}, 1000));
  chain::Wallet alice(kAlice, tc.chain().id());
  auto tx = alice.BuildTransfer(tc.chain().StateAtHead(), kBob.public_key(),
                                100, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  const chain::BlockEntry* snapshot_entry = tc.chain().head();
  const chain::Amount bob_then =
      snapshot_entry->state.BalanceOf(kBob.public_key());
  EXPECT_EQ(bob_then, 100);

  // Later blocks (including a fork off the snapshot's parent) must not
  // disturb the stored entry's state snapshot.
  auto tx2 = alice.BuildTransfer(tc.chain().StateAtHead(), kBob.public_key(),
                                 25, 1, 2);
  ASSERT_TRUE(tx2.ok());
  ASSERT_TRUE(tc.MineBlock({*tx2}).ok());
  ASSERT_TRUE(tc.MineBlockOn(snapshot_entry->block.header.prev_hash, {}).ok());
  ASSERT_TRUE(tc.MineEmpty(5).ok());
  EXPECT_EQ(snapshot_entry->state.BalanceOf(kBob.public_key()), bob_then);
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(kBob.public_key()), 125);
}

}  // namespace
}  // namespace ac3

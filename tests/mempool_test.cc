// Mempool tests: FIFO candidate ordering, arrival-time visibility (a
// transaction gossiped at t is not minable before t), pruning, and the
// interaction with block capacity via CandidatePointersAt.

#include "src/chain/mempool.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/chain/wallet.h"
#include "tests/test_util.h"

namespace ac3::chain {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(81);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(82);

class MempoolTest : public ::testing::Test {
 protected:
  // Many small outputs so independent transfers never compete for inputs
  // (each build reserves what it spends).
  static std::vector<TxOutput> ManyOutputs() {
    std::vector<TxOutput> out;
    for (int i = 0; i < 80; ++i) {
      out.push_back(TxOutput{100, kAlice.public_key()});
    }
    return out;
  }

  MempoolTest()
      : world_(TestChainParams(), ManyOutputs(), /*seed=*/601),
        alice_(kAlice, world_.chain().id()) {}

  Transaction MakeTransfer(uint64_t nonce) {
    auto tx = alice_.BuildTransfer(world_.chain().StateAtHead(),
                                   kBob.public_key(), 10, 1, nonce);
    EXPECT_TRUE(tx.ok()) << tx.status();
    return *tx;
  }

  testutil::TestChain world_;
  Wallet alice_;
  Mempool pool_;
};

TEST_F(MempoolTest, CandidatesComeOutInArrivalOrder) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  Transaction t3 = MakeTransfer(3);
  ASSERT_TRUE(pool_.Submit(t2, /*arrival=*/10).ok());
  ASSERT_TRUE(pool_.Submit(t1, /*arrival=*/20).ok());
  ASSERT_TRUE(pool_.Submit(t3, /*arrival=*/30).ok());
  auto candidates = pool_.CandidatePointersAt(/*now=*/100, {});
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
  EXPECT_EQ(candidates[1]->Id(), t1.Id());
  EXPECT_EQ(candidates[2]->Id(), t3.Id());
}

TEST_F(MempoolTest, FutureArrivalsAreInvisible) {
  Transaction tx = MakeTransfer(1);
  ASSERT_TRUE(pool_.Submit(tx, /*arrival=*/500).ok());
  EXPECT_TRUE(pool_.CandidatePointersAt(/*now=*/499, {}).empty());
  EXPECT_EQ(pool_.CandidatePointersAt(/*now=*/500, {}).size(), 1u);
}

TEST_F(MempoolTest, DuplicateSubmissionRejectedButHarmless) {
  Transaction tx = MakeTransfer(1);
  ASSERT_TRUE(pool_.Submit(tx, 0).ok());
  Status again = pool_.Submit(tx, 5);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(pool_.size(), 1u);
}

TEST_F(MempoolTest, IncludedTransactionsAreFiltered) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, 0).ok());
  ASSERT_TRUE(pool_.Submit(t2, 0).ok());
  auto candidates = pool_.CandidatePointersAt(
      100, [&](const crypto::Hash256& id) { return id == t1.Id(); });
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
}

TEST_F(MempoolTest, PruneDropsEntriesPermanently) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, 0).ok());
  ASSERT_TRUE(pool_.Submit(t2, 0).ok());
  pool_.Prune(std::vector<crypto::Hash256>{t1.Id()});
  EXPECT_EQ(pool_.size(), 1u);
  EXPECT_FALSE(pool_.Contains(t1.Id()));
  EXPECT_TRUE(pool_.Contains(t2.Id()));
  auto candidates = pool_.CandidatePointersAt(100, {});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
}

TEST_F(MempoolTest, CapacityIsEnforcedByBlockAssemblyNotThePool) {
  // The pool returns every visible candidate; AssembleBlock applies the
  // per-block cap. Verify the division of labor end to end.
  const size_t capacity = world_.chain().params().max_block_txs;
  std::vector<Transaction> batch;
  for (size_t i = 0; i < capacity + 5; ++i) {
    Transaction tx = MakeTransfer(static_cast<uint64_t>(i + 1));
    ASSERT_TRUE(pool_.Submit(tx, 0).ok());
    batch.push_back(tx);
  }
  auto candidates = pool_.CandidatePointersAt(100, {});
  EXPECT_EQ(candidates.size(), capacity + 5);
  Rng rng(1);
  auto block = world_.chain().AssembleBlock(world_.chain().head()->hash,
                                            candidates,
                                            kAlice.public_key(), 100, &rng);
  ASSERT_TRUE(block.ok());
  // +1 coinbase; the block takes exactly the FIFO prefix and the overflow
  // stays pooled for the next block.
  ASSERT_EQ(block->txs.size(), capacity + 1);
  for (size_t i = 0; i < capacity; ++i) {
    EXPECT_EQ(block->txs[i + 1].Id(), candidates[i]->Id()) << "position " << i;
  }
}

// ---------------------------------------------- per-transaction ingestion
//
// Every producer hands the pool one transaction at a time (a tick's worth
// of arrivals is a run of Submit calls at the same time), so the ordering
// and duplicate rules are pinned on Submit sequences.

TEST_F(MempoolTest, SameArrivalSubmitsKeepSubmissionOrder) {
  std::vector<Transaction> txs;
  for (uint64_t i = 1; i <= 20; ++i) txs.push_back(MakeTransfer(i));
  // Submit in an order unrelated to the nonces (and so to the ids).
  std::vector<size_t> order;
  for (size_t i = 0; i < txs.size(); ++i) order.push_back((i * 7) % 20);
  for (const size_t i : order) {
    ASSERT_TRUE(pool_.Submit(txs[i], /*arrival=*/40).ok());
  }
  EXPECT_EQ(pool_.size(), txs.size());
  EXPECT_TRUE(pool_.CandidatePointersAt(39, {}).empty());
  auto candidates = pool_.CandidatePointersAt(40, {});
  ASSERT_EQ(candidates.size(), txs.size());
  for (size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(candidates[k]->Id(), txs[order[k]].Id()) << "position " << k;
  }
}

TEST_F(MempoolTest, DuplicateSubmitKeepsOriginalArrival) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, /*arrival=*/0).ok());
  // A re-gossiped copy arriving later neither replaces nor moves t1.
  EXPECT_FALSE(pool_.Submit(t1, /*arrival=*/10).ok());
  ASSERT_TRUE(pool_.Submit(t2, /*arrival=*/10).ok());
  EXPECT_EQ(pool_.size(), 2u);
  auto early = pool_.CandidatePointersAt(5, {});
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0]->Id(), t1.Id());
  auto all = pool_.CandidatePointersAt(100, {});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->Id(), t1.Id());
  EXPECT_EQ(all[1]->Id(), t2.Id());
}

TEST_F(MempoolTest, EarlierArrivalsSubmittedLateSortAhead) {
  // Two submissions whose arrival predates the pool tail take the
  // non-append insert; they land ahead of the tail and keep their own
  // submission order.
  Transaction late = MakeTransfer(1);
  ASSERT_TRUE(pool_.Submit(late, /*arrival=*/100).ok());
  Transaction e1 = MakeTransfer(2);
  Transaction e2 = MakeTransfer(3);
  ASSERT_TRUE(pool_.Submit(e1, /*arrival=*/50).ok());
  ASSERT_TRUE(pool_.Submit(e2, /*arrival=*/50).ok());
  auto candidates = pool_.CandidatePointersAt(200, {});
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0]->Id(), e1.Id());
  EXPECT_EQ(candidates[1]->Id(), e2.Id());
  EXPECT_EQ(candidates[2]->Id(), late.Id());
  EXPECT_EQ(pool_.CandidatePointersAt(60, {}).size(), 2u);
}

TEST_F(MempoolTest, PrunedTransactionCanBeSubmittedAgain) {
  // Prune unindexes the id with the entry, so a transaction dropped by a
  // canonical cleanup (and later orphaned by a reorg) can re-enter.
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, 0).ok());
  ASSERT_TRUE(pool_.Submit(t2, 0).ok());
  pool_.Prune(std::vector<crypto::Hash256>{t1.Id()});
  ASSERT_FALSE(pool_.Contains(t1.Id()));
  ASSERT_TRUE(pool_.Submit(t1, /*arrival=*/30).ok());
  EXPECT_TRUE(pool_.Contains(t1.Id()));
  EXPECT_FALSE(pool_.Submit(t1, /*arrival=*/40).ok());
  auto candidates = pool_.CandidatePointersAt(100, {});
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
  EXPECT_EQ(candidates[1]->Id(), t1.Id());
  EXPECT_EQ(pool_.CandidatePointersAt(20, {}).size(), 1u);
}

TEST_F(MempoolTest, PruneTakesUnsortedIdsWithUnknownsAndDuplicates) {
  std::vector<Transaction> batch;
  for (uint64_t i = 1; i <= 10; ++i) batch.push_back(MakeTransfer(i));
  for (const Transaction& tx : batch) ASSERT_TRUE(pool_.Submit(tx, 0).ok());
  const std::vector<crypto::Hash256> drop{
      batch[7].Id(), batch[1].Id(), crypto::Hash256::Of(Bytes{9, 9}),
      batch[4].Id(), batch[1].Id()};
  pool_.Prune(drop);
  EXPECT_EQ(pool_.size(), 7u);
  // Survivors keep their arrival order.
  auto candidates = pool_.CandidatePointersAt(100, {});
  ASSERT_EQ(candidates.size(), 7u);
  size_t k = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i == 1 || i == 4 || i == 7) continue;
    EXPECT_EQ(candidates[k++]->Id(), batch[i].Id()) << "position " << i;
  }
}

TEST_F(MempoolTest, PruneWithNothingKnownLeavesThePoolIntact) {
  // An empty id list, or one naming only ids the pool never held (a
  // canonical block of someone else's transactions), drops nothing: the
  // entries, their order and the duplicate index all survive.
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, 10).ok());
  ASSERT_TRUE(pool_.Submit(t2, 20).ok());
  pool_.Prune(std::vector<crypto::Hash256>{});
  pool_.Prune(std::vector<crypto::Hash256>{crypto::Hash256::Of(Bytes{1}),
                                           crypto::Hash256::Of(Bytes{2})});
  EXPECT_EQ(pool_.size(), 2u);
  EXPECT_TRUE(pool_.Contains(t1.Id()));
  EXPECT_TRUE(pool_.Contains(t2.Id()));
  EXPECT_FALSE(pool_.Submit(t1, 30).ok());
  auto candidates = pool_.CandidatePointersAt(100, {});
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0]->Id(), t1.Id());
  EXPECT_EQ(candidates[1]->Id(), t2.Id());
}

TEST_F(MempoolTest, FilterAndArrivalCutoffCombine) {
  // A miner's query applies both rules at once: a transaction must have
  // arrived by `now` and must not already be on the assembling branch.
  // The pointers address the pooled transactions themselves.
  std::vector<Transaction> batch;
  for (uint64_t i = 1; i <= 6; ++i) batch.push_back(MakeTransfer(i));
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(pool_.Submit(batch[i], static_cast<TimePoint>(10 * i)).ok());
  }
  // Visible at 35: batch[0..3]; batch[1] and batch[5] are on the branch.
  auto candidates = pool_.CandidatePointersAt(
      35, [&](const crypto::Hash256& id) {
        return id == batch[1].Id() || id == batch[5].Id();
      });
  ASSERT_EQ(candidates.size(), 3u);
  const size_t expected[] = {0, 2, 3};
  for (size_t k = 0; k < candidates.size(); ++k) {
    EXPECT_EQ(candidates[k]->Encode(), batch[expected[k]].Encode())
        << "position " << k;
  }
  // Filtering everything leaves nothing, whatever is visible.
  EXPECT_TRUE(
      pool_.CandidatePointersAt(100, [](const crypto::Hash256&) { return true; })
          .empty());
}

}  // namespace
}  // namespace ac3::chain

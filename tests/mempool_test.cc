// Mempool tests: FIFO candidate ordering, arrival-time visibility (a
// transaction gossiped at t is not minable before t), pruning, and the
// interaction with block capacity via CandidatesAt.

#include "src/chain/mempool.h"

#include <span>

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
  std::set<crypto::Hash256> none_;
};

TEST_F(MempoolTest, CandidatesComeOutInArrivalOrder) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  Transaction t3 = MakeTransfer(3);
  ASSERT_TRUE(pool_.Submit(t2, /*arrival=*/10).ok());
  ASSERT_TRUE(pool_.Submit(t1, /*arrival=*/20).ok());
  ASSERT_TRUE(pool_.Submit(t3, /*arrival=*/30).ok());
  auto candidates = pool_.CandidatesAt(/*now=*/100, none_);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].Id(), t2.Id());
  EXPECT_EQ(candidates[1].Id(), t1.Id());
  EXPECT_EQ(candidates[2].Id(), t3.Id());
}

TEST_F(MempoolTest, FutureArrivalsAreInvisible) {
  Transaction tx = MakeTransfer(1);
  ASSERT_TRUE(pool_.Submit(tx, /*arrival=*/500).ok());
  EXPECT_TRUE(pool_.CandidatesAt(/*now=*/499, none_).empty());
  EXPECT_EQ(pool_.CandidatesAt(/*now=*/500, none_).size(), 1u);
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
  std::set<crypto::Hash256> included{t1.Id()};
  auto candidates = pool_.CandidatesAt(100, included);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].Id(), t2.Id());
}

TEST_F(MempoolTest, PruneDropsEntriesPermanently) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, 0).ok());
  ASSERT_TRUE(pool_.Submit(t2, 0).ok());
  pool_.Prune({t1.Id()});
  EXPECT_EQ(pool_.size(), 1u);
  EXPECT_FALSE(pool_.Contains(t1.Id()));
  EXPECT_TRUE(pool_.Contains(t2.Id()));
  auto candidates = pool_.CandidatesAt(100, none_);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].Id(), t2.Id());
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
  auto candidates = pool_.CandidatesAt(100, none_);
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
    EXPECT_EQ(block->txs[i + 1].Id(), candidates[i].Id()) << "position " << i;
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
  EXPECT_TRUE(pool_.CandidatesAt(39, none_).empty());
  auto candidates = pool_.CandidatesAt(40, none_);
  ASSERT_EQ(candidates.size(), txs.size());
  for (size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(candidates[k].Id(), txs[order[k]].Id()) << "position " << k;
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
  auto early = pool_.CandidatesAt(5, none_);
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].Id(), t1.Id());
  auto all = pool_.CandidatesAt(100, none_);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].Id(), t1.Id());
  EXPECT_EQ(all[1].Id(), t2.Id());
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
  auto candidates = pool_.CandidatesAt(200, none_);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].Id(), e1.Id());
  EXPECT_EQ(candidates[1].Id(), e2.Id());
  EXPECT_EQ(candidates[2].Id(), late.Id());
  EXPECT_EQ(pool_.CandidatesAt(60, none_).size(), 2u);
}

TEST_F(MempoolTest, PrunedTransactionCanBeSubmittedAgain) {
  // Prune unindexes the id with the entry, so a transaction dropped by a
  // canonical cleanup (and later orphaned by a reorg) can re-enter.
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, 0).ok());
  ASSERT_TRUE(pool_.Submit(t2, 0).ok());
  pool_.Prune({t1.Id()});
  ASSERT_FALSE(pool_.Contains(t1.Id()));
  ASSERT_TRUE(pool_.Submit(t1, /*arrival=*/30).ok());
  EXPECT_TRUE(pool_.Contains(t1.Id()));
  EXPECT_FALSE(pool_.Submit(t1, /*arrival=*/40).ok());
  auto candidates = pool_.CandidatesAt(100, none_);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].Id(), t2.Id());
  EXPECT_EQ(candidates[1].Id(), t1.Id());
  EXPECT_EQ(pool_.CandidatesAt(20, none_).size(), 1u);
}

TEST_F(MempoolTest, CandidatePointersMatchValueCandidates) {
  std::vector<Transaction> batch;
  for (uint64_t i = 1; i <= 8; ++i) batch.push_back(MakeTransfer(i));
  for (const Transaction& tx : batch) ASSERT_TRUE(pool_.Submit(tx, 5).ok());
  std::set<crypto::Hash256> included{batch[2].Id(), batch[6].Id()};
  auto values = pool_.CandidatesAt(100, included);
  auto pointers = pool_.CandidatePointersAt(
      100, [&](const crypto::Hash256& id) { return included.count(id) > 0; });
  ASSERT_EQ(pointers.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(pointers[i]->Id(), values[i].Id());
  }
}

TEST_F(MempoolTest, PruneSpanMatchesSetPrune) {
  std::vector<Transaction> batch;
  for (uint64_t i = 1; i <= 10; ++i) batch.push_back(MakeTransfer(i));
  Mempool set_pool;
  Mempool span_pool;
  for (const Transaction& tx : batch) {
    ASSERT_TRUE(set_pool.Submit(tx, 0).ok());
    ASSERT_TRUE(span_pool.Submit(tx, 0).ok());
  }
  // Unsorted, with an unknown id mixed in.
  std::vector<crypto::Hash256> drop{batch[7].Id(), batch[1].Id(),
                                    crypto::Hash256::Of(Bytes{9, 9}),
                                    batch[4].Id()};
  set_pool.Prune(std::set<crypto::Hash256>(drop.begin(), drop.end()));
  span_pool.Prune(std::span<const crypto::Hash256>(drop));
  EXPECT_EQ(span_pool.size(), set_pool.size());
  auto expected = set_pool.CandidatesAt(100, none_);
  auto actual = span_pool.CandidatesAt(100, none_);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].Id(), expected[i].Id());
  }
}

}  // namespace
}  // namespace ac3::chain

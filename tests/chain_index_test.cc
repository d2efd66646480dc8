// ChainIndex on its own: Store/FindEntry/Contains/EntryCount/ForEachEntry,
// occurrence lists, FindTx and FindCall over hand-built entries, pointer
// stability across rehashing, and random stores against a plain model.
//
// ChainIndex behind a Blockchain:
//  * fork/reorg churn — after every round, each query the index answers
//    (FindTx, TxOnBranch, FindCall, ConfirmationsOf, OccurrencesOf) must
//    equal a head-to-genesis walk over `parent` links that scans the block
//    bodies directly;
//  * per-entry state snapshots stay independent of later churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/contracts/htlc_contract.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(61);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(62);
const crypto::KeyPair kMiner = crypto::KeyPair::FromSeed(63);

chain::ChainParams ChurnParams() {
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;
  return params;
}

// ------------------------------------------------------- the bare facade

crypto::Hash256 HashOf(uint64_t n) {
  return crypto::Hash256::OfString(std::to_string(n));
}

/// A hand-built entry at `height` whose block holds `txs` (ids only, at
/// their vector index) and `calls`.
chain::BlockEntry MakeEntry(const crypto::Hash256& hash, uint64_t height,
                            const std::vector<crypto::Hash256>& txs = {},
                            std::vector<chain::CallRecord> calls = {}) {
  chain::BlockEntry entry;
  entry.hash = hash;
  entry.block.header.height = height;
  for (uint32_t i = 0; i < txs.size(); ++i) entry.tx_index.emplace(txs[i], i);
  entry.calls = std::move(calls);
  return entry;
}

const auto kAnyBranch = [](const chain::BlockEntry&) { return true; };

TEST(ChainIndexTest, StoreFindContains) {
  chain::ChainIndex index;
  EXPECT_EQ(index.EntryCount(), 0u);
  EXPECT_FALSE(index.Contains(HashOf(1)));
  EXPECT_EQ(index.FindEntry(HashOf(1)), nullptr);

  chain::BlockEntry* stored = index.Store(HashOf(1), MakeEntry(HashOf(1), 7));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->hash, HashOf(1));
  EXPECT_EQ(stored->height(), 7u);
  EXPECT_EQ(index.EntryCount(), 1u);
  EXPECT_TRUE(index.Contains(HashOf(1)));
  EXPECT_FALSE(index.Contains(HashOf(2)));
  EXPECT_EQ(index.FindEntry(HashOf(1)), stored);
  EXPECT_EQ(index.FindEntry(HashOf(2)), nullptr);
}

TEST(ChainIndexTest, OccurrencesAccumulateAcrossForkSiblings) {
  chain::ChainIndex index;
  const crypto::Hash256 tx = HashOf(100);
  EXPECT_TRUE(index.OccurrencesOf(tx).empty());
  // The same transaction in two sibling blocks, at different indexes.
  const chain::BlockEntry* a =
      index.Store(HashOf(1), MakeEntry(HashOf(1), 1, {HashOf(101), tx}));
  const chain::BlockEntry* b =
      index.Store(HashOf(2), MakeEntry(HashOf(2), 1, {tx}));
  const auto occurrences = index.OccurrencesOf(tx);
  ASSERT_EQ(occurrences.size(), 2u);
  EXPECT_EQ(occurrences[0].entry, a);
  EXPECT_EQ(occurrences[0].index, 1u);
  EXPECT_EQ(occurrences[1].entry, b);
  EXPECT_EQ(occurrences[1].index, 0u);
  ASSERT_EQ(index.OccurrencesOf(HashOf(101)).size(), 1u);
  EXPECT_EQ(index.OccurrencesOf(HashOf(101))[0].entry, a);
  EXPECT_TRUE(index.OccurrencesOf(HashOf(102)).empty());
}

TEST(ChainIndexTest, StoredPointersSurviveRehash) {
  chain::ChainIndex index;
  std::vector<const chain::BlockEntry*> entries;
  for (uint64_t n = 0; n < 100; ++n) {
    entries.push_back(
        index.Store(HashOf(n), MakeEntry(HashOf(n), n, {HashOf(n + 1000000)})));
  }
  // Thousands more stores force many bucket-table rehashes in all three
  // maps.
  for (uint64_t n = 100; n < 5100; ++n) {
    index.Store(HashOf(n), MakeEntry(HashOf(n), n, {HashOf(n + 1000000)}));
  }
  ASSERT_EQ(index.EntryCount(), 5100u);
  for (uint64_t n = 0; n < 100; ++n) {
    EXPECT_EQ(index.FindEntry(HashOf(n)), entries[n]);
    EXPECT_EQ(entries[n]->height(), n);
    const auto occurrences = index.OccurrencesOf(HashOf(n + 1000000));
    ASSERT_EQ(occurrences.size(), 1u);
    EXPECT_EQ(occurrences[0].entry, entries[n]);
  }
}

TEST(ChainIndexTest, ForEachEntryVisitsEveryStoredEntryOnce) {
  chain::ChainIndex index;
  for (uint64_t n = 0; n < 300; ++n) {
    index.Store(HashOf(n), MakeEntry(HashOf(n), n));
  }
  std::map<uint64_t, int> visits;
  index.ForEachEntry(
      [&](const crypto::Hash256& hash, const chain::BlockEntry& entry) {
        EXPECT_EQ(entry.hash, hash);
        EXPECT_EQ(index.FindEntry(hash), &entry);
        ++visits[entry.height()];
      });
  ASSERT_EQ(visits.size(), 300u);
  for (const auto& [height, count] : visits) EXPECT_EQ(count, 1) << height;
}

TEST(ChainIndexTest, FindTxReturnsTheOnBranchOccurrence) {
  chain::ChainIndex index;
  const crypto::Hash256 tx = HashOf(100);
  const chain::BlockEntry* a =
      index.Store(HashOf(1), MakeEntry(HashOf(1), 1, {tx}));
  const chain::BlockEntry* b =
      index.Store(HashOf(2), MakeEntry(HashOf(2), 1, {HashOf(101), tx}));
  auto only = [](const chain::BlockEntry* wanted) {
    return [wanted](const chain::BlockEntry& e) { return &e == wanted; };
  };
  auto on_a = index.FindTx(tx, only(a));
  ASSERT_TRUE(on_a.has_value());
  EXPECT_EQ(on_a->entry, a);
  EXPECT_EQ(on_a->index, 0u);
  auto on_b = index.FindTx(tx, only(b));
  ASSERT_TRUE(on_b.has_value());
  EXPECT_EQ(on_b->entry, b);
  EXPECT_EQ(on_b->index, 1u);
  EXPECT_FALSE(index.FindTx(tx, only(nullptr)).has_value());
  EXPECT_FALSE(index.FindTx(HashOf(102), kAnyBranch).has_value());
}

TEST(ChainIndexTest, FindCallPicksTheNewestOnBranchCall) {
  chain::ChainIndex index;
  const crypto::Hash256 contract = HashOf(500);
  const crypto::Hash256 other = HashOf(501);
  auto call = [](const crypto::Hash256& id, const std::string& function,
                 uint32_t tx_index) {
    return chain::CallRecord{id, function, tx_index, /*success=*/true};
  };
  const chain::BlockEntry* low = index.Store(
      HashOf(1), MakeEntry(HashOf(1), 3, {}, {call(contract, "redeem", 2)}));
  // Two matching calls in one block: the first in block order wins; a
  // call on another contract and another function are ignored.
  const chain::BlockEntry* mid = index.Store(
      HashOf(2), MakeEntry(HashOf(2), 5, {},
                           {call(other, "redeem", 0),
                            call(contract, "refund", 1),
                            call(contract, "redeem", 2),
                            call(contract, "redeem", 4)}));
  // The newest call sits on a fork the branch predicate excludes.
  const chain::BlockEntry* fork = index.Store(
      HashOf(3), MakeEntry(HashOf(3), 9, {}, {call(contract, "redeem", 0)}));

  auto off_fork = [fork](const chain::BlockEntry& e) { return &e != fork; };
  auto found = index.FindCall(contract, "redeem", false, off_fork);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->entry, mid);
  EXPECT_EQ(found->index, 2u);

  found = index.FindCall(contract, "redeem", false, kAnyBranch);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->entry, fork);

  auto only_low = [low](const chain::BlockEntry& e) { return &e == low; };
  found = index.FindCall(contract, "redeem", false, only_low);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->entry, low);
  EXPECT_EQ(found->index, 2u);

  found = index.FindCall(contract, "refund", false, kAnyBranch);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->entry, mid);
  EXPECT_EQ(found->index, 1u);

  EXPECT_FALSE(
      index.FindCall(contract, "claim", false, kAnyBranch).has_value());
  EXPECT_FALSE(
      index.FindCall(HashOf(502), "redeem", false, kAnyBranch).has_value());
}

TEST(ChainIndexTest, FindCallRequireSuccessSkipsRevertedCalls) {
  chain::ChainIndex index;
  const crypto::Hash256 contract = HashOf(500);
  const chain::BlockEntry* ok = index.Store(
      HashOf(1),
      MakeEntry(HashOf(1), 2, {}, {{contract, "redeem", 0, /*success=*/true}}));
  // Newer block: a reverted call before a successful one in block order.
  const chain::BlockEntry* mixed = index.Store(
      HashOf(2), MakeEntry(HashOf(2), 4, {},
                           {{contract, "redeem", 1, /*success=*/false},
                            {contract, "redeem", 3, /*success=*/true}}));
  // Newest block: only a reverted call.
  const chain::BlockEntry* reverted = index.Store(
      HashOf(3), MakeEntry(HashOf(3), 6, {},
                           {{contract, "redeem", 0, /*success=*/false}}));

  auto any = index.FindCall(contract, "redeem", false, kAnyBranch);
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->entry, reverted);
  auto succeeded = index.FindCall(contract, "redeem", true, kAnyBranch);
  ASSERT_TRUE(succeeded.has_value());
  EXPECT_EQ(succeeded->entry, mixed);
  EXPECT_EQ(succeeded->index, 3u);
  auto below_mixed = [ok](const chain::BlockEntry& e) { return &e == ok; };
  succeeded = index.FindCall(contract, "redeem", true, below_mixed);
  ASSERT_TRUE(succeeded.has_value());
  EXPECT_EQ(succeeded->entry, ok);
  auto only_reverted = [reverted](const chain::BlockEntry& e) {
    return &e == reverted;
  };
  EXPECT_FALSE(
      index.FindCall(contract, "redeem", true, only_reverted).has_value());
}

TEST(ChainIndexTest, RandomStoresMatchAPlainModel) {
  chain::ChainIndex index;
  // The model: stored entries in store order; an occurrence list is every
  // stored entry holding the id, in store order.
  std::vector<const chain::BlockEntry*> stored;
  Rng rng(4242);
  constexpr uint64_t kTxPool = 64;
  for (uint64_t n = 0; n < 400; ++n) {
    std::vector<crypto::Hash256> txs;
    const uint64_t count = rng.NextBelow(4);
    for (uint64_t i = 0; i < count; ++i) {
      const crypto::Hash256 tx = HashOf(1000 + rng.NextBelow(kTxPool));
      if (std::find(txs.begin(), txs.end(), tx) == txs.end()) {
        txs.push_back(tx);
      }
    }
    stored.push_back(index.Store(HashOf(n), MakeEntry(HashOf(n), n, txs)));
    ASSERT_EQ(index.EntryCount(), stored.size());
  }
  for (uint64_t n = 0; n < 450; ++n) {
    EXPECT_EQ(index.Contains(HashOf(n)), n < 400);
  }
  for (uint64_t t = 0; t < kTxPool; ++t) {
    const crypto::Hash256 tx = HashOf(1000 + t);
    std::vector<chain::TxLocation> want;
    for (const chain::BlockEntry* entry : stored) {
      auto it = entry->tx_index.find(tx);
      if (it != entry->tx_index.end()) {
        want.push_back(chain::TxLocation{entry, it->second});
      }
    }
    const auto got = index.OccurrencesOf(tx);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].entry, want[i].entry);
      EXPECT_EQ(got[i].index, want[i].index);
    }
    // A random branch predicate: FindTx is the first on-branch occurrence.
    const uint64_t parity = rng.NextBelow(3);
    auto on_branch = [parity](const chain::BlockEntry& e) {
      return e.height() % 3 == parity;
    };
    std::optional<chain::TxLocation> first;
    for (const chain::TxLocation& location : want) {
      if (on_branch(*location.entry)) {
        first = location;
        break;
      }
    }
    const auto found = index.FindTx(tx, on_branch);
    ASSERT_EQ(found.has_value(), first.has_value());
    if (found.has_value()) {
      EXPECT_EQ(found->entry, first->entry);
      EXPECT_EQ(found->index, first->index);
    }
  }
}

// ------------------------------------------------- behind a Blockchain

// The in-test oracle: the branch ending at `tip`, recomputed by walking
// `parent` links down to genesis and hashing every transaction in every
// block body. No index is consulted.
struct BranchWalk {
  /// Transaction id -> its location on the branch (at most one per branch).
  std::unordered_map<crypto::Hash256, chain::TxLocation> txs;
  /// Block hash -> blocks mined on top of it, up to `tip`.
  std::unordered_map<crypto::Hash256, uint64_t> confirmations;

  explicit BranchWalk(const chain::BlockEntry& tip) {
    for (const chain::BlockEntry* entry = &tip; entry != nullptr;
         entry = entry->parent) {
      confirmations.emplace(entry->hash, tip.height() - entry->height());
      for (uint32_t i = 0; i < entry->block.txs.size(); ++i) {
        EXPECT_TRUE(txs.emplace(entry->block.txs[i].Id(),
                                chain::TxLocation{entry, i})
                        .second)
            << "a transaction occurs twice on one branch";
      }
    }
  }
};

/// The newest call of `function` on `contract_id` on the branch ending at
/// `tip` (first in block order within the newest block that has one).
std::optional<chain::TxLocation> WalkFindCall(
    const chain::BlockEntry& tip, const crypto::Hash256& contract_id,
    const std::string& function, bool require_success) {
  for (const chain::BlockEntry* entry = &tip; entry != nullptr;
       entry = entry->parent) {
    for (uint32_t i = 0; i < entry->block.txs.size(); ++i) {
      const chain::Transaction& tx = entry->block.txs[i];
      if (tx.type == chain::TxType::kCall && tx.contract_id == contract_id &&
          tx.function == function &&
          (!require_success || entry->block.receipts[i].success)) {
        return chain::TxLocation{entry, i};
      }
    }
  }
  return std::nullopt;
}

void ExpectSameLocation(const std::optional<chain::TxLocation>& got,
                        const std::optional<chain::TxLocation>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got.has_value()) return;
  EXPECT_EQ(got->entry, want->entry);
  EXPECT_EQ(got->index, want->index);
}

/// Every facade query on `bc` against the walk from its head. TxOnBranch
/// is also checked from every stored tip when `all_tips` is set.
void ExpectIndexMatchesWalk(const chain::Blockchain& bc,
                            const std::vector<crypto::Hash256>& tx_ids,
                            const crypto::Hash256& contract_id,
                            bool all_tips) {
  const BranchWalk canonical(*bc.head());
  for (const crypto::Hash256& tx_id : tx_ids) {
    auto it = canonical.txs.find(tx_id);
    ExpectSameLocation(bc.FindTx(tx_id),
                       it == canonical.txs.end()
                           ? std::nullopt
                           : std::optional<chain::TxLocation>(it->second));
    EXPECT_EQ(bc.TxOnBranch(*bc.head(), tx_id), it != canonical.txs.end());
  }
  for (bool require_success : {false, true}) {
    ExpectSameLocation(
        bc.FindCall(contract_id, contracts::kRedeemFunction, require_success),
        WalkFindCall(*bc.head(), contract_id, contracts::kRedeemFunction,
                     require_success));
  }

  // Entry by entry: the store holds exactly the arrived blocks, each with
  // the walk's canonical status, and every occurrence list has one element
  // per stored block body that contains the transaction.
  std::unordered_map<crypto::Hash256, size_t> bodies_containing;
  size_t visited = 0;
  bc.ForEachEntry([&](const crypto::Hash256& hash,
                      const chain::BlockEntry& entry) {
    ++visited;
    EXPECT_EQ(bc.Get(hash), &entry);
    EXPECT_EQ(entry.hash, hash);
    auto it = canonical.confirmations.find(hash);
    EXPECT_EQ(bc.ConfirmationsOf(hash),
              it == canonical.confirmations.end()
                  ? std::nullopt
                  : std::optional<uint64_t>(it->second));
    for (const chain::Transaction& tx : entry.block.txs) {
      ++bodies_containing[tx.Id()];
    }
    if (all_tips) {
      const BranchWalk branch(entry);
      for (const crypto::Hash256& tx_id : tx_ids) {
        EXPECT_EQ(bc.TxOnBranch(entry, tx_id), branch.txs.contains(tx_id));
      }
    }
  });
  EXPECT_EQ(visited, bc.block_count());
  EXPECT_EQ(visited, bc.arrival_order().size());
  for (const crypto::Hash256& tx_id : tx_ids) {
    EXPECT_EQ(bc.index().OccurrencesOf(tx_id).size(),
              bodies_containing[tx_id]);
  }
  EXPECT_TRUE(bc.index().OccurrencesOf(crypto::Hash256()).empty());
}

TEST(ChainIndexTest, ForkReorgChurnMatchesHeadToGenesisWalk) {
  contracts::RegisterBuiltinContracts();
  const chain::ChainParams params = ChurnParams();
  chain::Blockchain bc(
      params, testutil::Fund({kAlice.public_key(), kBob.public_key()}, 100000));

  Rng rng(777);
  TimePoint now = 0;
  std::vector<crypto::Hash256> tx_ids;
  crypto::Hash256 mined;  // The block mine_on stored last.
  auto mine_on = [&](const crypto::Hash256& parent,
                     const std::vector<chain::Transaction>& txs) {
    now += 100;
    auto block = bc.AssembleBlock(parent, txs, kMiner.public_key(), now, &rng);
    ASSERT_TRUE(block.ok());
    ASSERT_EQ(block->txs.size(), 1 + txs.size());
    ASSERT_TRUE(bc.SubmitBlock(*block, now).ok());
    mined = block->header.Hash();
    for (const chain::Transaction& tx : block->txs) tx_ids.push_back(tx.Id());
  };

  chain::Wallet alice(kAlice, params.id);
  chain::Wallet bob(kBob, params.id);

  // An HTLC deploy, then redeem calls that revert (wrong secret), succeed,
  // and revert again (already redeemed), so FindCall with and without
  // `require_success` has distinct answers to find.
  const Bytes secret{4, 8, 15, 16, 23, 42};
  auto deploy = alice.BuildDeploy(
      bc.StateAtHead(), contracts::kHtlcKind,
      contracts::HtlcContract::MakeInitPayload(
          kBob.public_key(), crypto::Hash256::Of(secret), Minutes(60)),
      500, params.deploy_fee, /*nonce=*/1);
  ASSERT_TRUE(deploy.ok());
  const crypto::Hash256 contract_id = deploy->Id();
  mine_on(bc.head()->hash, {*deploy});
  uint64_t bob_nonce = 1;
  for (const Bytes& args : {Bytes{1, 2, 3}, secret, secret}) {
    auto redeem = bob.BuildCall(bc.StateAtHead(), contract_id,
                                contracts::kRedeemFunction, args, 1,
                                bob_nonce++);
    ASSERT_TRUE(redeem.ok());
    mine_on(bc.head()->hash, {*redeem});
  }
  ASSERT_FALSE(bc.head()->block.receipts[1].success);
  ASSERT_TRUE(bc.head()->parent->block.receipts[1].success);
  ExpectIndexMatchesWalk(bc, tx_ids, contract_id, /*all_tips=*/false);

  // Randomized churn: transfers on the head (half of them also mined into
  // a sibling of the head's new block, so one transaction has occurrences
  // on two forks), plus runs of 1-3 empty fork blocks on random recent
  // parents (runs that outgrow the head's branch are reorgs).
  uint64_t nonce = 2;
  size_t reorgs = 0;
  for (int round = 0; round < 40; ++round) {
    const chain::BlockEntry* head_before = bc.head();
    if (rng.NextU64() % 3 == 0) {
      // Each transfer is mined at once; a reorg may have dropped the last
      // one, so spend from the head's UTXOs, not the wallet's reservations.
      alice.ClearReservations();
      auto tx = alice.BuildTransfer(bc.StateAtHead(), kBob.public_key(),
                                    1 + rng.NextU64() % 5, 1, nonce++);
      ASSERT_TRUE(tx.ok());
      mine_on(head_before->hash, {*tx});
      if (rng.NextU64() % 2 == 0) mine_on(head_before->hash, {*tx});
    } else {
      const auto& arrivals = bc.arrival_order();
      const size_t window = std::min<size_t>(arrivals.size(), 6);
      mined = arrivals[arrivals.size() - 1 - rng.NextU64() % window]->hash;
      for (uint64_t run = 1 + rng.NextU64() % 3; run > 0; --run) {
        mine_on(mined, {});
      }
    }
    if (!bc.IsCanonical(head_before->hash)) ++reorgs;
    ExpectIndexMatchesWalk(bc, tx_ids, contract_id, /*all_tips=*/false);
    if (HasFailure()) return;
  }
  ASSERT_GT(bc.block_count(), 40u);
  EXPECT_GT(reorgs, 0u) << "the churn never moved the head across forks";
  size_t off_branch = 0;
  size_t on_two_forks = 0;
  for (const crypto::Hash256& tx_id : tx_ids) {
    if (!bc.FindTx(tx_id).has_value()) ++off_branch;
    if (bc.index().OccurrencesOf(tx_id).size() > 1) ++on_two_forks;
  }
  EXPECT_GT(off_branch, 0u) << "no transaction was left on a losing fork";
  EXPECT_GT(on_two_forks, 0u) << "no transaction occurs on two forks";
  ExpectIndexMatchesWalk(bc, tx_ids, contract_id, /*all_tips=*/true);
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

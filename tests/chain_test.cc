// Unit tests for the blockchain substrate: transactions, blocks, PoW,
// ledger execution, fork choice, canonical queries, mempool, wallet, and
// the Poisson mining network.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/mining.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace ac3::chain {
namespace {

// Disambiguates the vector/span AssembleBlock overloads at empty-candidate
// call sites ({} binds to both).
const std::vector<Transaction> kNoCandidates;

using testutil::ExpectDecoderSurvivesMutation;
using testutil::Fund;
using testutil::TestChain;

ChainParams FastParams(ChainId id = 0) {
  ChainParams p = TestChainParams();
  p.id = id;
  return p;
}

crypto::KeyPair Alice() { return crypto::KeyPair::FromSeed(1001); }
crypto::KeyPair Bob() { return crypto::KeyPair::FromSeed(1002); }

// ------------------------------------------------------------ transactions

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 3;
  tx.inputs.push_back(OutPoint{crypto::Hash256::OfString("prev"), 1});
  tx.outputs.push_back(TxOutput{25, Alice().public_key()});
  tx.fee = 2;
  tx.nonce = 99;
  tx.SignWith(Bob());

  auto decoded = Transaction::Decode(tx.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Id(), tx.Id());
  EXPECT_EQ(decoded->outputs[0].value, 25u);
  EXPECT_TRUE(decoded->VerifySignature());
}

TEST(TransactionTest, SignatureCoversContent) {
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.outputs.push_back(TxOutput{10, Alice().public_key()});
  tx.SignWith(Bob());
  EXPECT_TRUE(tx.VerifySignature());
  tx.outputs[0].value = 11;  // Tamper.
  EXPECT_FALSE(tx.VerifySignature());
}

TEST(TransactionTest, NonceChangesId) {
  Transaction a, b;
  a.type = b.type = TxType::kTransfer;
  a.nonce = 1;
  b.nonce = 2;
  a.SignWith(Alice());
  b.SignWith(Alice());
  EXPECT_NE(a.Id(), b.Id());
}

// ------------------------------------------------------------------ blocks

TEST(BlockTest, HeaderRoundTrip) {
  BlockHeader h;
  h.chain_id = 2;
  h.height = 5;
  h.prev_hash = crypto::Hash256::OfString("parent");
  h.tx_root = crypto::Hash256::OfString("txroot");
  h.receipt_root = crypto::Hash256::OfString("rcroot");
  h.time = 1234;
  h.difficulty_bits = 8;
  h.nonce = 42;

  Bytes encoded = h.Encode();
  ByteReader r(encoded);
  auto decoded = BlockHeader::Decode(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, h);
  EXPECT_EQ(decoded->Hash(), h.Hash());
}

// ------------------------------------------------- untrusted-bytes decoders

TEST(DecoderMutationTest, Transaction) {
  Transaction tx;
  tx.type = TxType::kCall;
  tx.chain_id = 7;
  tx.inputs.push_back(OutPoint{crypto::Hash256::OfString("in0"), 0});
  tx.inputs.push_back(OutPoint{crypto::Hash256::OfString("in1"), 3});
  tx.outputs.push_back(TxOutput{25, Alice().public_key()});
  tx.outputs.push_back(TxOutput{9, Bob().public_key()});
  tx.fee = 2;
  tx.nonce = 99;
  tx.contract_kind = "htlc";
  tx.contract_id = crypto::Hash256::OfString("contract");
  tx.function = "redeem";
  tx.payload = Bytes{4, 8, 15, 16, 23, 42};
  tx.contract_value = 500;
  tx.SignWith(Bob());
  ExpectDecoderSurvivesMutation("Transaction", tx.Encode(),
                                &Transaction::Decode, 0x7a11);
  Bytes trailing = tx.Encode();
  trailing.push_back(0);
  EXPECT_FALSE(Transaction::Decode(trailing).ok());
}

TEST(DecoderMutationTest, Receipt) {
  Receipt receipt;
  receipt.tx_id = crypto::Hash256::OfString("tx");
  receipt.success = false;
  receipt.contract_id = crypto::Hash256::OfString("contract");
  receipt.state_digest = Bytes{1, 2, 3, 4, 5};
  receipt.note = "reverted: IsRedeemable rejected the secret";
  ExpectDecoderSurvivesMutation("Receipt", receipt.Encode(), &Receipt::Decode,
                                0x4ec1);
  Bytes trailing = receipt.Encode();
  trailing.push_back(0);
  EXPECT_FALSE(Receipt::Decode(trailing).ok());
  Bytes flag = receipt.Encode();
  flag[crypto::Hash256::kSize] = 2;  // The success byte follows tx_id.
  EXPECT_FALSE(Receipt::Decode(flag).ok());
}

TEST(DecoderMutationTest, BlockHeader) {
  BlockHeader h;
  h.chain_id = 2;
  h.height = 5;
  h.prev_hash = crypto::Hash256::OfString("parent");
  h.tx_root = crypto::Hash256::OfString("txroot");
  h.receipt_root = crypto::Hash256::OfString("rcroot");
  h.time = 1234;
  h.difficulty_bits = 8;
  h.nonce = 42;
  ExpectDecoderSurvivesMutation(
      "BlockHeader", h.Encode(),
      [](const Bytes& bytes) {
        ByteReader reader(bytes);
        return BlockHeader::Decode(&reader);
      },
      0xb10c);
}

TEST(PowTest, DifficultyZeroAlwaysPasses) {
  EXPECT_TRUE(HashMeetsDifficulty(crypto::Hash256::OfString("x"), 0));
}

// A digest with exactly `zeros` leading zero bits (all zero at 256).
crypto::Hash256 DigestWithLeadingZeros(uint32_t zeros) {
  std::array<uint8_t, crypto::Hash256::kSize> bytes;
  bytes.fill(0xa5);
  for (uint32_t bit = 0; bit <= zeros && bit < 256; ++bit) {
    const uint8_t mask = static_cast<uint8_t>(0x80u >> (bit % 8));
    if (bit < zeros) {
      bytes[bit / 8] &= static_cast<uint8_t>(~mask);
    } else {
      bytes[bit / 8] |= mask;
    }
  }
  return crypto::Hash256(bytes);
}

// Difficulty is a decoded u32 on the evidence and light-client paths, so
// every value must give a defined answer: exact at the 64-bit prefix
// boundary, counted over the whole digest beyond it, and never met above
// 256 bits.
TEST(PowTest, DifficultyCountsLeadingZerosOverWholeDigest) {
  for (uint32_t zeros : {0u, 1u, 63u, 64u, 65u, 128u, 255u}) {
    const crypto::Hash256 hash = DigestWithLeadingZeros(zeros);
    EXPECT_TRUE(HashMeetsDifficulty(hash, zeros)) << zeros;
    EXPECT_FALSE(HashMeetsDifficulty(hash, zeros + 1)) << zeros;
    EXPECT_TRUE(HashMeetsDifficulty(hash, 0)) << zeros;
    EXPECT_FALSE(HashMeetsDifficulty(hash, 256)) << zeros;
    EXPECT_FALSE(HashMeetsDifficulty(hash, UINT32_MAX)) << zeros;
  }
  const crypto::Hash256 zero;
  for (uint32_t bits : {0u, 1u, 63u, 64u, 65u, 128u, 256u}) {
    EXPECT_TRUE(HashMeetsDifficulty(zero, bits)) << bits;
  }
  EXPECT_FALSE(HashMeetsDifficulty(zero, 257));
  EXPECT_FALSE(HashMeetsDifficulty(zero, UINT32_MAX));
}

TEST(PowTest, MineHeaderSatisfiesTarget) {
  Rng rng(5);
  BlockHeader h;
  h.difficulty_bits = 12;
  uint64_t evals = MineHeader(&h, &rng);
  EXPECT_GE(evals, 1u);
  EXPECT_TRUE(CheckProofOfWork(h));
}

TEST(PowTest, TamperedNonceFails) {
  Rng rng(5);
  BlockHeader h;
  h.difficulty_bits = 14;
  MineHeader(&h, &rng);
  ASSERT_TRUE(CheckProofOfWork(h));
  h.nonce ^= 0xdeadbeef;
  // Overwhelmingly likely to fail the 14-bit target.
  EXPECT_FALSE(CheckProofOfWork(h));
}

TEST(PowTest, WorkGrowsExponentially) {
  EXPECT_DOUBLE_EQ(WorkForDifficulty(10) * 2, WorkForDifficulty(11));
}

// ------------------------------------------------------------------ ledger

TEST(LedgerTest, GenesisFundsAllocations) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Alice().public_key()), 500u);
  EXPECT_EQ(tc.chain().StateAtHead().TotalValue(), 500u);
}

TEST(LedgerTest, TransferMovesValue) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 120, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  const LedgerState& state = tc.chain().StateAtHead();
  EXPECT_EQ(state.BalanceOf(Bob().public_key()), 120u);
  // 500 - 120 - 1 fee = 379 change.
  EXPECT_EQ(state.BalanceOf(Alice().public_key()), 379u);
}

TEST(LedgerTest, DoubleSpendRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());

  // Re-submitting the same transaction must not be re-included.
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 100u);
}

TEST(LedgerTest, ForeignInputsRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  // Bob tries to spend Alice's UTXO.
  Transaction theft;
  theft.type = TxType::kTransfer;
  theft.chain_id = 0;
  theft.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  theft.outputs.push_back(TxOutput{499, Bob().public_key()});
  theft.fee = 1;
  theft.SignWith(Bob());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  auto receipt = ApplyTransaction(&state, theft, env);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kVerificationFailed);
}

TEST(LedgerTest, DuplicateInputOutpointRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  // Listing the same 500-value outpoint twice must not let Alice claim
  // 1000 of outputs (value inflation).
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  const OutPoint funding{tc.chain().genesis_tx().Id(), 0};
  tx.inputs = {funding, funding};
  tx.outputs.push_back(TxOutput{999, Bob().public_key()});
  tx.fee = 1;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  auto receipt = ApplyTransaction(&state, tx, env);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(state.TotalValue(), 500u);
}

TEST(LedgerTest, ValueImbalanceRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  tx.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  tx.outputs.push_back(TxOutput{600, Bob().public_key()});  // Inflates value.
  tx.fee = 0;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  EXPECT_FALSE(ApplyTransaction(&state, tx, env).ok());
}

TEST(LedgerTest, MergeAndSplitSemantics) {
  // Figure 2: merge three inputs into one output, then split.
  std::vector<TxOutput> allocations(3, TxOutput{100, Alice().public_key()});
  TestChain tc(FastParams(), allocations);
  Wallet alice(Alice(), 0);
  // Merge: transfer 299 to Bob (consumes all three 100s, fee 1).
  auto merge = alice.BuildTransfer(tc.chain().StateAtHead(),
                                   Bob().public_key(), 299, 1, 1);
  ASSERT_TRUE(merge.ok());
  EXPECT_EQ(merge->inputs.size(), 3u);
  ASSERT_TRUE(tc.MineBlock({*merge}).ok());

  // Split: Bob sends 50 back, keeps change.
  Wallet bob(Bob(), 0);
  auto split = bob.BuildTransfer(tc.chain().StateAtHead(),
                                 Alice().public_key(), 50, 1, 2);
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(tc.MineBlock({*split}).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Alice().public_key()), 50u);
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 248u);
}

TEST(LedgerTest, TotalValueConservedPlusRewards) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 2, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  // Genesis 500 + one block reward. The fee leaves Alice and re-enters the
  // system inside the coinbase, so only the reward is net-new value.
  EXPECT_EQ(tc.chain().StateAtHead().TotalValue(),
            500u + tc.chain().params().block_reward);
}

// ------------------------------------------------------------- fork choice

TEST(BlockchainTest, RejectsUnknownParent) {
  TestChain tc(FastParams(), {});
  Block orphan;
  orphan.header.chain_id = 0;
  orphan.header.height = 5;
  orphan.header.prev_hash = crypto::Hash256::OfString("nowhere");
  EXPECT_EQ(tc.chain().SubmitBlock(orphan, 0).code(), StatusCode::kNotFound);
}

TEST(BlockchainTest, RejectsBadPow) {
  TestChain tc(FastParams(), {});
  Rng rng(3);
  auto block = tc.chain().AssembleBlock(tc.chain().head()->hash, kNoCandidates,
                                        Alice().public_key(), 50, &rng);
  ASSERT_TRUE(block.ok());
  Block bad = *block;
  // Find a nonce that fails the target.
  do {
    ++bad.header.nonce;
  } while (CheckProofOfWork(bad.header));
  EXPECT_EQ(tc.chain().SubmitBlock(bad, 50).code(),
            StatusCode::kVerificationFailed);
}

TEST(BlockchainTest, RejectsTamperedReceipts) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Rng rng(3);
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 10, 1, 1);
  ASSERT_TRUE(tx.ok());
  auto block = tc.chain().AssembleBlock(tc.chain().head()->hash, {*tx},
                                        Alice().public_key(), 50, &rng);
  ASSERT_TRUE(block.ok());
  Block bad = *block;
  bad.receipts[1].note = "forged";
  bad.header.receipt_root = bad.ComputeReceiptRoot();
  MineHeader(&bad.header, &rng);
  EXPECT_EQ(tc.chain().SubmitBlock(bad, 50).code(),
            StatusCode::kVerificationFailed);
}

TEST(BlockchainTest, ForkResolvesToHeavierBranch) {
  TestChain tc(FastParams(), {});
  Rng rng(17);
  const BlockEntry* root = tc.chain().head();

  // Two competing children.
  auto a1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, Alice().public_key(),
                                     100, &rng);
  auto b1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, Bob().public_key(),
                                     100, &rng);
  ASSERT_TRUE(a1.ok() && b1.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*a1, 100).ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*b1, 101).ok());
  // First seen (a1) wins the tie.
  EXPECT_EQ(tc.chain().head()->hash, a1->header.Hash());

  // Extend the b-branch: it becomes strictly heavier.
  auto b2 = tc.chain().AssembleBlock(b1->header.Hash(), kNoCandidates,
                                     Bob().public_key(), 200, &rng);
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*b2, 200).ok());
  EXPECT_EQ(tc.chain().head()->hash, b2->header.Hash());

  // The a-branch is no longer canonical.
  EXPECT_FALSE(tc.chain().IsCanonical(a1->header.Hash()));
  EXPECT_TRUE(tc.chain().IsCanonical(b1->header.Hash()));
}

TEST(BlockchainTest, ReorgRevertsState) {
  // A transfer included on a losing branch must not affect the winning
  // branch's state.
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Rng rng(19);
  const BlockEntry* root = tc.chain().head();

  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 50, 1, 1);
  ASSERT_TRUE(tx.ok());

  // Use a neutral miner key so coinbase rewards don't pollute balances.
  const crypto::PublicKey miner = crypto::KeyPair::FromSeed(9999).public_key();
  auto with_tx =
      tc.chain().AssembleBlock(root->hash, {*tx}, miner, 100, &rng);
  auto without1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, miner, 100, &rng);
  ASSERT_TRUE(with_tx.ok() && without1.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*with_tx, 100).ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*without1, 101).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 50u);

  auto without2 = tc.chain().AssembleBlock(without1->header.Hash(), kNoCandidates, miner,
                                           200, &rng);
  ASSERT_TRUE(without2.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*without2, 200).ok());
  // Reorged to the empty branch: Bob never got paid there.
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 0u);
}

TEST(BlockchainTest, ConfirmationsAndStableBlock) {
  TestChain tc(FastParams(), {});
  ASSERT_TRUE(tc.MineEmpty(10).ok());
  const BlockEntry* head = tc.chain().head();
  EXPECT_EQ(head->block.header.height, 10u);
  EXPECT_EQ(tc.chain().ConfirmationsOf(head->hash), 0u);
  EXPECT_EQ(tc.chain().ConfirmationsOf(tc.chain().genesis()->hash), 10u);

  const BlockEntry* stable = tc.chain().StableBlock(6);
  EXPECT_EQ(stable->block.header.height, 4u);
  // Clamped at genesis.
  EXPECT_EQ(tc.chain().StableBlock(100)->hash, tc.chain().genesis()->hash);
}

TEST(BlockchainTest, HeadersAfterReturnsOrderedSuffix) {
  TestChain tc(FastParams(), {});
  ASSERT_TRUE(tc.MineEmpty(5).ok());
  const BlockEntry* anchor = tc.chain().StableBlock(3);  // height 2.
  auto headers = tc.chain().HeadersAfter(anchor->hash);
  ASSERT_TRUE(headers.ok());
  ASSERT_EQ(headers->size(), 3u);
  EXPECT_EQ((*headers)[0].height, 3u);
  EXPECT_EQ((*headers)[2].height, 5u);
  EXPECT_EQ((*headers)[0].prev_hash, anchor->hash);
}

TEST(BlockchainTest, FindTxLocatesCanonicalInclusion) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 10, 1, 7);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  auto loc = tc.chain().FindTx(tx->Id());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->index, 1u);  // After the coinbase.
  EXPECT_FALSE(tc.chain().FindTx(crypto::Hash256::OfString("no")).has_value());
}

// ----------------------------------------------------------------- mempool

TEST(MempoolTest, VisibilityByArrivalTime) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 100).ok());
  EXPECT_TRUE(pool.CandidatePointersAt(50, Mempool::TxFilter()).empty());
  EXPECT_EQ(pool.CandidatePointersAt(100, Mempool::TxFilter()).size(), 1u);
}

TEST(MempoolTest, RejectsDuplicates) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 0).ok());
  EXPECT_EQ(pool.Submit(tx, 5).code(), StatusCode::kAlreadyExists);
}

TEST(MempoolTest, ExcludesIncluded) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 0).ok());
  const std::vector<crypto::Hash256> included = {tx.Id()};
  EXPECT_TRUE(pool.CandidatePointersAt(10, [&](const crypto::Hash256& id) {
                    return id == tx.Id();
                  }).empty());
  pool.Prune(included);
  EXPECT_EQ(pool.size(), 0u);
}

// ------------------------------------------------------------------ wallet

TEST(WalletTest, ReservationsPreventSelfDoubleSpend) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Wallet wallet(Alice(), 0);
  auto tx1 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 1);
  ASSERT_TRUE(tx1.ok());
  // The single genesis UTXO is now reserved; a second build must fail.
  auto tx2 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 2);
  EXPECT_FALSE(tx2.ok());
  wallet.ClearReservations();
  auto tx3 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 3);
  EXPECT_TRUE(tx3.ok());
}

TEST(WalletTest, InsufficientFunds) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 10));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  EXPECT_EQ(tx.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------- wide blocks

/// `count` keys from consecutive seeds starting at `first_seed`.
std::vector<crypto::KeyPair> Keys(int count, uint64_t first_seed) {
  std::vector<crypto::KeyPair> keys;
  for (int i = 0; i < count; ++i) {
    keys.push_back(crypto::KeyPair::FromSeed(first_seed + i));
  }
  return keys;
}

std::vector<crypto::PublicKey> PublicKeys(
    const std::vector<crypto::KeyPair>& keys) {
  std::vector<crypto::PublicKey> pks;
  for (const crypto::KeyPair& key : keys) pks.push_back(key.public_key());
  return pks;
}

/// One transfer from each of `keys[first..first+count)` against `state`,
/// each paying the next key; pairwise independent.
std::vector<Transaction> Transfers(const LedgerState& state, ChainId chain,
                                   const std::vector<crypto::KeyPair>& keys,
                                   size_t first, size_t count,
                                   uint64_t nonce) {
  std::vector<Transaction> txs;
  for (size_t i = first; i < first + count; ++i) {
    Wallet wallet(keys[i], chain);
    auto tx = wallet.BuildTransfer(
        state, keys[(i + 1) % keys.size()].public_key(), 20, 1, nonce + i);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    if (tx.ok()) txs.push_back(std::move(*tx));
  }
  return txs;
}

/// Threads of this process per /proc/self/status; -1 where it is absent.
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(BlockAssemblyTest, AssembledReceiptsMatchFullReExecution) {
  // AssembleBlock reuses its selection-pass receipts instead of re-running
  // the body; this pins them against the validators' ApplyBlockBody. The
  // candidates after the eight valid transfers must all be skipped: a
  // double spend of the first transfer's input, an exact duplicate, a
  // copy with a broken signature, and a spend of a nonexistent output.
  const auto keys = Keys(16, 1000);
  TestChain tc(FastParams(), Fund(PublicKeys(keys), 1000));
  const LedgerState& state = tc.chain().StateAtHead();
  const auto valid = Transfers(state, 0, keys, 0, 8, /*nonce=*/0);
  std::vector<Transaction> txs = valid;
  auto double_spend = Wallet(keys[0], 0).BuildTransfer(
      state, keys[2].public_key(), 30, 1, /*nonce=*/99);
  ASSERT_TRUE(double_spend.ok());
  txs.push_back(*double_spend);
  txs.push_back(valid[1]);
  Transaction corrupt = valid[2];
  corrupt.fee += 1;
  txs.push_back(corrupt);
  Transaction phantom;
  phantom.type = TxType::kTransfer;
  phantom.inputs.push_back(OutPoint{crypto::Hash256::OfString("none"), 0});
  phantom.outputs.push_back(TxOutput{1, keys[0].public_key()});
  phantom.SignWith(keys[0]);
  txs.push_back(phantom);

  auto block = tc.chain().AssembleBlock(tc.chain().head()->hash, txs,
                                        keys[0].public_key(), 100, tc.rng());
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block->txs.size(), valid.size() + 1);
  for (size_t i = 0; i < valid.size(); ++i) {
    EXPECT_EQ(block->txs[i + 1].Id(), valid[i].Id()) << "position " << i;
  }
  LedgerState replay = tc.chain().StateAtHead();
  auto receipts = ApplyBlockBody(&replay, *block, tc.chain().params());
  ASSERT_TRUE(receipts.ok());
  ASSERT_EQ(receipts->size(), block->receipts.size());
  for (size_t i = 0; i < receipts->size(); ++i) {
    EXPECT_EQ((*receipts)[i].Encode(), block->receipts[i].Encode());
  }
  EXPECT_EQ(block->header.receipt_root, block->ComputeReceiptRoot());
}

TEST(BlockAssemblyTest, WideBlockStartsNoThreads) {
  // Block assembly and validation run on the calling thread: a chain that
  // assembles and accepts a full 64-transaction block leaves the process
  // thread count where it was.
  const int before = ProcessThreadCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/status unavailable";
  const auto keys = Keys(64, 9000);
  TestChain tc(FastParams(), Fund(PublicKeys(keys), 1000));
  ASSERT_GE(tc.chain().params().max_block_txs, keys.size());
  ASSERT_TRUE(tc.MineBlock(Transfers(tc.chain().StateAtHead(), 0, keys, 0,
                                     keys.size(), 0))
                  .ok());
  EXPECT_EQ(tc.chain().head()->block.txs.size(), keys.size() + 1);
  EXPECT_EQ(ProcessThreadCount(), before);
}

// --------------------------------------------------------- block ingestion

// Blocks reach a node one at a time, in whatever order the network
// delivers them, and each goes through SubmitBlock on arrival. This pins
// the ingestion edge cases: a child before its parent, a resubmission, a
// fork sibling, and a block whose body fails validation.
TEST(BlockIngestionTest, OutOfOrderDuplicateForkAndInvalidBlocks) {
  const auto allocations = Fund({Alice().public_key()}, 500);
  const crypto::PublicKey miner = Bob().public_key();
  Blockchain source(FastParams(), allocations);
  Rng rng(31337);
  TimePoint now = 0;
  auto mine_on = [&](const crypto::Hash256& parent,
                     const std::vector<Transaction>& txs) {
    now += 100;
    auto block = source.AssembleBlock(parent, txs, miner, now, &rng);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_TRUE(source.SubmitBlock(*block, now).ok());
    return *block;
  };
  const crypto::Hash256 genesis = source.genesis()->hash;
  const Block base = mine_on(genesis, kNoCandidates);
  auto tx = Wallet(Alice(), 0).BuildTransfer(
      source.Get(base.header.Hash())->state, Bob().public_key(), 50, 1, 1);
  ASSERT_TRUE(tx.ok());
  const Block child = mine_on(base.header.Hash(), {*tx});
  const Block grandchild = mine_on(child.header.Hash(), kNoCandidates);
  const Block sibling = mine_on(genesis, kNoCandidates);  // Forks `base`.

  Blockchain replica(FastParams(), allocations);
  int head_moves = 0;
  replica.SubscribeHead([&](const BlockEntry&) { ++head_moves; });

  // A child ahead of its parent is an orphan and is not stored...
  EXPECT_EQ(replica.SubmitBlock(child, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(replica.block_count(), 1u);
  // ...and is accepted once the parent has arrived.
  ASSERT_TRUE(replica.SubmitBlock(base, 2).ok());
  ASSERT_TRUE(replica.SubmitBlock(child, 3).ok());
  EXPECT_EQ(replica.head()->hash, child.header.Hash());

  // A resubmitted block is recognised before any validation work.
  EXPECT_EQ(replica.SubmitBlock(base, 4).code(), StatusCode::kAlreadyExists);

  // A fork sibling is stored beside `base` without taking the head.
  ASSERT_TRUE(replica.SubmitBlock(sibling, 5).ok());
  EXPECT_NE(replica.Get(base.header.Hash()), nullptr);
  EXPECT_NE(replica.Get(sibling.header.Hash()), nullptr);
  EXPECT_FALSE(replica.IsCanonical(sibling.header.Hash()));
  EXPECT_EQ(replica.block_count(), 4u);

  // A block whose declared receipts disagree with re-execution leaves the
  // head and the store untouched.
  now += 100;
  auto extra = source.AssembleBlock(child.header.Hash(), kNoCandidates, miner,
                                    now, &rng);
  ASSERT_TRUE(extra.ok());
  Block bad_receipts = *extra;
  bad_receipts.receipts[0].note = "tampered";
  EXPECT_EQ(replica.SubmitBlock(bad_receipts, 6).code(),
            StatusCode::kVerificationFailed);
  EXPECT_EQ(replica.head()->hash, child.header.Hash());
  EXPECT_EQ(replica.block_count(), 4u);
  EXPECT_EQ(replica.Get(bad_receipts.header.Hash()), nullptr);

  ASSERT_TRUE(replica.SubmitBlock(grandchild, 7).ok());
  EXPECT_EQ(replica.head()->hash, source.head()->hash);
  EXPECT_EQ(head_moves, 3);  // base, child, grandchild; never the sibling.
}

TEST(BlockIngestionTest, LinearReplayReproducesHeadAndState) {
  // Grow a 10-block linear chain of 8-transfer blocks, then replay it
  // block by block into a fresh chain, as a node catching up would: the
  // head, the UTXO set and the liquid value must come out identical.
  const auto keys = Keys(16, 1000);
  const auto funding = Fund(PublicKeys(keys), 1000);
  TestChain tc(FastParams(), funding);
  for (uint64_t round = 0; round < 10; ++round) {
    ASSERT_TRUE(tc.MineBlock(Transfers(tc.chain().StateAtHead(), 0, keys,
                                       round % 2 == 0 ? 0 : 8, 8, round * 100))
                    .ok());
    ASSERT_EQ(tc.chain().head()->block.txs.size(), 9u);
  }

  Blockchain replica(FastParams(), funding);
  for (const BlockEntry* entry : tc.chain().arrival_order()) {
    if (entry->height() == 0) continue;
    ASSERT_TRUE(replica.SubmitBlock(entry->block, /*arrival_time=*/1).ok());
  }
  EXPECT_EQ(replica.block_count(), 11u);
  EXPECT_EQ(replica.head()->hash, tc.chain().head()->hash);
  EXPECT_TRUE(replica.StateAtHead().utxos == tc.chain().StateAtHead().utxos);
  EXPECT_EQ(replica.StateAtHead().LiquidValue(),
            tc.chain().StateAtHead().LiquidValue());
}

// Two branches off genesis, mined into `source`: a two-block branch whose
// first block pays Bob 50, and a longer empty one. The neutral miner key
// keeps coinbase rewards out of Alice's and Bob's balances.
struct TwoBranches {
  std::vector<Block> paying;  // a1 (pays Bob), a2.
  std::vector<Block> empty;   // b1, b2, b3: strictly heavier.
};

TwoBranches MineTwoBranches(Blockchain* source) {
  const crypto::PublicKey miner = crypto::KeyPair::FromSeed(9999).public_key();
  Rng rng(4242);
  TimePoint now = 0;
  auto mine_on = [&](const crypto::Hash256& parent,
                     const std::vector<Transaction>& txs) {
    now += 100;
    auto block = source->AssembleBlock(parent, txs, miner, now, &rng);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_TRUE(source->SubmitBlock(*block, now).ok());
    return *block;
  };
  TwoBranches out;
  const crypto::Hash256 genesis = source->genesis()->hash;
  auto tx = Wallet(Alice(), 0).BuildTransfer(source->StateAtHead(),
                                             Bob().public_key(), 50, 1, 1);
  EXPECT_TRUE(tx.ok());
  out.paying.push_back(mine_on(genesis, {*tx}));
  out.paying.push_back(mine_on(out.paying.back().header.Hash(), kNoCandidates));
  crypto::Hash256 parent = genesis;
  for (int i = 0; i < 3; ++i) {
    out.empty.push_back(mine_on(parent, kNoCandidates));
    parent = out.empty.back().header.Hash();
  }
  return out;
}

TEST(BlockIngestionTest, LateHeavierForkReorgsTheReplica) {
  // A replica that first follows the paying branch switches to the empty
  // one only when it becomes strictly heavier (a tie keeps the first
  // seen), and its state then equals the winning branch's: Bob's payment
  // is undone.
  const auto allocations = Fund({Alice().public_key()}, 500);
  Blockchain source(FastParams(), allocations);
  const TwoBranches branches = MineTwoBranches(&source);
  const Block& a2 = branches.paying[1];
  const Block& b3 = branches.empty[2];
  ASSERT_EQ(source.head()->hash, b3.header.Hash());

  Blockchain replica(FastParams(), allocations);
  int head_moves = 0;
  replica.SubscribeHead([&](const BlockEntry&) { ++head_moves; });
  for (const Block& block : branches.paying) {
    ASSERT_TRUE(replica.SubmitBlock(block, 1).ok());
  }
  EXPECT_EQ(replica.head()->hash, a2.header.Hash());
  EXPECT_EQ(replica.StateAtHead().BalanceOf(Bob().public_key()), 50u);

  ASSERT_TRUE(replica.SubmitBlock(branches.empty[0], 2).ok());
  ASSERT_TRUE(replica.SubmitBlock(branches.empty[1], 3).ok());
  EXPECT_EQ(replica.head()->hash, a2.header.Hash());  // Tie: first seen.
  EXPECT_EQ(head_moves, 2);

  ASSERT_TRUE(replica.SubmitBlock(b3, 4).ok());
  EXPECT_EQ(replica.head()->hash, b3.header.Hash());
  EXPECT_EQ(head_moves, 3);
  EXPECT_FALSE(replica.IsCanonical(branches.paying[0].header.Hash()));
  EXPECT_EQ(replica.StateAtHead().BalanceOf(Bob().public_key()), 0u);
  EXPECT_EQ(replica.StateAtHead().BalanceOf(Alice().public_key()), 500u);
  EXPECT_TRUE(replica.StateAtHead().utxos == source.StateAtHead().utxos);
}

TEST(BlockIngestionTest, DeliveryOrderDoesNotChangeTheWinner) {
  // The same blocks delivered parents-first, and children-first with the
  // orphans resent after each pass (as a node re-requesting missing
  // parents would), converge on the same head, store and state.
  const auto allocations = Fund({Alice().public_key()}, 500);
  Blockchain source(FastParams(), allocations);
  const TwoBranches branches = MineTwoBranches(&source);
  std::vector<Block> all = branches.paying;
  all.insert(all.end(), branches.empty.begin(), branches.empty.end());

  auto deliver = [&](std::vector<Block> pending) {
    auto replica = std::make_unique<Blockchain>(FastParams(), allocations);
    for (int pass = 0; !pending.empty(); ++pass) {
      EXPECT_LT(pass, 5) << "orphans never resolved";
      if (pass >= 5) break;
      std::vector<Block> orphans;
      for (const Block& block : pending) {
        const Status status = replica->SubmitBlock(block, pass);
        if (status.code() == StatusCode::kNotFound) {
          orphans.push_back(block);
        } else {
          EXPECT_TRUE(status.ok()) << status.ToString();
        }
      }
      pending = std::move(orphans);
    }
    return replica;
  };
  const auto in_order = deliver(all);
  const auto reversed = deliver(std::vector<Block>(all.rbegin(), all.rend()));
  for (const auto* replica : {in_order.get(), reversed.get()}) {
    EXPECT_EQ(replica->block_count(), 6u);
    EXPECT_EQ(replica->head()->hash, source.head()->hash);
    EXPECT_TRUE(replica->StateAtHead().utxos == source.StateAtHead().utxos);
  }
}

// ------------------------------------------------------------------ mining

TEST(MiningNetworkTest, ProducesBlocksAndIncludesTxs) {
  sim::Simulation sim(101);
  ChainParams params = FastParams();
  Blockchain chain(params, Fund({Alice().public_key()}, 1000));
  Mempool pool;
  MiningNetwork miners(&sim, &chain, &pool, MiningConfig{4, Milliseconds(20)});

  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(chain.StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(pool.Submit(*tx, 0).ok());

  miners.Start();
  sim.RunUntil(Seconds(5));
  miners.Stop();

  EXPECT_GT(chain.height(), 10u);
  EXPECT_TRUE(chain.FindTx(tx->Id()).has_value());
  EXPECT_EQ(chain.StateAtHead().BalanceOf(Bob().public_key()), 100u);
}

TEST(MiningNetworkTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    sim::Simulation sim(seed);
    Blockchain chain(FastParams(), {});
    Mempool pool;
    MiningNetwork miners(&sim, &chain, &pool,
                         MiningConfig{3, Milliseconds(30)});
    miners.Start();
    sim.RunUntil(Seconds(3));
    miners.Stop();
    return chain.head()->hash;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(MiningNetworkTest, PrivateBranchOverridesHead) {
  sim::Simulation sim(55);
  Blockchain chain(FastParams(), {});
  Mempool pool;
  MiningNetwork miners(&sim, &chain, &pool, MiningConfig{2, Milliseconds(10)});
  miners.Start();
  sim.RunUntil(Seconds(2));
  miners.Stop();

  const uint64_t public_height = chain.height();
  ASSERT_GT(public_height, 3u);
  // Attacker mines a longer private branch from 3 blocks back.
  const BlockEntry* fork_point = chain.StableBlock(3);
  auto branch = miners.BuildPrivateBranch(fork_point->hash, 6, {},
                                          sim.Now() + 1);
  ASSERT_TRUE(branch.ok());
  ASSERT_TRUE(miners.PublishBranch(*branch).ok());
  // 51% attack succeeded: the private branch is now canonical.
  EXPECT_EQ(chain.head()->hash, branch->back().header.Hash());
  EXPECT_EQ(chain.height(), fork_point->block.header.height + 6);
}

}  // namespace
}  // namespace ac3::chain

// Serial block execution and block assembly semantics.
//
// ApplyBlockBody runs a body in block order through ApplyTransaction and
// stops at the first structurally invalid transaction; AssembleBlock walks
// its candidates FIFO against a running state and keeps exactly the ones
// that apply. These cases pin that ordering contract on real signed
// transactions: same-block spend chains and deploy-then-call succeed, a
// forward reference or a second spend of one input invalidates the body,
// a reverted call is included with its fee consumed, and assembly keeps
// the valid FIFO prefix of conflicting candidate sets.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/ledger.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/contracts/htlc_contract.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

using chain::Amount;
using chain::ApplyBlockBody;
using chain::Block;
using chain::ChainParams;
using chain::LedgerState;
using chain::OutPoint;
using chain::Receipt;
using chain::Transaction;
using chain::TxOutput;
using chain::TxType;
using chain::Wallet;

void ExpectStatesEqual(const LedgerState& a, const LedgerState& b) {
  EXPECT_TRUE(a.utxos == b.utxos);
  std::vector<std::pair<crypto::Hash256, Bytes>> digests_a, digests_b;
  for (const auto& [id, c] : a.contracts) {
    digests_a.emplace_back(id, c->StateDigest());
  }
  for (const auto& [id, c] : b.contracts) {
    digests_b.emplace_back(id, c->StateDigest());
  }
  EXPECT_EQ(digests_a, digests_b);
  EXPECT_EQ(a.LiquidValue(), b.LiquidValue());
  EXPECT_EQ(a.LockedValue(), b.LockedValue());
}

void ExpectBlocksIdentical(const Block& a, const Block& b) {
  EXPECT_EQ(a.header.Encode(), b.header.Encode());
  ASSERT_EQ(a.txs.size(), b.txs.size());
  for (size_t i = 0; i < a.txs.size(); ++i) {
    EXPECT_EQ(a.txs[i].Encode(), b.txs[i].Encode()) << "tx " << i;
  }
  ASSERT_EQ(a.receipts.size(), b.receipts.size());
  for (size_t i = 0; i < a.receipts.size(); ++i) {
    EXPECT_EQ(a.receipts[i].Encode(), b.receipts[i].Encode())
        << "receipt " << i;
  }
}

bool HasUtxo(const LedgerState& state, const OutPoint& outpoint) {
  return state.utxos.Find(outpoint) != nullptr;
}

class BlockBodyTest : public ::testing::Test {
 protected:
  BlockBodyTest() {
    for (int i = 0; i < 16; ++i) {
      keys_.push_back(crypto::KeyPair::FromSeed(1000 + i));
    }
    std::vector<crypto::PublicKey> pks;
    for (const auto& k : keys_) pks.push_back(k.public_key());
    tc_ = std::make_unique<testutil::TestChain>(chain::TestChainParams(),
                                                testutil::Fund(pks, 1000));
  }

  chain::Blockchain& chain() { return tc_->chain(); }
  const ChainParams& params() { return chain().params(); }
  const LedgerState& head_state() { return chain().StateAtHead(); }
  Wallet WalletFor(size_t i) { return Wallet(keys_[i], chain().id()); }

  /// A transfer of `amount` from keys_[from] to keys_[to] against the head.
  Transaction Transfer(size_t from, size_t to, Amount amount, uint64_t nonce) {
    Wallet w = WalletFor(from);
    auto tx = w.BuildTransfer(head_state(), keys_[to].public_key(), amount, 1,
                              nonce);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    return tx.ok() ? *tx : Transaction{};
  }

  /// A signed one-input transfer of `value` - 1 (fee 1) from `signer`.
  Transaction Spend(const OutPoint& input, Amount value,
                    const crypto::KeyPair& signer,
                    const crypto::PublicKey& recipient, uint64_t nonce) {
    Transaction tx;
    tx.type = TxType::kTransfer;
    tx.chain_id = chain().id();
    tx.inputs.push_back(input);
    tx.outputs.push_back(TxOutput{value - 1, recipient});
    tx.fee = 1;
    tx.nonce = nonce;
    tx.SignWith(signer);
    return tx;
  }

  /// A coinbase-headed block on the head, built outside AssembleBlock for
  /// shapes the assembler would never produce. The coinbase claims the
  /// block reward plus the body's fees plus `excess`.
  Block RawBlock(std::vector<Transaction> body, Amount excess = 0) {
    Block block;
    block.header.chain_id = params().id;
    block.header.height = chain().head()->height() + 1;
    block.header.time = now_ + 50;
    Amount fees = 0;
    for (const Transaction& tx : body) fees += tx.fee;
    Transaction coinbase;
    coinbase.type = TxType::kCoinbase;
    coinbase.chain_id = params().id;
    coinbase.outputs.push_back(TxOutput{params().block_reward + fees + excess,
                                        keys_[0].public_key()});
    coinbase.nonce = 4242;
    block.txs.push_back(std::move(coinbase));
    for (Transaction& tx : body) block.txs.push_back(std::move(tx));
    return block;
  }

  /// ApplyBlockBody on a copy of the head state; the copy lands in `post`.
  Result<std::vector<Receipt>> Apply(const Block& block, LedgerState* post) {
    *post = head_state();
    return ApplyBlockBody(post, block, params());
  }

  /// Assembles `candidates` on the head, checks the block's receipts
  /// against a full ApplyBlockBody re-execution, and submits it.
  Block AssembleAndSubmit(const std::vector<Transaction>& candidates) {
    now_ += 100;
    auto block = chain().AssembleBlock(chain().head()->hash, candidates,
                                       keys_[0].public_key(), now_,
                                       tc_->rng());
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    if (!block.ok()) return Block{};
    LedgerState replay = head_state();
    auto receipts = ApplyBlockBody(&replay, *block, params());
    EXPECT_TRUE(receipts.ok()) << receipts.status().ToString();
    if (receipts.ok()) {
      EXPECT_EQ(receipts->size(), block->receipts.size());
      for (size_t i = 0; i < receipts->size() && i < block->receipts.size();
           ++i) {
        EXPECT_EQ((*receipts)[i].Encode(), block->receipts[i].Encode())
            << "receipt " << i;
      }
    }
    const Status submitted = chain().SubmitBlock(*block, now_);
    EXPECT_TRUE(submitted.ok()) << submitted.ToString();
    return *block;
  }

  /// Deploys an HTLC locking `value` from keys_[from] to keys_[2] under
  /// the hash of `secret`; returns the deploy transaction (not submitted).
  Transaction HtlcDeploy(size_t from, const Bytes& secret, Amount value,
                         uint64_t nonce) {
    Bytes payload = contracts::HtlcContract::MakeInitPayload(
        keys_[2].public_key(), crypto::Hash256::Of(secret),
        /*timelock=*/10'000);
    Wallet w = WalletFor(from);
    auto tx = w.BuildDeploy(head_state(), contracts::kHtlcKind, payload,
                            value, 4, nonce);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    return tx.ok() ? *tx : Transaction{};
  }

  /// keys_[from] calls redeem(`secret`) on `contract`.
  Transaction Redeem(size_t from, const crypto::Hash256& contract,
                     const Bytes& secret, uint64_t nonce) {
    Wallet w = WalletFor(from);
    auto tx = w.BuildCall(head_state(), contract, contracts::kRedeemFunction,
                          secret, 2, nonce);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    return tx.ok() ? *tx : Transaction{};
  }

  std::vector<crypto::KeyPair> keys_;
  std::unique_ptr<testutil::TestChain> tc_;
  TimePoint now_ = 0;
};

TEST_F(BlockBodyTest, DisjointTransfersAllApply) {
  // 15 pairwise-independent transfers, key i paying key i+1.
  std::vector<Transaction> body;
  for (size_t i = 0; i < 15; ++i) {
    body.push_back(Transfer(i, i + 1, 50 + static_cast<Amount>(i), i));
  }
  LedgerState post;
  auto receipts = Apply(RawBlock(body), &post);
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), body.size() + 1);
  for (size_t i = 1; i < receipts->size(); ++i) {
    EXPECT_TRUE((*receipts)[i].success) << "receipt " << i;
    EXPECT_EQ((*receipts)[i].tx_id, body[i - 1].Id());
  }
  // Key 0 pays 50 + fee and collects the coinbase (reward + 15 fees).
  EXPECT_EQ(post.BalanceOf(keys_[0].public_key()),
            1000 - 51 + params().block_reward + 15);
  // Keys 1..14 receive 50+(i-1) and pay 50+i plus the fee: net -2 each.
  for (size_t i = 1; i < 15; ++i) {
    EXPECT_EQ(post.BalanceOf(keys_[i].public_key()), 1000 - 2) << "key " << i;
  }
  EXPECT_EQ(post.BalanceOf(keys_[15].public_key()), 1000 + 64);
  EXPECT_EQ(post.LiquidValue(),
            head_state().LiquidValue() + params().block_reward);
}

TEST_F(BlockBodyTest, SecondSpendOfSharedInputInvalidatesBody) {
  // Two independent wallets over one key each spend the same funds.
  Wallet first(keys_[1], chain().id());
  Wallet second(keys_[1], chain().id());
  auto a = first.BuildTransfer(head_state(), keys_[2].public_key(), 900, 1, 1);
  auto b = second.BuildTransfer(head_state(), keys_[3].public_key(), 900, 1, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->inputs, b->inputs);
  LedgerState post;
  auto receipts = Apply(RawBlock({*a, *b}), &post);
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(receipts.status().ToString().find("input not in UTXO set"),
            std::string::npos);
  // The first spend applied before execution stopped at the second.
  EXPECT_TRUE(HasUtxo(post, OutPoint{a->Id(), 0}));
  EXPECT_FALSE(HasUtxo(post, OutPoint{b->Id(), 0}));
}

TEST_F(BlockBodyTest, ChainedSpendsApplyInBlockOrder) {
  // keys_[1] pays a fresh key, which pays a second fresh key, which pays
  // keys_[4]: each link spends the previous link's output in this block.
  const auto hop_a = crypto::KeyPair::FromSeed(5000);
  const auto hop_b = crypto::KeyPair::FromSeed(5001);
  Wallet w = WalletFor(1);
  auto t1 = w.BuildTransfer(head_state(), hop_a.public_key(), 300, 1, 1);
  ASSERT_TRUE(t1.ok());
  ASSERT_EQ(t1->outputs[0].owner, hop_a.public_key());
  const Transaction t2 =
      Spend(OutPoint{t1->Id(), 0}, 300, hop_a, hop_b.public_key(), 2);
  const Transaction t3 =
      Spend(OutPoint{t2.Id(), 0}, 299, hop_b, keys_[4].public_key(), 3);
  LedgerState post;
  auto receipts = Apply(RawBlock({*t1, t2, t3}), &post);
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  EXPECT_EQ(receipts->size(), 4u);
  EXPECT_FALSE(HasUtxo(post, OutPoint{t1->Id(), 0}));
  EXPECT_FALSE(HasUtxo(post, OutPoint{t2.Id(), 0}));
  EXPECT_EQ(post.BalanceOf(hop_a.public_key()), 0);
  EXPECT_EQ(post.BalanceOf(hop_b.public_key()), 0);
  EXPECT_EQ(post.BalanceOf(keys_[4].public_key()), 1000 + 298);
}

TEST_F(BlockBodyTest, SpendOfLaterTxOutputInvalidatesBody) {
  // The spend names an output created later in the same body: a forward
  // reference, which block order makes a missing input.
  const auto hop = crypto::KeyPair::FromSeed(5002);
  Wallet w = WalletFor(2);
  auto funding = w.BuildTransfer(head_state(), hop.public_key(), 200, 1, 1);
  ASSERT_TRUE(funding.ok());
  const Transaction spend =
      Spend(OutPoint{funding->Id(), 0}, 200, hop, keys_[3].public_key(), 2);

  LedgerState post;
  auto forward = Apply(RawBlock({spend, *funding}), &post);
  ASSERT_FALSE(forward.ok());
  EXPECT_EQ(forward.status().code(), StatusCode::kInvalidArgument);
  ExpectStatesEqual(post, head_state());

  auto backward = Apply(RawBlock({*funding, spend}), &post);
  EXPECT_TRUE(backward.ok()) << backward.status().ToString();
}

TEST_F(BlockBodyTest, CallAfterSameBlockDeploySucceeds) {
  const Bytes secret{7, 7, 7};
  const Transaction deploy = HtlcDeploy(1, secret, 300, 1);
  const Transaction redeem = Redeem(2, deploy.Id(), secret, 2);
  LedgerState post;
  auto receipts = Apply(RawBlock({deploy, redeem}), &post);
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 3u);
  EXPECT_EQ((*receipts)[1].contract_id, deploy.Id());
  EXPECT_TRUE((*receipts)[2].success) << (*receipts)[2].note;
  EXPECT_EQ(post.LockedValue(), 0);
  EXPECT_EQ(post.BalanceOf(keys_[2].public_key()), 1000 - 2 + 300);

  // The same call ahead of its deploy names an unknown contract.
  auto reversed = Apply(RawBlock({redeem, deploy}), &post);
  EXPECT_FALSE(reversed.ok());
}

TEST_F(BlockBodyTest, SameContractCallsSeeEarlierCallEffects) {
  const Bytes secret{7, 7, 7};
  const Transaction deploy = HtlcDeploy(1, secret, 300, 1);
  AssembleAndSubmit({deploy});
  ASSERT_TRUE(chain().FindTx(deploy.Id()).has_value());

  // Two redeems of one contract in one body: the first moves it out of
  // state P, so the second reverts and is still included.
  const Transaction first = Redeem(2, deploy.Id(), secret, 2);
  const Transaction second = Redeem(3, deploy.Id(), secret, 3);
  LedgerState post;
  auto receipts = Apply(RawBlock({first, second}), &post);
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 3u);
  EXPECT_TRUE((*receipts)[1].success);
  EXPECT_FALSE((*receipts)[2].success);
  EXPECT_NE((*receipts)[2].note.find("redeem requires state P"),
            std::string::npos)
      << (*receipts)[2].note;
  EXPECT_EQ(post.BalanceOf(keys_[2].public_key()), 1000 - 2 + 300);
  EXPECT_EQ(post.BalanceOf(keys_[3].public_key()), 1000 - 2);
}

TEST_F(BlockBodyTest, RevertedCallIsIncludedWithFeeConsumed) {
  // Block 1: two HTLCs plus independent transfers. Block 2: a redeem with
  // the right secret, one with a wrong secret on the other contract, a
  // same-block spend chain and more transfers.
  const Bytes secret{7, 7, 7};
  const Bytes wrong{6, 6, 6};
  std::vector<Transaction> block1{HtlcDeploy(1, secret, 300, 1),
                                  HtlcDeploy(3, secret, 200, 2)};
  for (size_t i = 4; i < 10; ++i) block1.push_back(Transfer(i, i + 1, 40, i));
  const Block mined1 = AssembleAndSubmit(block1);
  ASSERT_EQ(mined1.txs.size(), block1.size() + 1);

  const Transaction redeem = Redeem(2, block1[0].Id(), secret, 1);
  const Transaction bad_redeem = Redeem(15, block1[1].Id(), wrong, 2);
  const Transaction hop1 = Transfer(5, 6, 100, 7);
  const Transaction hop2 =
      Spend(OutPoint{hop1.Id(), 0}, 100, keys_[6], keys_[7].public_key(), 8);
  std::vector<Transaction> block2{redeem, bad_redeem, hop1, hop2};
  for (size_t i = 10; i < 14; ++i) block2.push_back(Transfer(i, i + 1, 30, i));
  const Amount eve_before = head_state().BalanceOf(keys_[15].public_key());
  const Block mined2 = AssembleAndSubmit(block2);
  ASSERT_EQ(mined2.txs.size(), block2.size() + 1);

  const LedgerState& after = head_state();
  EXPECT_TRUE(mined2.receipts[1].success);
  EXPECT_FALSE(mined2.receipts[2].success);
  EXPECT_EQ(mined2.receipts[2].tx_id, bad_redeem.Id());
  // The reverted call paid its fee; the contract still locks its value.
  EXPECT_EQ(after.BalanceOf(keys_[15].public_key()), eve_before - 2);
  EXPECT_EQ(after.LockedValue(), 200);
  auto contract = after.GetContract(block1[1].Id());
  ASSERT_TRUE(contract.ok());
  EXPECT_EQ((*contract)->StateDigest(),
            contracts::SwapStateDigest(contracts::SwapState::kPublished));
}

TEST_F(BlockBodyTest, RandomizedChurnKeepsAggregatesExact) {
  Rng rng(0xfeed);
  const Amount start = head_state().TotalValue();
  for (int round = 0; round < 6; ++round) {
    std::vector<Transaction> txs;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (rng.NextU64() % 4 == 0) continue;  // Skip some senders.
      Wallet w = WalletFor(i);
      const size_t to = rng.NextU64() % keys_.size();
      const Amount amount = 10 + static_cast<Amount>(rng.NextU64() % 50);
      auto tx = w.BuildTransfer(head_state(), keys_[to].public_key(), amount,
                                1, rng.NextU64());
      if (tx.ok()) txs.push_back(std::move(*tx));
    }
    const Block block = AssembleAndSubmit(txs);
    EXPECT_EQ(block.txs.size(), txs.size() + 1) << "round " << round;
  }
  const LedgerState& head = head_state();
  EXPECT_EQ(head.TotalValue(), start + 6 * params().block_reward);
  EXPECT_EQ(head.LiquidValue(), head.LiquidValueScan());
  for (const auto& key : keys_) {
    EXPECT_EQ(head.BalanceOf(key.public_key()),
              head.BalanceOfScan(key.public_key()));
  }
}

TEST_F(BlockBodyTest, MidBlockFailureStopsAtFirstInvalidTx) {
  // Two valid transfers, a signed spend of a nonexistent outpoint, then a
  // valid transfer: execution stops at index 3 with indices 1-2 applied,
  // index 4 and the coinbase not.
  const Transaction t1 = Transfer(1, 2, 25, 1);
  const Transaction t2 = Transfer(2, 3, 25, 2);
  const Transaction bogus =
      Spend(OutPoint{crypto::Hash256::Of(Bytes{0xBA}), 0}, 6, keys_[8],
            keys_[9].public_key(), 77);
  const Transaction tail = Transfer(4, 5, 25, 4);
  const Block block = RawBlock({t1, t2, bogus, tail});
  LedgerState post;
  auto receipts = Apply(block, &post);
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(receipts.status().ToString().find("input not in UTXO set"),
            std::string::npos);
  EXPECT_TRUE(HasUtxo(post, OutPoint{t1.Id(), 0}));
  EXPECT_TRUE(HasUtxo(post, OutPoint{t2.Id(), 0}));
  EXPECT_FALSE(HasUtxo(post, OutPoint{tail.Id(), 0}));
  EXPECT_FALSE(HasUtxo(post, OutPoint{block.txs[0].Id(), 0}));
}

TEST_F(BlockBodyTest, DuplicateCoinbaseInvalidatesBody) {
  Transaction rogue;  // A second coinbase buried mid-body.
  rogue.type = TxType::kCoinbase;
  rogue.chain_id = chain().id();
  rogue.outputs.push_back(TxOutput{1, keys_[9].public_key()});
  rogue.nonce = 5;
  const Transaction t1 = Transfer(1, 2, 25, 1);
  const Transaction tail = Transfer(4, 5, 25, 4);
  LedgerState post;
  auto receipts = Apply(RawBlock({t1, rogue, tail}), &post);
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(receipts.status().ToString().find("duplicate coinbase"),
            std::string::npos);
  EXPECT_TRUE(HasUtxo(post, OutPoint{t1.Id(), 0}));
  EXPECT_FALSE(HasUtxo(post, OutPoint{tail.Id(), 0}));
}

TEST_F(BlockBodyTest, BadSignatureInvalidatesBody) {
  std::vector<Transaction> body{Transfer(1, 2, 25, 1), Transfer(2, 3, 25, 2),
                                Transfer(3, 4, 25, 3), Transfer(4, 5, 25, 4)};
  body[2].nonce ^= 1;  // Changes the signed content after signing.
  LedgerState post;
  auto receipts = Apply(RawBlock(body), &post);
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().code(), StatusCode::kVerificationFailed);
  EXPECT_TRUE(HasUtxo(post, OutPoint{body[1].Id(), 0}));
  EXPECT_FALSE(HasUtxo(post, OutPoint{body[3].Id(), 0}));
}

TEST_F(BlockBodyTest, CoinbaseCappedAtRewardPlusFees) {
  const std::vector<Transaction> body{Transfer(1, 2, 25, 1),
                                      Transfer(2, 3, 25, 2)};
  LedgerState post;
  auto exact = Apply(RawBlock(body), &post);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  auto over = Apply(RawBlock(body, /*excess=*/1), &post);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().ToString().find("coinbase exceeds reward plus fees"),
            std::string::npos);
}

TEST_F(BlockBodyTest, ExecutionIsDeterministicAcrossStateCopies) {
  // One body applied to two O(1) copies of the head state yields the same
  // receipts and post-state, and leaves the head state untouched.
  const Bytes secret{1, 2, 3};
  std::vector<Transaction> body{HtlcDeploy(1, secret, 100, 1)};
  for (size_t i = 3; i < 12; ++i) body.push_back(Transfer(i, i + 1, 30, i));
  const Block block = RawBlock(body);
  const LedgerState before = head_state();
  LedgerState a, b;
  auto ra = Apply(block, &a);
  auto rb = Apply(block, &b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->size(), rb->size());
  for (size_t i = 0; i < ra->size(); ++i) {
    EXPECT_EQ((*ra)[i].Encode(), (*rb)[i].Encode()) << "receipt " << i;
  }
  ExpectStatesEqual(a, b);
  ExpectStatesEqual(head_state(), before);
  EXPECT_EQ(a.LockedValue(), 100);
}

// ------------------------------------------- ApplyTransaction atomicity

/// A contract whose calls fail in the two ways no builtin contract does:
/// "fault" returns a non-revert error, any other function pays out its
/// locked value while keeping it locked (breaking value conservation).
constexpr char kFaultyKind[] = "TestFaultySC";

class FaultyContract : public contracts::Contract {
 public:
  std::string Kind() const override { return kFaultyKind; }
  Bytes StateDigest() const override { return Bytes{0xFA}; }
  Result<contracts::CallOutcome> Call(
      const std::string& function, const Bytes& /*args*/,
      const contracts::CallContext& ctx) const override {
    if (function == "fault") return Status::Internal("faulty contract");
    ctx.payouts->push_back(contracts::Payout{locked_value(), deployer()});
    return contracts::CallOutcome{std::make_shared<FaultyContract>(*this),
                                  "leaked"};
  }
};

/// Every error return of ApplyTransaction must leave the state exactly as
/// it was: same UTXOs, balances, contract snapshots and liquid total.
class ApplyTransactionAtomicityTest : public BlockBodyTest {
 protected:
  ApplyTransactionAtomicityTest() {
    contracts::ContractFactory::Instance().Register(
        kFaultyKind, [](const Bytes&, const contracts::DeployContext& ctx)
                         -> Result<contracts::ContractPtr> {
          auto contract = std::make_shared<FaultyContract>();
          contract->BindDeployment(ctx);
          return contracts::ContractPtr(contract);
        });
    // Block 1 deploys an HTLC and a faulty contract, so calls have
    // targets. `state_` is the head state plus one more transfer.
    htlc_ = HtlcDeploy(1, secret_, 300, 1);
    Wallet w = WalletFor(3);
    auto faulty = w.BuildDeploy(head_state(), kFaultyKind, Bytes{}, 100, 2, 2);
    EXPECT_TRUE(faulty.ok()) << faulty.status().ToString();
    faulty_id_ = faulty->Id();
    AssembleAndSubmit({htlc_, *faulty});
    EXPECT_TRUE(head_state().GetContract(faulty_id_).ok());
    state_ = head_state();
    EXPECT_TRUE(
        chain::ApplyTransaction(&state_, Transfer(9, 10, 5, 3), env()).ok());
  }

  chain::BlockEnv env() const {
    return chain::BlockEnv{tc_->chain().id(), tc_->chain().head()->height() + 1,
                           now_ + 50};
  }

  /// Some unspent output of keys_[k] in `state_`.
  std::pair<OutPoint, Amount> OwnedBy(size_t k) const {
    for (const auto& [outpoint, output] : state_.utxos) {
      if (output.owner == keys_[k].public_key()) {
        return {outpoint, output.value};
      }
    }
    ADD_FAILURE() << "key " << k << " owns nothing";
    return {};
  }

  /// Applies `tx` to `state_`, expecting an error with `code` whose text
  /// contains `needle`, and `state_` unchanged.
  void ExpectRejected(const Transaction& tx, StatusCode code,
                      const std::string& needle) {
    const LedgerState before = state_;
    auto receipt = chain::ApplyTransaction(&state_, tx, env());
    ASSERT_FALSE(receipt.ok());
    EXPECT_EQ(receipt.status().code(), code) << receipt.status().ToString();
    EXPECT_NE(receipt.status().ToString().find(needle), std::string::npos)
        << receipt.status().ToString();
    EXPECT_TRUE(state_.utxos == before.utxos);
    EXPECT_TRUE(state_.balances == before.balances);
    EXPECT_TRUE(state_.contracts == before.contracts);
    EXPECT_EQ(state_.liquid_total, before.liquid_total);
  }

  /// keys_[from] calls `function` on `contract`, built against `state_`.
  Transaction CallOn(size_t from, const crypto::Hash256& contract,
                     const std::string& function, const Bytes& args,
                     uint64_t nonce) {
    Wallet w = WalletFor(from);
    auto tx = w.BuildCall(state_, contract, function, args, 2, nonce);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    return tx.ok() ? *tx : Transaction{};
  }

  const Bytes secret_{7, 7, 7};
  Transaction htlc_;
  crypto::Hash256 faulty_id_;
  LedgerState state_;
};

TEST_F(ApplyTransactionAtomicityTest, WrongChain) {
  Transaction tx = Transfer(1, 2, 25, 10);
  tx.chain_id += 1;
  tx.SignWith(keys_[1]);
  ExpectRejected(tx, StatusCode::kInvalidArgument, "another chain");
}

TEST_F(ApplyTransactionAtomicityTest, BadSignature) {
  Transaction tx = Transfer(1, 2, 25, 10);
  tx.nonce ^= 1;  // Changes the signed content after signing.
  ExpectRejected(tx, StatusCode::kVerificationFailed, "bad transaction");
}

TEST_F(ApplyTransactionAtomicityTest, MissingInput) {
  ExpectRejected(Spend(OutPoint{crypto::Hash256::Of(Bytes{0xBA}), 0}, 6,
                       keys_[1], keys_[2].public_key(), 10),
                 StatusCode::kInvalidArgument, "input not in UTXO set");
}

TEST_F(ApplyTransactionAtomicityTest, DuplicateInput) {
  const auto [outpoint, value] = OwnedBy(4);
  Transaction tx = Spend(outpoint, value, keys_[4], keys_[5].public_key(), 10);
  tx.inputs.push_back(outpoint);
  tx.outputs[0].value += value;
  tx.SignWith(keys_[4]);
  ExpectRejected(tx, StatusCode::kInvalidArgument, "duplicate input");
}

TEST_F(ApplyTransactionAtomicityTest, ForeignOwner) {
  const auto [outpoint, value] = OwnedBy(4);
  ExpectRejected(Spend(outpoint, value, keys_[5], keys_[5].public_key(), 10),
                 StatusCode::kVerificationFailed, "not owned by");
}

TEST_F(ApplyTransactionAtomicityTest, TransferValueNotConserved) {
  const auto [outpoint, value] = OwnedBy(4);
  Transaction tx = Spend(outpoint, value, keys_[4], keys_[5].public_key(), 10);
  tx.outputs[0].value += 1;
  tx.SignWith(keys_[4]);
  ExpectRejected(tx, StatusCode::kInvalidArgument,
                 "transfer value not conserved");
}

TEST_F(ApplyTransactionAtomicityTest, DeployValueNotConserved) {
  Transaction tx = HtlcDeploy(5, secret_, 100, 10);
  tx.contract_value += 1;
  tx.SignWith(keys_[5]);
  ExpectRejected(tx, StatusCode::kInvalidArgument,
                 "deploy value not conserved");
}

TEST_F(ApplyTransactionAtomicityTest, MalformedDeployPayload) {
  Wallet w = WalletFor(5);
  auto tx = w.BuildDeploy(state_, contracts::kHtlcKind, Bytes{1, 2, 3}, 100,
                          4, 10);
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ExpectRejected(*tx, StatusCode::kOutOfRange, "buffer underrun");
}

TEST_F(ApplyTransactionAtomicityTest, CallValueNotConserved) {
  Transaction tx =
      CallOn(2, htlc_.Id(), contracts::kRedeemFunction, secret_, 10);
  tx.fee += 1;
  tx.SignWith(keys_[2]);
  ExpectRejected(tx, StatusCode::kInvalidArgument, "call value not conserved");
}

TEST_F(ApplyTransactionAtomicityTest, UnknownContract) {
  ExpectRejected(CallOn(2, crypto::Hash256::Of(Bytes{0xCC}),
                        contracts::kRedeemFunction, secret_, 10),
                 StatusCode::kNotFound, "no contract");
}

TEST_F(ApplyTransactionAtomicityTest, NonRevertCallError) {
  ExpectRejected(CallOn(2, faulty_id_, "fault", Bytes{}, 10),
                 StatusCode::kInternal, "faulty contract");
}

TEST_F(ApplyTransactionAtomicityTest, ContractValueNotConserved) {
  ExpectRejected(CallOn(2, faulty_id_, "leak", Bytes{}, 10),
                 StatusCode::kInternal, "value conservation");
}

TEST_F(ApplyTransactionAtomicityTest, RevertStillSpendsInputsAndFee) {
  const Transaction tx =
      CallOn(2, htlc_.Id(), contracts::kRedeemFunction, Bytes{6, 6, 6}, 10);
  const LedgerState before = state_;
  auto receipt = chain::ApplyTransaction(&state_, tx, env());
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_FALSE(receipt->success);
  for (const OutPoint& in : tx.inputs) {
    EXPECT_TRUE(HasUtxo(before, in));
    EXPECT_FALSE(HasUtxo(state_, in));
  }
  EXPECT_TRUE(HasUtxo(state_, OutPoint{tx.Id(), 0}));
  EXPECT_EQ(state_.BalanceOf(keys_[2].public_key()),
            before.BalanceOf(keys_[2].public_key()) - tx.fee);
  EXPECT_EQ(state_.liquid_total, before.liquid_total - tx.fee);
  EXPECT_TRUE(state_.contracts == before.contracts);
}

// --------------------------------------------------------- block assembly

using SerialAssemblyTest = BlockBodyTest;

TEST_F(SerialAssemblyTest, IndependentSetKeptWholeInFifoOrder) {
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 15; ++i) {
    txs.push_back(Transfer(i, i + 1, 40 + static_cast<Amount>(i), i));
  }
  const Block block = AssembleAndSubmit(txs);
  ASSERT_EQ(block.txs.size(), txs.size() + 1);
  for (size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(block.txs[i + 1].Id(), txs[i].Id()) << "position " << i;
  }
  EXPECT_EQ(chain().head()->hash, block.header.Hash());
}

TEST_F(SerialAssemblyTest, DependentChainAdoptedInOrder) {
  // tx[k+1] spends tx[k]'s payment to a fresh key unfunded at genesis, so
  // each link's input exists only after the previous candidate applied.
  std::vector<crypto::KeyPair> fresh;
  for (int i = 0; i < 5; ++i) {
    fresh.push_back(crypto::KeyPair::FromSeed(6000 + i));
  }
  std::vector<Transaction> txs;
  LedgerState scratch = head_state();
  const chain::BlockEnv env{chain().id(), chain().head()->height() + 1, 100};
  {
    Wallet w = WalletFor(0);
    auto tx = w.BuildTransfer(scratch, fresh[0].public_key(), 500, 1, 9);
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(chain::ApplyTransaction(&scratch, *tx, env).ok());
    txs.push_back(std::move(*tx));
  }
  for (size_t i = 0; i + 1 < fresh.size(); ++i) {
    Wallet w(fresh[i], chain().id());
    auto tx = w.BuildTransfer(scratch, fresh[i + 1].public_key(),
                              400 - static_cast<Amount>(i) * 50, 1, 9);
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(chain::ApplyTransaction(&scratch, *tx, env).ok());
    txs.push_back(std::move(*tx));
  }
  const Block block = AssembleAndSubmit(txs);
  ASSERT_EQ(block.txs.size(), txs.size() + 1);
  for (size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(block.txs[i + 1].Id(), txs[i].Id()) << "position " << i;
  }
  EXPECT_EQ(head_state().BalanceOf(fresh.back().public_key()), 250);
}

TEST_F(SerialAssemblyTest, DoubleSpendPairsKeepFirstOfEach) {
  // Six pairs double-spending one wallet's funds (two Wallet instances
  // over one key do not see each other's reservations): FIFO selection
  // keeps the first of each pair and skips the second.
  std::vector<Transaction> txs;
  std::vector<crypto::Hash256> expected;
  for (size_t i = 0; i < 6; ++i) {
    Wallet first(keys_[i], chain().id());
    Wallet second(keys_[i], chain().id());
    auto a = first.BuildTransfer(head_state(), keys_[i + 1].public_key(), 900,
                                 1, 1);
    auto b = second.BuildTransfer(head_state(), keys_[i + 2].public_key(),
                                  900, 1, 2);
    ASSERT_TRUE(a.ok() && b.ok());
    expected.push_back(a->Id());
    txs.push_back(std::move(*a));
    txs.push_back(std::move(*b));
  }
  const Block block = AssembleAndSubmit(txs);
  ASSERT_EQ(block.txs.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(block.txs[i + 1].Id(), expected[i]) << "position " << i;
  }
}

TEST_F(SerialAssemblyTest, RepeatedAssemblyIsByteIdentical) {
  // Same parent, candidates, miner, time and rng seed: the same block,
  // through both overloads.
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 10; ++i) txs.push_back(Transfer(i, i + 3, 20, i));
  txs.push_back(txs[4]);  // A duplicate id is skipped the same way twice.
  std::vector<const Transaction*> pointers;
  for (const Transaction& tx : txs) pointers.push_back(&tx);
  const std::span<const Transaction* const> span(pointers);
  const crypto::PublicKey& miner = keys_[0].public_key();

  Rng r1(777), r2(777);
  auto a = chain().AssembleBlock(chain().head()->hash, span, miner, 100, &r1);
  auto b = chain().AssembleBlock(chain().head()->hash, span, miner, 100, &r2);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBlocksIdentical(*a, *b);
  EXPECT_EQ(a->txs.size(), 11u);

  Rng r3(5), r4(5);
  auto mined_span = chain().AssembleBlock(chain().head()->hash, span, miner,
                                          100, &r3);
  auto mined_vector =
      chain().AssembleBlock(chain().head()->hash, txs, miner, 100, &r4);
  ASSERT_TRUE(mined_span.ok() && mined_vector.ok());
  ExpectBlocksIdentical(*mined_span, *mined_vector);
  EXPECT_TRUE(chain().SubmitBlock(*mined_vector, 100).ok());
}

}  // namespace
}  // namespace ac3

// Shared test scaffolding: a hand-driven chain (no Poisson mining) so tests
// control exactly which transactions land in which block, and the mutation
// check every untrusted-bytes decoder runs under.

#ifndef AC3_TESTS_TEST_UTIL_H_
#define AC3_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/blockchain.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/common/random.h"
#include "src/core/scenario.h"

namespace ac3::testutil {

/// A blockchain the test advances manually, one block at a time.
class TestChain {
 public:
  TestChain(chain::ChainParams params,
            std::vector<chain::TxOutput> allocations, uint64_t seed = 42)
      : chain_(std::move(params), std::move(allocations)),
        rng_(seed),
        miner_(crypto::KeyPair::FromSeed(seed ^ 0xabcdef)) {}

  chain::Blockchain& chain() { return chain_; }
  const chain::Blockchain& chain() const { return chain_; }
  Rng* rng() { return &rng_; }
  TimePoint now() const { return now_; }

  /// Mines one block on the canonical head containing `txs` (best effort).
  Status MineBlock(const std::vector<chain::Transaction>& txs) {
    return MineBlockOn(chain_.head()->hash, txs);
  }

  /// Mines one block on an arbitrary parent — the raw material of fork
  /// experiments (two branches from the same parent).
  Status MineBlockOn(const crypto::Hash256& parent,
                     const std::vector<chain::Transaction>& txs) {
    now_ += 100;
    auto block =
        chain_.AssembleBlock(parent, txs, miner_.public_key(), now_, &rng_);
    if (!block.ok()) return block.status();
    return chain_.SubmitBlock(*block, now_);
  }

  /// Mines `count` empty blocks (to bury things).
  Status MineEmpty(int count) {
    for (int i = 0; i < count; ++i) {
      AC3_RETURN_IF_ERROR(MineBlock({}));
    }
    return Status::OK();
  }

  /// Mines until `tx_id` is on the canonical chain with >= depth
  /// confirmations (submitting `tx` in the next block).
  Status MineTxToDepth(const chain::Transaction& tx, uint32_t depth) {
    AC3_RETURN_IF_ERROR(MineBlock({tx}));
    if (!chain_.FindTx(tx.Id()).has_value()) {
      return Status::Internal("transaction not included");
    }
    return MineEmpty(static_cast<int>(depth));
  }

 private:
  chain::Blockchain chain_;
  Rng rng_;
  crypto::KeyPair miner_;
  TimePoint now_ = 0;
};

/// Funding allocation for a set of keys.
inline std::vector<chain::TxOutput> Fund(
    const std::vector<crypto::PublicKey>& keys, chain::Amount each) {
  std::vector<chain::TxOutput> out;
  for (const crypto::PublicKey& pk : keys) {
    out.push_back(chain::TxOutput{each, pk});
  }
  return out;
}

/// Transactions, receipts, headers, Merkle proofs, multisignatures and
/// header-chain evidence reach contracts as bytes built by untrusted
/// callers. `decode` maps bytes to a Result of a type with Encode(). Every
/// strict prefix of the valid encoding `wire` must be rejected; seeded
/// random byte flips must never crash the decoder; and whatever it accepts
/// must be the canonical encoding of what it decoded (re-encoding gives
/// back the same bytes, which decode again). Unless `expect_accepts` is
/// false (a decoder that verifies signatures over every byte it keeps),
/// some mutation must decode, so the canonicality check is not vacuous.
template <typename DecodeFn>
void ExpectDecoderSurvivesMutation(const char* what, const Bytes& wire,
                                   DecodeFn decode, uint64_t seed,
                                   bool expect_accepts = true) {
  for (size_t len = 0; len < wire.size(); ++len) {
    const Bytes cut(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode(cut).ok())
        << what << " accepted prefix of " << len << "/" << wire.size()
        << " bytes";
  }
  Rng rng(seed);
  size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    Bytes mutated = wire;
    const uint64_t flips = 1 + rng.NextBelow(4);
    for (uint64_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    auto decoded = decode(mutated);
    if (!decoded.ok()) continue;
    ++accepted;
    const Bytes reencoded = decoded->Encode();
    EXPECT_TRUE(reencoded == mutated)
        << what << " accepted a non-canonical encoding in trial " << trial;
    auto again = decode(reencoded);
    ASSERT_TRUE(again.ok()) << what << " rejected its own re-encoding";
    EXPECT_TRUE(again->Encode() == reencoded) << what << " trial " << trial;
  }
  if (expect_accepts) {
    EXPECT_GT(accepted, 0u) << what << ": no mutation ever decoded";
  }
}

/// Protocol-test world: an alias of the library's public scenario facade
/// (tests drove its design; examples and benches share it).
using SwapWorldOptions = core::ScenarioOptions;
using SwapWorld = core::ScenarioWorld;
using core::ScenarioParticipantSeed;

/// Back-compat shim for older test call sites.
inline uint64_t ParticipantSeed(int i) { return ScenarioParticipantSeed(i); }

}  // namespace ac3::testutil

#endif  // AC3_TESTS_TEST_UTIL_H_

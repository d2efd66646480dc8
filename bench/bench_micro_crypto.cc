// Engineering micro-benchmarks (google-benchmark): the cryptographic
// substrate every protocol operation rests on — SHA-256, Schnorr
// signatures, ms(D) multisignatures, Merkle trees, and the commitment
// schemes — plus the SHA-256 compression seam and the PoW nonce-prefix
// search on every dispatch rung.

#include <array>
#include <cstdint>

#include <benchmark/benchmark.h>

#include "bench/gbench_main.h"

#include "src/common/random.h"
#include "src/crypto/commitment.h"
#include "src/crypto/header_hasher.h"
#include "src/crypto/merkle.h"
#include "src/crypto/multisig.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"

namespace ac3::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash256::Of(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(256)->Arg(4096)->Arg(65536);

// ---- SHA-256 dispatch rungs ----------------------------------------------
//
// Argument 0 of the per-rung benchmarks is the Sha256::Dispatch level
// (0 scalar, 1 shani, 2 avx2); a rung this process cannot run is skipped.

/// Pins `state`'s dispatch level for one benchmark; restores on exit.
class RungScope {
 public:
  explicit RungScope(benchmark::State& state)
      : saved_(Sha256::ActiveDispatch()) {
    const auto level = static_cast<Sha256::Dispatch>(state.range(0));
    state.SetLabel(Sha256::DispatchName(level));
    ok_ = Sha256::SetDispatch(level);
    if (!ok_) state.SkipWithError("dispatch level unavailable");
  }
  ~RungScope() { Sha256::SetDispatch(saved_); }
  RungScope(const RungScope&) = delete;
  RungScope& operator=(const RungScope&) = delete;
  bool ok() const { return ok_; }

 private:
  Sha256::Dispatch saved_;
  bool ok_ = false;
};

void RungArgs(benchmark::internal::Benchmark* b) {
  for (int level = 0; level < 3; ++level) b->Arg(level);
}

/// Two single-block compressions per iteration, so BM_Compress and
/// BM_Compress2 time the same work.
void BM_Compress(benchmark::State& state) {
  RungScope rung(state);
  if (!rung.ok()) return;
  Rng rng(7);
  const Bytes block_a = rng.NextBytes(Sha256::kBlockSize);
  const Bytes block_b = rng.NextBytes(Sha256::kBlockSize);
  std::array<uint32_t, 8> state_a = Sha256::kInitialState;
  std::array<uint32_t, 8> state_b = Sha256::kInitialState;
  for (auto _ : state) {
    Sha256::Compress(state_a.data(), block_a.data());
    Sha256::Compress(state_b.data(), block_b.data());
    benchmark::DoNotOptimize(state_a.data());
    benchmark::DoNotOptimize(state_b.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Compress)->Apply(RungArgs);

/// The same two compressions through one Compress2 call.
void BM_Compress2(benchmark::State& state) {
  RungScope rung(state);
  if (!rung.ok()) return;
  Rng rng(7);
  const Bytes block_a = rng.NextBytes(Sha256::kBlockSize);
  const Bytes block_b = rng.NextBytes(Sha256::kBlockSize);
  std::array<uint32_t, 8> state_a = Sha256::kInitialState;
  std::array<uint32_t, 8> state_b = Sha256::kInitialState;
  for (auto _ : state) {
    Sha256::Compress2(state_a.data(), block_a.data(), state_b.data(),
                      block_b.data());
    benchmark::DoNotOptimize(state_a.data());
    benchmark::DoNotOptimize(state_b.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Compress2)->Apply(RungArgs);

/// PoW nonce search step: argument 1 nonces per PrefixesWithNonces call on
/// a 128-byte header preimage; items processed are nonces.
void BM_NoncePrefixes(benchmark::State& state) {
  RungScope rung(state);
  if (!rung.ok()) return;
  const auto width = static_cast<size_t>(state.range(1));
  Rng rng(8);
  HeaderHasher hasher(rng.NextBytes(128));
  uint64_t nonces[Sha256::kMaxLanes];
  uint64_t prefixes[Sha256::kMaxLanes];
  uint64_t nonce = rng.NextU64();
  for (auto _ : state) {
    for (size_t lane = 0; lane < width; ++lane) nonces[lane] = nonce + lane;
    hasher.PrefixesWithNonces(nonces, width, prefixes);
    benchmark::DoNotOptimize(prefixes);
    benchmark::ClobberMemory();
    nonce += width;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_NoncePrefixes)->ArgsProduct({{0, 1, 2}, {1, 2, 8}});

void BM_SchnorrSign(benchmark::State& state) {
  KeyPair key = KeyPair::FromSeed(7);
  Rng rng(2);
  Bytes message = rng.NextBytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Sign(message));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  KeyPair key = KeyPair::FromSeed(7);
  Rng rng(2);
  Bytes message = rng.NextBytes(64);
  Signature sig = key.Sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Verify(key.public_key(), message, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_MultisigVerifyAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  Bytes message = rng.NextBytes(128);
  Multisignature ms(message);
  std::vector<PublicKey> signers;
  for (int i = 0; i < n; ++i) {
    KeyPair key = KeyPair::FromSeed(100 + static_cast<uint64_t>(i));
    (void)ms.AddSignature(key);
    signers.push_back(key.public_key());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ms.VerifyAll(signers));
  }
}
BENCHMARK(BM_MultisigVerifyAll)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_MerkleBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<Hash256> leaves;
  for (size_t i = 0; i < n; ++i) leaves.push_back(Hash256::Of(rng.NextBytes(32)));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_MerkleProveVerify(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<Hash256> leaves;
  for (size_t i = 0; i < n; ++i) leaves.push_back(Hash256::Of(rng.NextBytes(32)));
  MerkleTree tree(leaves);
  auto proof = tree.Prove(n / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyMerkleProof(leaves[n / 2], *proof, tree.root()));
  }
}
BENCHMARK(BM_MerkleProveVerify)->Arg(64)->Arg(1024);

void BM_HashlockVerify(benchmark::State& state) {
  Rng rng(6);
  Bytes secret = rng.NextBytes(32);
  HashlockCommitment lock = HashlockCommitment::FromSecret(secret);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.VerifySecret(secret));
  }
}
BENCHMARK(BM_HashlockVerify);

void BM_SignatureCommitmentVerify(benchmark::State& state) {
  KeyPair trent = KeyPair::FromSeed(9);
  Hash256 ms_id = Hash256::Of(Bytes{1, 2, 3});
  SignatureCommitment commitment(ms_id, trent.public_key(),
                                 CommitmentTag::kRedeem);
  Signature secret =
      trent.Sign(SignatureCommitmentMessage(ms_id, CommitmentTag::kRedeem));
  for (auto _ : state) {
    benchmark::DoNotOptimize(commitment.VerifySecret(secret));
  }
}
BENCHMARK(BM_SignatureCommitmentVerify);

}  // namespace
}  // namespace ac3::crypto

int main(int argc, char** argv) {
  return ac3::benchutil::GBenchMain(argc, argv, "micro_crypto");
}

// Unit tests for the engine hot-path machinery introduced by the perf
// overhaul: the midstate PoW hasher, the persistent (copy-on-write)
// ledger maps and their node lifetimes, skip-pointer ancestry / branch
// membership, the incremental visible-head tracker, and the indexed
// mempool. Each test checks the fast
// path against the straightforward reference computation.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/common/persistent_map.h"
#include "src/common/random.h"
#include "src/core/environment.h"
#include "src/crypto/header_hasher.h"
#include "tests/dispatch_test_util.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

// ---- HeaderHasher ----------------------------------------------------------

chain::BlockHeader RandomHeader(Rng* rng) {
  chain::BlockHeader header;
  header.chain_id = static_cast<chain::ChainId>(rng->NextU64());
  header.height = rng->NextU64() % 100000;
  header.time = static_cast<TimePoint>(rng->NextU64() % 1000000);
  header.difficulty_bits = static_cast<uint32_t>(rng->NextU64() % 20);
  Bytes seed;
  for (int i = 0; i < 32; ++i) {
    seed.push_back(static_cast<uint8_t>(rng->NextU64()));
  }
  header.prev_hash = crypto::Hash256::Of(seed);
  seed.push_back(1);
  header.tx_root = crypto::Hash256::Of(seed);
  seed.push_back(2);
  header.receipt_root = crypto::Hash256::Of(seed);
  return header;
}

TEST(HeaderHasherTest, MidstateMatchesNaiveDoubleHash) {
  Rng rng(314);
  for (int trial = 0; trial < 8; ++trial) {
    chain::BlockHeader header = RandomHeader(&rng);
    uint8_t preimage[chain::BlockHeader::kEncodedSize];
    header.EncodeTo(preimage);
    crypto::HeaderHasher hasher(preimage);
    for (int n = 0; n < 16; ++n) {
      const uint64_t nonce = rng.NextU64();
      header.nonce = nonce;
      EXPECT_EQ(hasher.HashWithNonce(nonce),
                crypto::Hash256::DoubleOf(header.Encode()))
          << "trial " << trial << " nonce " << nonce;
      EXPECT_EQ(hasher.HashWithNonce(nonce), header.Hash());
    }
  }
}

TEST(HeaderHasherTest, SupportsArbitraryPreimageLengths) {
  Rng rng(2718);
  for (size_t len : {8u, 9u, 63u, 64u, 71u, 72u, 100u, 128u, 129u}) {
    Bytes preimage;
    for (size_t i = 0; i < len; ++i) {
      preimage.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    crypto::HeaderHasher hasher(preimage);
    const uint64_t nonce = rng.NextU64();
    Bytes patched = preimage;
    for (int i = 0; i < 8; ++i) {
      patched[len - 8 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(nonce >> (8 * i));
    }
    EXPECT_EQ(hasher.HashWithNonce(nonce), crypto::Hash256::DoubleOf(patched))
        << "preimage length " << len;
  }
}

TEST(MineHeaderTest, ProducesValidPowFromMidstate) {
  Rng rng(55);
  chain::BlockHeader header = RandomHeader(&rng);
  header.difficulty_bits = 8;
  const uint64_t evals = chain::MineHeader(&header, &rng);
  EXPECT_GE(evals, 1u);
  EXPECT_TRUE(chain::CheckProofOfWork(header));
}

using ::ac3::testutil::AvailableDispatches;
using ::ac3::testutil::DispatchGuard;

// PrefixesWithNonces must return exactly the Prefix64 of the scalar
// oracle's digest: for every batch width up to kMaxLanes, at the nonce
// edges where the W14/W15 halves carry or wrap, for preimage lengths that
// take the fused SHA-NI kernel (128, 192) and the batched compressions
// (72, 100, 129), and for a hasher built under one dispatch level and
// queried under another (the kernel is picked per call).
TEST(HeaderHasherTest, PrefixesMatchFullDigestOnEveryDispatch) {
  DispatchGuard guard;
  Rng rng(887766);
  std::vector<uint64_t> pool = {0, 1, 0xffffffffULL, 0x100000000ULL,
                                UINT64_MAX};
  while (pool.size() < 16) pool.push_back(rng.NextU64());
  for (size_t len : {72u, 100u, 128u, 129u, 192u}) {
    Bytes preimage;
    for (size_t i = 0; i < len; ++i) {
      preimage.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    for (crypto::Sha256::Dispatch built : AvailableDispatches()) {
      ASSERT_TRUE(crypto::Sha256::SetDispatch(built));
      crypto::HeaderHasher hasher(preimage);
      for (crypto::Sha256::Dispatch queried : AvailableDispatches()) {
        ASSERT_TRUE(crypto::Sha256::SetDispatch(queried));
        for (size_t n = 1; n <= crypto::Sha256::kMaxLanes; ++n) {
          for (size_t start = 0; start < pool.size(); ++start) {
            uint64_t nonces[crypto::Sha256::kMaxLanes];
            uint64_t prefixes[crypto::Sha256::kMaxLanes];
            for (size_t lane = 0; lane < n; ++lane) {
              nonces[lane] = pool[(start + lane) % pool.size()];
            }
            hasher.PrefixesWithNonces(nonces, n, prefixes);
            for (size_t lane = 0; lane < n; ++lane) {
              ASSERT_EQ(prefixes[lane],
                        hasher.HashWithNonce(nonces[lane]).Prefix64())
                  << "len " << len << " built "
                  << crypto::Sha256::DispatchName(built) << " queried "
                  << crypto::Sha256::DispatchName(queried) << " n " << n
                  << " nonce " << nonces[lane];
            }
          }
        }
      }
    }
  }
}

// The wide search must be observationally identical to the scalar
// oracle on EVERY dispatch level: same ascending visit order from the
// same random start, so the same winning nonce and the same
// visited-nonce count, at every lane offset the winner can land on
// (bits 0..11 sweep winners across both pair lanes and all 8 AVX2
// lanes).
TEST(MineHeaderTest, InterleavedVisitsSameNoncesAsScalar) {
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      for (uint32_t bits : {0u, 1u, 4u, 8u, 11u}) {
        Rng scalar_rng(seed * 1000 + bits);
        Rng fast_rng(seed * 1000 + bits);
        chain::BlockHeader scalar_header = RandomHeader(&scalar_rng);
        chain::BlockHeader fast_header = RandomHeader(&fast_rng);
        scalar_header.difficulty_bits = bits;
        fast_header.difficulty_bits = bits;
        const uint64_t scalar_evals =
            chain::MineHeaderScalar(&scalar_header, &scalar_rng);
        const uint64_t fast_evals = chain::MineHeader(&fast_header, &fast_rng);
        EXPECT_EQ(fast_header.nonce, scalar_header.nonce)
            << "level " << crypto::Sha256::DispatchName(level) << " seed "
            << seed << " bits " << bits;
        EXPECT_EQ(fast_evals, scalar_evals)
            << "level " << crypto::Sha256::DispatchName(level) << " seed "
            << seed << " bits " << bits;
        EXPECT_TRUE(chain::CheckProofOfWork(fast_header));
      }
    }
  }
}

// Block producers mine header after header from one shared Rng. The wide
// search must consume exactly the draws the scalar oracle does, so a whole
// sequence of headers — at mixed difficulties — lands on the same nonces
// and eval counts on every dispatch level, not only a single header from
// a fresh Rng.
TEST(MineHeaderTest, SharedRngSequenceMatchesScalarOracle) {
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    for (size_t count : {1u, 3u, 8u, 16u}) {
      Rng header_rng(count * 7);
      std::vector<chain::BlockHeader> scalar_headers;
      for (size_t i = 0; i < count; ++i) {
        chain::BlockHeader header = RandomHeader(&header_rng);
        header.difficulty_bits = static_cast<uint32_t>((i * 5) % 10);
        scalar_headers.push_back(header);
      }
      std::vector<chain::BlockHeader> fast_headers = scalar_headers;
      Rng scalar_rng(count * 100);
      Rng fast_rng(count * 100);
      for (size_t i = 0; i < count; ++i) {
        const uint64_t scalar_evals =
            chain::MineHeaderScalar(&scalar_headers[i], &scalar_rng);
        const uint64_t fast_evals =
            chain::MineHeader(&fast_headers[i], &fast_rng);
        EXPECT_EQ(fast_headers[i].nonce, scalar_headers[i].nonce)
            << "level " << crypto::Sha256::DispatchName(level) << " count "
            << count << " header " << i;
        EXPECT_EQ(fast_evals, scalar_evals)
            << "level " << crypto::Sha256::DispatchName(level) << " count "
            << count << " header " << i;
        EXPECT_TRUE(chain::CheckProofOfWork(fast_headers[i]));
      }
      // Both streams end in the same state.
      EXPECT_EQ(fast_rng.NextU64(), scalar_rng.NextU64());
    }
  }
}

// Golden re-pin of the deterministic PoW witness, mirroring the bench's
// --smoke pow parameters (bench_engine_hotpaths RunPow: 4 headers at 12
// bits from Rng seed 99; the committed full-run envelope pins the
// analogous 836367-eval witness at 16 bits). The wide search reproduces
// the scalar count by construction on every dispatch level; running the
// oracle and the wide loop on each available level pins the value
// against the implementations drifting together.
TEST(MineHeaderTest, GoldenEvalCountMatchesBenchWitness) {
  constexpr uint64_t kGoldenEvals = 15254;  // 4 headers, 12 bits, seed 99.
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    for (const bool interleaved : {false, true}) {
      Rng rng(99);
      uint64_t evals = 0;
      for (uint64_t i = 0; i < 4; ++i) {
        chain::BlockHeader header;
        header.chain_id = 1;
        header.height = i + 1;
        header.time = static_cast<TimePoint>(i * 100);
        header.difficulty_bits = 12;
        evals += interleaved ? chain::MineHeader(&header, &rng)
                             : chain::MineHeaderScalar(&header, &rng);
      }
      EXPECT_EQ(evals, kGoldenEvals)
          << "level " << crypto::Sha256::DispatchName(level)
          << " interleaved=" << interleaved;
    }
  }
}

// The committed full-run envelope (BENCH_engine_hotpaths.json
// results.pow.evaluations) pins 836367 evals for 16 headers at 16 bits,
// mined in order from Rng seed 99. One dispatch level suffices
// (GoldenEvalCountMatchesBenchWitness covers cross-level identity); the
// active level is whatever the environment pinned.
TEST(MineHeaderTest, GoldenFullRunEvalCountMatchesEnvelope) {
  constexpr uint64_t kGoldenEvals = 836367;
  Rng rng(99);
  uint64_t total = 0;
  for (uint64_t i = 0; i < 16; ++i) {
    chain::BlockHeader header;
    header.chain_id = 1;
    header.height = i + 1;
    header.time = static_cast<TimePoint>(i * 100);
    header.difficulty_bits = 16;
    total += chain::MineHeader(&header, &rng);
  }
  EXPECT_EQ(total, kGoldenEvals);
}

// ---- PersistentMap ---------------------------------------------------------

TEST(PersistentMapTest, MatchesStdMapUnderRandomOperations) {
  PersistentMap<uint64_t, uint64_t> fast;
  std::map<uint64_t, uint64_t> reference;
  Rng rng(161803);
  for (int op = 0; op < 4000; ++op) {
    const uint64_t key = rng.NextU64() % 257;  // Forces collisions/erases.
    const uint64_t value = rng.NextU64();
    switch (rng.NextU64() % 3) {
      case 0:
      case 1:  // Insert-heavy mix.
        fast.Put(key, value);
        reference[key] = value;
        break;
      case 2:
        EXPECT_EQ(fast.Erase(key), reference.erase(key) > 0);
        break;
    }
    ASSERT_EQ(fast.size(), reference.size());
  }
  // Lookups agree...
  for (uint64_t key = 0; key < 257; ++key) {
    auto it = reference.find(key);
    const uint64_t* found = fast.Find(key);
    ASSERT_EQ(found != nullptr, it != reference.end()) << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second);
    }
  }
  // ...and iteration is in identical (key) order.
  auto it = reference.begin();
  for (const auto& [key, value] : fast) {
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  }
  EXPECT_EQ(it, reference.end());
}

TEST(PersistentMapTest, SnapshotsAreIndependent) {
  PersistentMap<int, int> original;
  for (int i = 0; i < 100; ++i) original.Put(i, i * 10);

  PersistentMap<int, int> snapshot = original;  // O(1) copy.
  for (int i = 0; i < 100; i += 2) original.Erase(i);
  original.Put(1000, 1);

  // The snapshot still sees exactly the pre-mutation contents.
  EXPECT_EQ(snapshot.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(snapshot.Find(i), nullptr) << i;
    EXPECT_EQ(*snapshot.Find(i), i * 10);
  }
  EXPECT_EQ(snapshot.Find(1000), nullptr);
  // And the mutated handle sees its own changes.
  EXPECT_EQ(original.size(), 51u);
  EXPECT_EQ(original.Find(2), nullptr);
  ASSERT_NE(original.Find(1000), nullptr);
}

/// Element-wise equality of a PersistentMap with its std::map model, in
/// iteration order, plus the tree invariants.
bool SameAsModel(const PersistentMap<uint64_t, uint64_t>& map,
                 const std::map<uint64_t, uint64_t>& model) {
  if (map.size() != model.size() || !map.CheckInvariants()) return false;
  auto it = model.begin();
  for (const auto& [key, value] : map) {
    if (key != it->first || value != it->second) return false;
    ++it;
  }
  return true;
}

TEST(PersistentMapTest, InPlaceWritesNeverReachSnapshots) {
  // Random writes against a std::map model, with snapshots taken at random
  // points. Writes between snapshots hit nodes the live handle owns alone
  // (mutated in place); every snapshot must still equal the model copy
  // taken with it.
  PersistentMap<uint64_t, uint64_t> live;
  std::map<uint64_t, uint64_t> model;
  std::vector<PersistentMap<uint64_t, uint64_t>> snapshots;
  std::vector<std::map<uint64_t, uint64_t>> models;
  Rng rng(271828);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextU64() % 1024;
    const uint64_t roll = rng.NextU64() % 100;
    if (roll < 55) {
      const uint64_t value = rng.NextU64();
      live.Put(key, value);
      model[key] = value;
    } else if (roll < 98) {
      ASSERT_EQ(live.Erase(key), model.erase(key) > 0);
    } else {
      snapshots.push_back(live);
      models.push_back(model);
    }
    if (op % 997 == 0) {
      ASSERT_TRUE(SameAsModel(live, model)) << "op " << op;
    }
  }
  ASSERT_GT(snapshots.size(), 100u);
  EXPECT_TRUE(SameAsModel(live, model));
  for (size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_TRUE(SameAsModel(snapshots[i], models[i])) << "snapshot " << i;
  }
}

TEST(PersistentMapTest, WeightBalancedUnderSequentialAndRandomWrites) {
  // Ascending inserts are the worst case for rotations; erasing every
  // other key then re-exercises the two-child removal path.
  PersistentMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 5000; ++i) {
    map.Put(i, i);
    if (i % 250 == 0) {
      ASSERT_TRUE(map.CheckInvariants()) << i;
    }
  }
  for (uint64_t i = 0; i < 5000; i += 2) ASSERT_TRUE(map.Erase(i));
  EXPECT_TRUE(map.CheckInvariants());
  EXPECT_EQ(map.size(), 2500u);
  Rng rng(577);
  for (int op = 0; op < 5000; ++op) {
    const uint64_t key = rng.NextU64() % 8000;
    if (rng.NextU64() % 2 == 0) {
      map.Put(key, key);
    } else {
      map.Erase(key);
    }
  }
  EXPECT_TRUE(map.CheckInvariants());
}

TEST(PersistentMapTest, SnapshotOutlivesOriginMap) {
  PersistentMap<int, int> snapshot;
  {
    auto origin = std::make_unique<PersistentMap<int, int>>();
    for (int i = 0; i < 500; ++i) origin->Put(i, i * 3);
    snapshot = *origin;  // Shares every node with `origin`.
    origin->Erase(123);  // Diverge a little before dying.
  }                      // `origin` destroyed; snapshot keeps the nodes alive.
  ASSERT_EQ(snapshot.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_NE(snapshot.Find(i), nullptr) << i;
    EXPECT_EQ(*snapshot.Find(i), i * 3);
  }
}

TEST(PersistentMapTest, InterleavedSnapshotMutateChurn) {
  // Rolling snapshots + mutations: every round releases an old snapshot's
  // references (freeing the nodes only it held) while path-copying new
  // ones. A stale pointer or double free here is what the sanitizer build
  // catches byte-accurately.
  constexpr int kRounds = 2000;
  constexpr int kSnapshots = 7;
  PersistentMap<uint64_t, uint64_t> live;
  std::map<uint64_t, uint64_t> reference;
  std::vector<PersistentMap<uint64_t, uint64_t>> ring(kSnapshots);
  std::vector<std::map<uint64_t, uint64_t>> ring_reference(kSnapshots);
  Rng rng(90210);
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t key = rng.NextU64() % 193;
    if (rng.NextU64() % 4 == 0) {
      live.Erase(key);
      reference.erase(key);
    } else {
      const uint64_t value = rng.NextU64();
      live.Put(key, value);
      reference[key] = value;
    }
    const size_t slot = static_cast<size_t>(round) % kSnapshots;
    ring[slot] = live;  // Overwrite releases the oldest snapshot's nodes.
    ring_reference[slot] = reference;
  }
  for (size_t s = 0; s < kSnapshots; ++s) {
    EXPECT_TRUE(SameAsModel(ring[s], ring_reference[s])) << "snapshot " << s;
  }
}

/// A map value that counts its live instances, so a leaked node or a
/// value destroyed twice shows up as a wrong count in any build.
struct CountedValue {
  static inline int live = 0;
  explicit CountedValue(int v) : value(v) { ++live; }
  CountedValue(const CountedValue& other) : value(other.value) { ++live; }
  CountedValue& operator=(const CountedValue&) = default;
  ~CountedValue() { --live; }
  int value;
};

TEST(PersistentMapTest, ValuesDestroyedExactlyOnce) {
  using CountedMap = PersistentMap<int, CountedValue>;
  ASSERT_EQ(CountedValue::live, 0);
  {
    // Three maps in one family: `b` copies `a`, `c` copies `b`, and each
    // diverges. While nodes are shared, every value is held once per
    // distinct node, so the count lies between the largest map and the
    // sum of all three.
    auto a = std::make_unique<CountedMap>();
    for (int i = 0; i < 300; ++i) a->Put(i, CountedValue(i));
    EXPECT_EQ(CountedValue::live, 300);
    auto b = std::make_unique<CountedMap>(*a);
    EXPECT_EQ(CountedValue::live, 300);  // A copy shares, it allocates none.
    for (int i = 0; i < 300; i += 3) b->Erase(i);
    for (int i = 1000; i < 1050; ++i) b->Put(i, CountedValue(i));
    b->Put(7, CountedValue(-7));  // Replaces a value in place or in a clone.
    CountedMap c = *b;
    for (int i = 1; i < 300; i += 5) c.Erase(i);
    c.Put(2000, CountedValue(2000));
    const size_t sum = a->size() + b->size() + c.size();
    EXPECT_GE(CountedValue::live, static_cast<int>(b->size()));
    EXPECT_LE(CountedValue::live, static_cast<int>(sum));

    // Destroy out of creation order: the middle map, then the oldest. The
    // survivor then owns every live node, one value each.
    b.reset();
    EXPECT_LE(CountedValue::live, static_cast<int>(a->size() + c.size()));
    a.reset();
    EXPECT_EQ(CountedValue::live, static_cast<int>(c.size()));
    ASSERT_NE(c.Find(7), nullptr);
    EXPECT_EQ(c.Find(7)->value, -7);
    EXPECT_EQ(c.Find(2000)->value, 2000);

    // Erasing everything from the last map frees every value while the
    // (now empty) handle is still alive.
    std::vector<int> keys;
    for (const auto& [key, value] : c) keys.push_back(key);
    for (int key : keys) EXPECT_TRUE(c.Erase(key));
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(CountedValue::live, 0);
    c.Put(1, CountedValue(1));
  }
  EXPECT_EQ(CountedValue::live, 0);
}

TEST(LedgerStateTest, CopyOnWriteSemantics) {
  testutil::TestChain tc(chain::TestChainParams(),
                         testutil::Fund({crypto::KeyPair::FromSeed(1)
                                             .public_key()},
                                        500));
  const chain::LedgerState& head_state = tc.chain().StateAtHead();
  chain::LedgerState copy = head_state;  // O(1) persistent snapshot.

  chain::Wallet wallet(crypto::KeyPair::FromSeed(1), tc.chain().id());
  auto tx = wallet.BuildTransfer(copy, crypto::KeyPair::FromSeed(2).public_key(),
                                 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  chain::BlockEnv env{tc.chain().id(), 1, 100};
  ASSERT_TRUE(chain::ApplyTransaction(&copy, *tx, env).ok());

  // The head state is untouched by mutations of its copy.
  EXPECT_EQ(head_state.BalanceOf(crypto::KeyPair::FromSeed(1).public_key()),
            500u);
  EXPECT_EQ(copy.BalanceOf(crypto::KeyPair::FromSeed(1).public_key()), 399u);
  EXPECT_EQ(copy.BalanceOf(crypto::KeyPair::FromSeed(2).public_key()), 100u);
}

// ---- ancestry + branch membership ------------------------------------------

TEST(AncestryTest, GetAncestorMatchesParentWalk) {
  testutil::TestChain tc(chain::TestChainParams(), {});
  ASSERT_TRUE(tc.MineEmpty(64).ok());
  const chain::BlockEntry* head = tc.chain().head();
  for (uint64_t target = 0; target <= head->height(); ++target) {
    const chain::BlockEntry* slow = head;
    while (slow->height() > target) slow = slow->parent;
    EXPECT_EQ(tc.chain().GetAncestor(head, target), slow) << target;
  }
  EXPECT_EQ(tc.chain().GetAncestor(head, head->height() + 1), nullptr);
}

TEST(AncestryTest, TxOnBranchDistinguishesForks) {
  const crypto::KeyPair alice = crypto::KeyPair::FromSeed(1);
  testutil::TestChain tc(chain::TestChainParams(),
                         testutil::Fund({alice.public_key()}, 500));
  ASSERT_TRUE(tc.MineEmpty(3).ok());
  const crypto::Hash256 fork_point = tc.chain().head()->hash;

  // Branch A carries the transfer; branch B (same parent) does not.
  chain::Wallet wallet(alice, tc.chain().id());
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                 crypto::KeyPair::FromSeed(2).public_key(),
                                 50, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlockOn(fork_point, {*tx}).ok());
  const chain::BlockEntry* tip_a = tc.chain().head();
  ASSERT_TRUE(tc.MineBlockOn(fork_point, {}).ok());
  const chain::BlockEntry* tip_b =
      tc.chain().head() == tip_a
          ? nullptr  // Ties keep the first-seen head; find B by walking.
          : tc.chain().head();
  if (tip_b == nullptr) {
    tc.chain().ForEachEntry(
        [&](const crypto::Hash256& hash, const chain::BlockEntry& entry) {
          (void)hash;
          if (entry.height() == tip_a->height() && &entry != tip_a) {
            tip_b = &entry;
          }
        });
  }
  ASSERT_NE(tip_b, nullptr);

  EXPECT_TRUE(tc.chain().TxOnBranch(*tip_a, tx->Id()));
  EXPECT_FALSE(tc.chain().TxOnBranch(*tip_b, tx->Id()));
  // Genesis coinbase is on every branch; unknown ids on none.
  const crypto::Hash256 genesis_tx_id = tc.chain().genesis_tx().Id();
  EXPECT_TRUE(tc.chain().TxOnBranch(*tip_a, genesis_tx_id));
  EXPECT_TRUE(tc.chain().TxOnBranch(*tip_b, genesis_tx_id));
  EXPECT_FALSE(tc.chain().TxOnBranch(*tip_a, crypto::Hash256()));
}

// ---- incremental visible head ----------------------------------------------

// The reference the incremental tracker must reproduce: a full scan over
// every stored entry for the heaviest one whose gossip has reached
// `miner` by `now`, ties to the earlier arrival.
const chain::BlockEntry* FullScanVisibleHead(const chain::Blockchain& chain,
                                         const chain::MiningNetwork& miners,
                                         int miner, TimePoint now) {
  const chain::BlockEntry* best = chain.genesis();
  chain.ForEachEntry([&](const crypto::Hash256& hash,
                         const chain::BlockEntry& entry) {
    if (entry.arrival_time + miners.GossipDelay(hash, miner) > now) return;
    if (entry.total_work > best->total_work ||
        (entry.total_work == best->total_work &&
         entry.arrival_seq < best->arrival_seq)) {
      best = &entry;
    }
  });
  return best;
}

TEST(VisibleHeadTest, IncrementalMatchesFullScan) {
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;
  params.block_interval = Milliseconds(60);  // Dense arrivals: many forks.
  core::Environment env(/*seed=*/99);
  chain::MiningConfig mining;
  mining.miner_count = 4;
  mining.max_propagation_delay = Milliseconds(80);
  const chain::ChainId id = env.AddChain(params, {}, mining);
  env.StartMining();
  const chain::Blockchain* chain = env.blockchain(id);
  ASSERT_TRUE(env.sim()
                  ->RunUntilCondition([&]() { return chain->height() >= 80; },
                                      Hours(1))
                  .ok());
  env.StopMining();
  const chain::MiningNetwork* miners = env.miners(id);
  ASSERT_GT(chain->block_count(), chain->height());  // Forks happened.

  // Each miner's tracker was last queried by its own production, at or
  // before `now`; queries at rising times fold in the blocks still in
  // flight and must agree with the scan at every step.
  const TimePoint now = env.sim()->Now();
  for (int miner = 0; miner < mining.miner_count; ++miner) {
    for (const TimePoint at : {now, now + Milliseconds(20),
                               now + Milliseconds(80), now + 1000}) {
      EXPECT_EQ(miners->VisibleHead(miner, at),
                FullScanVisibleHead(*chain, *miners, miner, at))
          << "miner " << miner << " at " << at;
    }
  }
}

TEST(VisibleHeadTest, GossipDelayIsZeroForProducerAndBoundedElsewhere) {
  // The per-(block, miner) delay both trackers read: each mined block is
  // instantly visible to one miner (its producer), reaches every other
  // within max_propagation_delay, and draws the same delay on every call.
  chain::ChainParams params = chain::TestChainParams();
  core::Environment env(/*seed=*/7);
  chain::MiningConfig mining;
  mining.miner_count = 4;
  mining.max_propagation_delay = Milliseconds(80);
  const chain::ChainId id = env.AddChain(params, {}, mining);
  env.StartMining();
  const chain::Blockchain* chain = env.blockchain(id);
  ASSERT_TRUE(env.sim()
                  ->RunUntilCondition([&]() { return chain->height() >= 20; },
                                      Hours(1))
                  .ok());
  env.StopMining();
  const chain::MiningNetwork* miners = env.miners(id);
  int positive = 0;
  for (const chain::BlockEntry* entry : chain->arrival_order()) {
    if (entry->height() == 0) continue;
    Duration fastest = mining.max_propagation_delay + 1;
    for (int miner = 0; miner < mining.miner_count; ++miner) {
      const Duration delay = miners->GossipDelay(entry->hash, miner);
      EXPECT_GE(delay, 0);
      EXPECT_LE(delay, mining.max_propagation_delay);
      EXPECT_EQ(miners->GossipDelay(entry->hash, miner), delay);
      fastest = std::min(fastest, delay);
      if (delay > 0) ++positive;
    }
    EXPECT_EQ(fastest, 0) << "block at height " << entry->height();
  }
  EXPECT_GT(positive, 0);  // Gossip is not instantaneous.
}

// ---- mempool ---------------------------------------------------------------

chain::Transaction SignedTransfer(uint64_t nonce) {
  chain::Transaction tx;
  tx.type = chain::TxType::kTransfer;
  tx.nonce = nonce;
  tx.SignWith(crypto::KeyPair::FromSeed(1));
  return tx;
}

TEST(MempoolIndexTest, OutOfOrderArrivalsStaySorted) {
  chain::Mempool pool;
  const chain::Transaction t1 = SignedTransfer(1);
  const chain::Transaction t2 = SignedTransfer(2);
  const chain::Transaction t3 = SignedTransfer(3);
  ASSERT_TRUE(pool.Submit(t1, 300).ok());
  ASSERT_TRUE(pool.Submit(t2, 100).ok());  // Arrives out of order.
  ASSERT_TRUE(pool.Submit(t3, 300).ok());  // Ties keep submission order.

  auto candidates = pool.CandidatePointersAt(300, chain::Mempool::TxFilter());
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
  EXPECT_EQ(candidates[1]->Id(), t1.Id());
  EXPECT_EQ(candidates[2]->Id(), t3.Id());
  EXPECT_EQ(pool.CandidatePointersAt(200, chain::Mempool::TxFilter()).size(),
            1u);
}

TEST(MempoolIndexTest, FilterCallbackExcludes) {
  chain::Mempool pool;
  const chain::Transaction t1 = SignedTransfer(1);
  const chain::Transaction t2 = SignedTransfer(2);
  ASSERT_TRUE(pool.Submit(t1, 0).ok());
  ASSERT_TRUE(pool.Submit(t2, 0).ok());
  auto candidates = pool.CandidatePointersAt(
      10, [&](const crypto::Hash256& id) { return id == t1.Id(); });
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
}

TEST(MempoolIndexTest, PruneDropsEntriesAndIdsTogether) {
  chain::Mempool pool;
  std::vector<chain::Transaction> txs;
  for (uint64_t i = 0; i < 10; ++i) {
    txs.push_back(SignedTransfer(i + 1));
    ASSERT_TRUE(pool.Submit(txs.back(), static_cast<TimePoint>(i)).ok());
  }
  std::vector<crypto::Hash256> included;
  for (size_t i = 0; i < txs.size(); i += 2) included.push_back(txs[i].Id());
  pool.Prune(included);
  EXPECT_EQ(pool.size(), 5u);
  for (size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(pool.Contains(txs[i].Id()), i % 2 == 1) << i;
  }
  // Survivors keep arrival order.
  auto candidates = pool.CandidatePointersAt(100, chain::Mempool::TxFilter());
  ASSERT_EQ(candidates.size(), 5u);
  for (size_t i = 0; i + 1 < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i]->nonce + 2, candidates[i + 1]->nonce);
  }
}

}  // namespace
}  // namespace ac3

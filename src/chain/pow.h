// Proof of work: mining and verification.
//
// A header satisfies PoW when its double-SHA-256 hash has at least
// `difficulty_bits` leading zero bits. Difficulty is fixed per chain (no
// retargeting — the simulator schedules block arrival times explicitly, so
// PoW here provides the *verifiability* that Section 4.3's evidence checks
// need, not the timing).

#ifndef AC3_CHAIN_POW_H_
#define AC3_CHAIN_POW_H_

#include <cstdint>

#include "src/chain/block.h"
#include "src/common/random.h"
#include "src/common/status.h"

namespace ac3::chain {

/// True when `hash` has >= `difficulty_bits` leading zero bits. Defined
/// for every u32: a requirement above 256 bits is never met.
bool HashMeetsDifficulty(const crypto::Hash256& hash, uint32_t difficulty_bits);

/// True when the header's own hash meets its declared difficulty.
bool CheckProofOfWork(const BlockHeader& header);

/// Searches nonces (starting from a random offset drawn from `rng`, in
/// ascending order) until the header meets its difficulty; mutates
/// `header->nonce`. Returns the number of nonces visited up to and
/// including the winner — a deterministic function of the seed, pinned by
/// the committed BENCH witnesses.
///
/// The search asks HeaderHasher::PrefixesWithNonces for
/// Sha256::PreferredMiningLanes() consecutive nonces per loop iteration
/// — two on the scalar and SHA-NI dispatch levels, eight on the AVX2
/// message-parallel level — and compares only each digest's first 64
/// bits; above 64 difficulty bits a zero prefix is confirmed against the
/// full digest. Lanes are checked in ascending nonce order, so the
/// winning nonce and the returned count are identical to
/// MineHeaderScalar on every dispatch level — only the wall-clock per
/// nonce changes.
uint64_t MineHeader(BlockHeader* header, Rng* rng);

/// The one-nonce-at-a-time reference search. Kept as the equivalence
/// oracle for MineHeader (tests assert identical winning nonces and eval
/// counts across a seed/difficulty grid); not used on the hot path.
uint64_t MineHeaderScalar(BlockHeader* header, Rng* rng);

/// Expected work contributed by one block of the given difficulty
/// (2^difficulty_bits hash evaluations). Used by the longest-chain rule.
double WorkForDifficulty(uint32_t difficulty_bits);

}  // namespace ac3::chain

#endif  // AC3_CHAIN_POW_H_

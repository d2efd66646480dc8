#include "src/chain/pow.h"

#include <bit>
#include <cmath>

#include "src/crypto/header_hasher.h"

namespace ac3::chain {

namespace {

/// Whether a digest whose first 64 bits are `prefix` can meet
/// `difficulty_bits`: decisive up to 64 bits; above that a zero prefix is
/// only a candidate, which the full digest must confirm.
bool PrefixMeetsDifficulty(uint64_t prefix, uint32_t difficulty_bits) {
  if (difficulty_bits == 0) return true;
  if (difficulty_bits >= 64) return prefix == 0;
  return (prefix >> (64 - difficulty_bits)) == 0;
}

}  // namespace

bool HashMeetsDifficulty(const crypto::Hash256& hash,
                         uint32_t difficulty_bits) {
  // `difficulty_bits` can come straight from a decoded payload, so every
  // u32 is a defined input: count zeros over the whole digest, and no
  // digest has more than 256.
  if (difficulty_bits > 8 * crypto::Hash256::kSize) return false;
  uint32_t zeros = 0;
  for (const uint8_t byte : hash.data()) {
    if (byte != 0) {
      zeros += static_cast<uint32_t>(std::countl_zero(byte));
      break;
    }
    zeros += 8;
  }
  return zeros >= difficulty_bits;
}

bool CheckProofOfWork(const BlockHeader& header) {
  return HashMeetsDifficulty(header.Hash(), header.difficulty_bits);
}

uint64_t MineHeader(BlockHeader* header, Rng* rng) {
  // Encode once; the nonce search only re-hashes from the cached SHA-256
  // midstate of the fixed prefix. The loop width follows the active
  // SHA-256 dispatch level (2 lanes on the scalar/SHA-NI rungs, 8 on
  // AVX2); lanes are checked in ascending nonce order, so whatever the
  // width, the winning nonce and the returned count — nonces visited up
  // to and including the winner — match MineHeaderScalar exactly (the
  // later-lane hashes of a win are the only extra work, amortized over
  // ~2^difficulty attempts).
  uint8_t preimage[BlockHeader::kEncodedSize];
  header->EncodeTo(preimage);
  crypto::HeaderHasher hasher(preimage);
  const uint32_t bits = header->difficulty_bits;
  const size_t lanes = crypto::Sha256::PreferredMiningLanes();
  uint64_t nonces[crypto::Sha256::kMaxLanes];
  uint64_t prefixes[crypto::Sha256::kMaxLanes];
  uint64_t nonce = rng->NextU64();
  for (uint64_t evaluations = 0;; evaluations += lanes, nonce += lanes) {
    for (size_t lane = 0; lane < lanes; ++lane) nonces[lane] = nonce + lane;
    hasher.PrefixesWithNonces(nonces, lanes, prefixes);
    for (size_t lane = 0; lane < lanes; ++lane) {
      if (PrefixMeetsDifficulty(prefixes[lane], bits) &&
          (bits <= 64 ||
           HashMeetsDifficulty(hasher.HashWithNonce(nonces[lane]), bits))) {
        header->nonce = nonces[lane];
        return evaluations + lane + 1;
      }
    }
  }
}

uint64_t MineHeaderScalar(BlockHeader* header, Rng* rng) {
  uint8_t preimage[BlockHeader::kEncodedSize];
  header->EncodeTo(preimage);
  crypto::HeaderHasher hasher(preimage);
  uint64_t nonce = rng->NextU64();
  uint64_t evaluations = 0;
  for (;;) {
    ++evaluations;
    if (HashMeetsDifficulty(hasher.HashWithNonce(nonce),
                            header->difficulty_bits)) {
      header->nonce = nonce;
      return evaluations;
    }
    ++nonce;
  }
}

double WorkForDifficulty(uint32_t difficulty_bits) {
  return std::pow(2.0, static_cast<double>(difficulty_bits));
}

}  // namespace ac3::chain

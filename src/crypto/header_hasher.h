// HeaderHasher: zero-allocation double-SHA-256 for proof-of-work nonce
// search.
//
// A PoW header preimage is a fixed-length encoding whose final 8 bytes are
// the little-endian nonce. The naive loop re-encodes the header into a
// heap buffer and hashes it from scratch on every attempt. HeaderHasher
// instead does all invariant work ONCE at construction:
//
//   * absorbs the largest 64-byte-aligned prefix that cannot overlap the
//     nonce, caching the SHA-256 compression midstate;
//   * pre-pads the remaining tail (FIPS 180-4 padding is a pure function
//     of the total length, which never changes across nonce attempts);
//   * pre-pads the fixed-shape second-hash block (32-byte digest + pad).
//
// For the 128-byte block header that leaves the nonce block, one constant
// padding block and the outer block: 192 rounds per nonce, where the
// naive path runs 256 plus a heap re-encode.
//
// The nonce search itself asks only whether a hash is small, so its API,
// PrefixesWithNonces, returns the big-endian first 64 bits of each digest
// (what Hash256::Prefix64 reads) for up to Sha256::kMaxLanes nonces per
// call. On the SHA-NI dispatch level, when the tail after the midstate is
// exactly one 64-byte block (every preimage whose length is a multiple of
// 64, the block header included), it runs a fused kernel
// (simd::NoncePrefixesShaNi): rounds 0-13 of the nonce block and the whole
// padding-block schedule are cached at construction, so a nonce costs
// 50 + 64 + 64 rounds, two nonces interleaved, with no digest bytes in
// memory. Otherwise it runs the tail compressions through
// Sha256::CompressBatch — the AVX2 level turns a full batch of 8 into one
// message-parallel compression per block — and reads the prefix from
// state words 0-1. Results are bit-identical to HashWithNonce on every
// dispatch level (pinned by tests/hotpath_test.cc and
// tests/crypto_test.cc).

#ifndef AC3_CRYPTO_HEADER_HASHER_H_
#define AC3_CRYPTO_HEADER_HASHER_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/crypto/hash256.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_simd.h"

namespace ac3::crypto {

class HeaderHasher {
 public:
  /// Longest supported padded tail, kept on the stack. The unpadded tail
  /// is at most 63 + 8 bytes, which pads to at most two blocks.
  static constexpr size_t kMaxTail = 2 * Sha256::kBlockSize;

  /// `preimage` is the full encoded header, including placeholder bytes
  /// for the trailing little-endian u64 nonce. Must be at least 8 bytes.
  explicit HeaderHasher(std::span<const uint8_t> preimage);

  /// Double SHA-256 of the preimage with its trailing 8 bytes replaced by
  /// `nonce` (little-endian). Allocation-free.
  Hash256 HashWithNonce(uint64_t nonce);

  /// For each of the `n <= Sha256::kMaxLanes` nonces, the big-endian
  /// first 64 bits of HashWithNonce(nonces[i]) — its Prefix64() — into
  /// prefixes[i]. The kernel follows Sha256::ActiveDispatch() at call
  /// time (fused SHA-NI kernel, or batched compressions), so a hasher may
  /// be built under one dispatch level and queried under another.
  void PrefixesWithNonces(const uint64_t* nonces, size_t n,
                          uint64_t* prefixes);

 private:
  /// Writes `nonce` little-endian into `tail`'s nonce hole.
  void PatchNonce(uint8_t* tail, uint64_t nonce) const;

  /// Runs the tail and outer compressions for nonces[i], one lane each,
  /// leaving the outer chaining value (the digest's eight big-endian
  /// words) in states[i].
  void CompressLanes(const uint64_t* nonces, size_t n,
                     std::array<uint32_t, 8>* states);

  /// Chaining value after the fixed 64-byte-aligned prefix.
  std::array<uint32_t, 8> midstate_;
  size_t tail_len_ = 0;     ///< Unpadded tail bytes (nonce hole at the end).
  size_t tail_blocks_ = 0;  ///< Padded tail length in 64-byte blocks.
  /// Per-lane pre-padded tail images; only the 8 nonce bytes change
  /// between attempts (lane 0 serves the scalar path, lanes 0..n-1 a
  /// batch).
  uint8_t tails_[Sha256::kMaxLanes][kMaxTail];
  /// Per-lane pre-padded second-hash blocks; the leading 32 bytes are
  /// overwritten with the inner digest per attempt.
  uint8_t seconds_[Sha256::kMaxLanes][Sha256::kBlockSize];
  /// Nonce-invariant state of the fused SHA-NI kernel; prepared when the
  /// tail is one nonce block plus one padding block and the SHA-NI level
  /// is available in this process.
  bool nonce_plan_ready_ = false;
  simd::NoncePlan nonce_plan_;
};

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_HEADER_HASHER_H_

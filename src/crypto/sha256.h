// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the system's only hash function: it backs transaction / block /
// graph identifiers, Merkle trees, hashlocks (the paper's commitment-scheme
// example), proof-of-work, and deterministic Schnorr nonces.

#ifndef AC3_CRYPTO_SHA256_H_
#define AC3_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"

namespace ac3::crypto {

/// Incremental SHA-256 context. Typical use:
///   Sha256 h; h.Update(a); h.Update(b); auto digest = h.Finish();
///
/// Contexts are plain copyable values: copying one after absorbing a
/// prefix captures the compression-function midstate, which is how the
/// proof-of-work HeaderHasher avoids re-hashing the fixed header prefix on
/// every nonce attempt.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(std::span<const uint8_t> data) {
    Update(data.data(), data.size());
  }

  /// Pads, finalizes, and returns the 32-byte digest. The context must not
  /// be reused afterwards.
  std::array<uint8_t, kDigestSize> Finish();

  /// One-shot convenience (accepts Bytes, arrays, and spans alike).
  static std::array<uint8_t, kDigestSize> Digest(
      std::span<const uint8_t> data);

  // ---- raw compression-function access (proof-of-work hot path) ----------
  //
  // The nonce-search loop in crypto::HeaderHasher drives the compression
  // function directly — it does its own padding once, up front, and then
  // re-compresses only the nonce-bearing blocks per attempt. These hooks
  // exist for that path; everything else should use Update()/Finish().
  //
  // All of them are runtime-dispatched: a one-time cpuid probe installs
  // the widest available hardware kernel (the "dispatch ladder":
  // SHA-NI > AVX2 8-way > portable scalar), and every level computes
  // bit-identical digests — the scalar code is the permanent oracle the
  // dispatch-equivalence tests hold the hardware paths against.

  /// The initial chaining value H(0) (FIPS 180-4, section 5.3.3).
  static constexpr std::array<uint32_t, 8> kInitialState = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  /// One compression-function application: folds the 64-byte `block` into
  /// the 8-word chaining value `state` in place.
  static void Compress(uint32_t* state, const uint8_t* block);

  /// Two independent compressions. On the scalar rung their rounds are
  /// interleaved in one loop: SHA-256's 64 rounds form a serial
  /// dependency chain, so a single compression leaves superscalar
  /// execution units idle, and a second independent chain fills them. On
  /// the SHA-NI rung it is two single compressions, which measured faster
  /// than an interleaved pair.
  static void Compress2(uint32_t* state_a, const uint8_t* block_a,
                        uint32_t* state_b, const uint8_t* block_b);

  /// Widest batch CompressBatch accelerates in one step.
  static constexpr size_t kMaxLanes = 8;

  /// `n` independent compressions: folds blocks[i] into states[i] for
  /// i in [0, n). Runs 8-at-a-time on the AVX2 level, then pairs through
  /// Compress2, then a scalar remainder — so any `n` is valid on any
  /// level and the per-lane results always equal Compress().
  static void CompressBatch(uint32_t* const* states,
                            const uint8_t* const* blocks, size_t n);

  // ---- runtime dispatch ---------------------------------------------------

  /// The hardware levels of the compression-function dispatch ladder.
  enum class Dispatch {
    kScalar,  ///< Portable C++ — always available; the equivalence oracle.
    kShaNi,   ///< x86 SHA-NI kernels (preferred when present).
    kAvx2,    ///< AVX2 8-way message-parallel kernel.
  };

  /// True when `dispatch` can run here. Scalar is always available; the
  /// hardware levels require cpuid support AND survive the
  /// AC3_SHA256_DISPATCH pin (a pinned process reports only the pinned
  /// level as available, so forced-fallback CI shards stay airtight).
  static bool DispatchAvailable(Dispatch dispatch);

  /// The active level. Defaults to the widest available rung of the
  /// ladder (SHA-NI > AVX2 > scalar); the AC3_SHA256_DISPATCH environment
  /// variable ("scalar", "shani", "avx2") pins it for the whole process
  /// (ignored when it names an unavailable level).
  static Dispatch ActiveDispatch();

  /// Stable lowercase name of a level: "scalar", "shani", "avx2".
  static const char* DispatchName(Dispatch dispatch);

  /// Forces the active level (for tests and the dispatch bench); returns
  /// false — leaving the active level unchanged — when `dispatch` is
  /// unavailable. Not thread-safe against concurrent hashing.
  static bool SetDispatch(Dispatch dispatch);

  /// Independent nonce lanes the active level wants per mining loop
  /// iteration: 8 on the AVX2 level, otherwise 2 (one Compress2 pair on
  /// the scalar rung, one interleaved pair of the fused nonce kernel on
  /// SHA-NI).
  static size_t PreferredMiningLanes();

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  uint64_t bit_count_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_SHA256_H_

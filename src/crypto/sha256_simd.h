// Internal: hardware SHA-256 compression kernels behind Sha256's runtime
// dispatch (see sha256.h). Nothing here is part of the public API — the
// consumers are sha256.cc, which probes the CPU once and installs the
// widest available kernel set, and header_hasher.cc, which runs the fused
// proof-of-work nonce kernel. Two x86 families are implemented:
//
//   * SHA-NI (sha extensions + SSE4.1): hardware round/schedule
//     instructions. Besides the single-block compression there is a fused
//     double-SHA-256 nonce kernel for headers whose nonce block is the
//     last message block (see NoncePlan).
//   * AVX2 8-way: message-parallel — eight independent compressions, one
//     32-bit lane each, a direct vectorization of the scalar rounds.
//
// Every kernel computes bit-identical results to Sha256's scalar
// compression (the dispatch-equivalence tests in tests/crypto_test.cc and
// the nonce-prefix and mining goldens in tests/hotpath_test.cc hold each
// one against the scalar oracle).

#ifndef AC3_CRYPTO_SHA256_SIMD_H_
#define AC3_CRYPTO_SHA256_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace ac3::crypto::simd {

/// True when the CPU supports the SHA extensions (plus the SSE4.1 the
/// kernels' shuffles need). False on non-x86 builds. Probed once.
bool CpuHasShaNi();

/// True when the CPU and OS support AVX2 (OSXSAVE with YMM state
/// enabled). False on non-x86 builds. Probed once.
bool CpuHasAvx2();

/// The nonce-invariant work of a double-SHA-256 whose message ends in one
/// 64-byte "nonce block" carrying the little-endian u64 nonce in its last
/// 8 bytes (schedule words W14/W15), followed by one constant padding
/// block. Rounds 0-13 of the nonce block read only W0-W13, so their
/// result is fixed; the padding block's whole schedule is fixed. Rows are
/// kept in the SHA-NI register layout: states as (ABEF, CDGH) pairs,
/// schedule terms as four consecutive words, lane 0 first.
struct NoncePlan {
  /// Chaining value before the nonce block (its feed-forward).
  alignas(16) uint32_t midstate[2][4];
  /// Working state after rounds 0-13 of the nonce block.
  alignas(16) uint32_t after_round13[2][4];
  /// Raw nonce-block bytes 48-63: W12, W13 and the nonce hole.
  alignas(16) uint8_t last_row[16];
  /// Nonce-free parts of schedule rows 4-6: msg1(W0-3, W4-7) + W9-W12,
  /// msg1(W4-7, W8-11) and msg1(W8-11, W12-15).
  alignas(16) uint32_t schedule[3][4];
  /// W+K of all 64 rounds of the padding block.
  alignas(16) uint32_t padding_wk[16][4];
};

#if defined(__x86_64__) || defined(__i386__)

/// One SHA-NI compression: folds the 64-byte `block` into `state`.
void CompressShaNi(uint32_t* state, const uint8_t* block);

/// Eight independent AVX2 compressions: folds blocks[i] into states[i]
/// for i in [0, 8), one 32-bit SIMD lane per compression.
void Compress8Avx2(uint32_t* const* states, const uint8_t* const* blocks);

/// Fills `plan` for the message whose chaining value before the nonce
/// block is `midstate` and whose last two blocks are `tail` (nonce block,
/// then padding block; the nonce bytes are ignored). Requires SHA-NI.
void PrepareNoncePlanShaNi(const uint32_t* midstate, const uint8_t* tail,
                           NoncePlan* plan);

/// For each of the `n` nonces, the big-endian first 64 bits (state words
/// H0 and H1) of the double SHA-256 of `plan`'s message with that nonce:
/// the inner hash runs rounds 14-63 of the nonce block and the 64
/// padding-block rounds, and its state feeds the outer block's W0-W7 by
/// register shuffles. Two nonces run interleaved. Requires SHA-NI.
void NoncePrefixesShaNi(const NoncePlan& plan, const uint64_t* nonces,
                        size_t n, uint64_t* prefixes);

#endif  // x86

}  // namespace ac3::crypto::simd

#endif  // AC3_CRYPTO_SHA256_SIMD_H_

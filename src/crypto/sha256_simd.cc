#include "src/crypto/sha256_simd.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define AC3_SHA256_X86 1
#endif

namespace ac3::crypto::simd {

#ifndef AC3_SHA256_X86

bool CpuHasShaNi() { return false; }
bool CpuHasAvx2() { return false; }

#else  // AC3_SHA256_X86

namespace {

/// FIPS 180-4 round constants (a local copy: the kernels need them in
/// SIMD-loadable form, and they are spec constants, not tunables).
alignas(64) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint64_t ReadXcr0() {
  uint32_t eax;
  uint32_t edx;
  __asm__ __volatile__("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

#define AC3_TARGET_SHANI __attribute__((target("sha,sse4.1")))
#define AC3_TARGET_AVX2 __attribute__((target("avx2")))

// ---- SHA-NI ---------------------------------------------------------------
//
// The message schedule uses the standard sha256msg1/msg2 identity
//   m[g] = msg2(msg1(m[g-4], m[g-3]) + alignr(m[g-1], m[g-2], 4), m[g-1])
// (row m[g] = big-endian words W[4g..4g+3], lane 0 first), kept in four
// rolling rows. State register juggling (ABEF/CDGH packing) follows the
// canonical SHA-NI layout. There is no two-block interleaved compression:
// measured, it lost to two single ones (bench_micro_crypto BM_Compress2).

AC3_TARGET_SHANI inline __m128i LoadRow(const uint32_t* words) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(words));
}

AC3_TARGET_SHANI inline void StoreRow(uint32_t* words, __m128i row) {
  _mm_store_si128(reinterpret_cast<__m128i*>(words), row);
}

/// Round constants K[4g..4g+3].
AC3_TARGET_SHANI inline __m128i KRow(int g) { return LoadRow(kK + 4 * g); }

/// Byte order of a big-endian word in a little-endian lane.
AC3_TARGET_SHANI inline __m128i WordSwap() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
}

/// Schedule row g (W[4g..4g+3]) of a 64-byte block, g < 4.
AC3_TARGET_SHANI inline __m128i MessageRow(const uint8_t* block, int g) {
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
      WordSwap());
}

/// Schedule row g from rows g-4 .. g-1.
AC3_TARGET_SHANI inline __m128i NextRow(__m128i m4, __m128i m3, __m128i m2,
                                        __m128i m1) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(m4, m3), _mm_alignr_epi8(m1, m2, 4)),
      m1);
}

/// Rounds 4g..4g+3 on `kLanes` independent states; wk[l] is lane l's W+K
/// row g. The lanes' sha256rnds2 dependency chains overlap.
template <int kLanes>
AC3_TARGET_SHANI inline void FourRounds(__m128i* abef, __m128i* cdgh,
                                        const __m128i* wk) {
  for (int l = 0; l < kLanes; ++l) {
    cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk[l]);
  }
  for (int l = 0; l < kLanes; ++l) {
    abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l],
                                    _mm_shuffle_epi32(wk[l], 0x0E));
  }
}

/// Packs a chaining value A..H into the (ABEF, CDGH) register pair.
AC3_TARGET_SHANI inline void PackState(const uint32_t* state, __m128i* abef,
                                       __m128i* cdgh) {
  __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));  // DCBA
  __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // HGFE
  lo = _mm_shuffle_epi32(lo, 0xB1);       // CDAB
  hi = _mm_shuffle_epi32(hi, 0x1B);       // EFGH
  *abef = _mm_alignr_epi8(lo, hi, 8);     // ABEF
  *cdgh = _mm_blend_epi16(hi, lo, 0xF0);  // CDGH
}

/// Inverse of PackState.
AC3_TARGET_SHANI inline void UnpackState(__m128i abef, __m128i cdgh,
                                         uint32_t* state) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

// ---- SHA-NI fused nonce kernel -------------------------------------------
//
// Double SHA-256 of a message whose last data block carries the nonce in
// W14/W15, with `kLanes` nonces interleaved round group by round group.
// NoncePlan holds everything that does not depend on the nonce; the
// kernel hands the inner chaining value to the outer block by register
// shuffles and extracts H0||H1 without storing a digest.

template <int kLanes>
AC3_TARGET_SHANI inline void NoncePrefixLanes(const NoncePlan& plan,
                                              const uint64_t* nonces,
                                              uint64_t* prefixes) {
  __m128i abef[kLanes];
  __m128i cdgh[kLanes];
  __m128i wk[kLanes];
  __m128i m[kLanes][4];  // Row g lives in m[l][g & 3].

  // Nonce block, rounds 14-15: the little-endian nonce becomes W14/W15
  // when the raw last row is byte-swapped like any other.
  const __m128i last_row =
      _mm_load_si128(reinterpret_cast<const __m128i*>(plan.last_row));
  for (int l = 0; l < kLanes; ++l) {
    m[l][3] = _mm_shuffle_epi8(
        _mm_blend_epi16(last_row,
                        _mm_set_epi64x(static_cast<long long>(nonces[l]), 0),
                        0xF0),
        WordSwap());
    abef[l] = LoadRow(plan.after_round13[0]);
    cdgh[l] = LoadRow(plan.after_round13[1]);
    wk[l] = _mm_add_epi32(m[l][3], KRow(3));
    abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l],
                                    _mm_shuffle_epi32(wk[l], 0x0E));
  }
  // Rows 4-6 complete their cached nonce-free halves; 7-15 are general.
  for (int l = 0; l < kLanes; ++l) {
    m[l][0] = _mm_sha256msg2_epu32(LoadRow(plan.schedule[0]), m[l][3]);
    wk[l] = _mm_add_epi32(m[l][0], KRow(4));
  }
  FourRounds<kLanes>(abef, cdgh, wk);
  for (int l = 0; l < kLanes; ++l) {
    m[l][1] = _mm_sha256msg2_epu32(
        _mm_add_epi32(LoadRow(plan.schedule[1]),
                      _mm_alignr_epi8(m[l][0], m[l][3], 4)),
        m[l][0]);
    wk[l] = _mm_add_epi32(m[l][1], KRow(5));
  }
  FourRounds<kLanes>(abef, cdgh, wk);
  for (int l = 0; l < kLanes; ++l) {
    m[l][2] = _mm_sha256msg2_epu32(
        _mm_add_epi32(LoadRow(plan.schedule[2]),
                      _mm_alignr_epi8(m[l][1], m[l][0], 4)),
        m[l][1]);
    wk[l] = _mm_add_epi32(m[l][2], KRow(6));
  }
  FourRounds<kLanes>(abef, cdgh, wk);
#pragma GCC unroll 16
  for (int g = 7; g < 16; ++g) {
    for (int l = 0; l < kLanes; ++l) {
      m[l][g & 3] = NextRow(m[l][g & 3], m[l][(g + 1) & 3],
                            m[l][(g + 2) & 3], m[l][(g + 3) & 3]);
      wk[l] = _mm_add_epi32(m[l][g & 3], KRow(g));
    }
    FourRounds<kLanes>(abef, cdgh, wk);
  }
  __m128i inner_abef[kLanes];
  __m128i inner_cdgh[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    inner_abef[l] = _mm_add_epi32(abef[l], LoadRow(plan.midstate[0]));
    inner_cdgh[l] = _mm_add_epi32(cdgh[l], LoadRow(plan.midstate[1]));
    abef[l] = inner_abef[l];
    cdgh[l] = inner_cdgh[l];
  }

  // Padding block: a fixed schedule, so every row's W+K is cached.
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    for (int l = 0; l < kLanes; ++l) wk[l] = LoadRow(plan.padding_wk[g]);
    FourRounds<kLanes>(abef, cdgh, wk);
  }

  // Outer block: W0-W7 are the inner state (A..H) in order, then the
  // padding of a 32-byte message; it starts from H(0).
  const __m128i initial_abef = _mm_set_epi32(
      static_cast<int>(0x6a09e667u), static_cast<int>(0xbb67ae85u),
      static_cast<int>(0x510e527fu), static_cast<int>(0x9b05688cu));
  const __m128i initial_cdgh = _mm_set_epi32(
      static_cast<int>(0x3c6ef372u), static_cast<int>(0xa54ff53au),
      static_cast<int>(0x1f83d9abu), static_cast<int>(0x5be0cd19u));
  for (int l = 0; l < kLanes; ++l) {
    const __m128i bafe =
        _mm_shuffle_epi32(_mm_add_epi32(abef[l], inner_abef[l]), 0x1B);
    const __m128i dchg =
        _mm_shuffle_epi32(_mm_add_epi32(cdgh[l], inner_cdgh[l]), 0x1B);
    m[l][0] = _mm_unpacklo_epi64(bafe, dchg);  // A B C D
    m[l][1] = _mm_unpackhi_epi64(bafe, dchg);  // E F G H
    m[l][2] = _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u));
    m[l][3] = _mm_set_epi32(256, 0, 0, 0);
    abef[l] = initial_abef;
    cdgh[l] = initial_cdgh;
  }
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    for (int l = 0; l < kLanes; ++l) {
      if (g >= 4) {
        m[l][g & 3] = NextRow(m[l][g & 3], m[l][(g + 1) & 3],
                              m[l][(g + 2) & 3], m[l][(g + 3) & 3]);
      }
      wk[l] = _mm_add_epi32(m[l][g & 3], KRow(g));
    }
    FourRounds<kLanes>(abef, cdgh, wk);
  }
  // H0 and H1 sit in lanes 3 and 2 of ABEF.
  for (int l = 0; l < kLanes; ++l) {
    const __m128i out = _mm_add_epi32(abef[l], initial_abef);
    prefixes[l] =
        static_cast<uint64_t>(static_cast<uint32_t>(_mm_extract_epi32(out, 3)))
            << 32 |
        static_cast<uint32_t>(_mm_extract_epi32(out, 2));
  }
}

// ---- AVX2 8-way -----------------------------------------------------------
//
// A direct vectorization of the scalar rounds: vector lane i carries
// compression i, so eight independent (state, block) pairs advance in
// lockstep. The only scalar work is the big-endian word gather on entry
// and the state scatter on exit.

template <int N>
AC3_TARGET_AVX2 inline __m256i Rotr(__m256i x) {
  return _mm256_or_si256(_mm256_srli_epi32(x, N), _mm256_slli_epi32(x, 32 - N));
}

AC3_TARGET_AVX2 inline __m256i Ch(__m256i x, __m256i y, __m256i z) {
  return _mm256_xor_si256(_mm256_and_si256(x, y), _mm256_andnot_si256(x, z));
}

AC3_TARGET_AVX2 inline __m256i Maj(__m256i x, __m256i y, __m256i z) {
  return _mm256_xor_si256(
      _mm256_xor_si256(_mm256_and_si256(x, y), _mm256_and_si256(x, z)),
      _mm256_and_si256(y, z));
}

AC3_TARGET_AVX2 inline __m256i BigSigma0(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(Rotr<2>(x), Rotr<13>(x)),
                          Rotr<22>(x));
}

AC3_TARGET_AVX2 inline __m256i BigSigma1(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(Rotr<6>(x), Rotr<11>(x)),
                          Rotr<25>(x));
}

AC3_TARGET_AVX2 inline __m256i SmallSigma0(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(Rotr<7>(x), Rotr<18>(x)),
                          _mm256_srli_epi32(x, 3));
}

AC3_TARGET_AVX2 inline __m256i SmallSigma1(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(Rotr<17>(x), Rotr<19>(x)),
                          _mm256_srli_epi32(x, 10));
}

AC3_TARGET_AVX2 void Compress8Avx2Impl(uint32_t* const* states,
                                       const uint8_t* const* blocks) {
  alignas(32) uint32_t lane_words[8];
  __m256i w[64];
  for (int t = 0; t < 16; ++t) {
    for (int l = 0; l < 8; ++l) {
      uint32_t word;
      std::memcpy(&word, blocks[l] + t * 4, 4);
      lane_words[l] = __builtin_bswap32(word);
    }
    w[t] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_words));
  }
  for (int t = 16; t < 64; ++t) {
    w[t] = _mm256_add_epi32(
        _mm256_add_epi32(SmallSigma1(w[t - 2]), w[t - 7]),
        _mm256_add_epi32(SmallSigma0(w[t - 15]), w[t - 16]));
  }

  __m256i v[8];
  for (int j = 0; j < 8; ++j) {
    for (int l = 0; l < 8; ++l) lane_words[l] = states[l][j];
    v[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_words));
  }
  __m256i a = v[0], b = v[1], c = v[2], d = v[3];
  __m256i e = v[4], f = v[5], g = v[6], h = v[7];

  for (int t = 0; t < 64; ++t) {
    const __m256i t1 = _mm256_add_epi32(
        _mm256_add_epi32(h, BigSigma1(e)),
        _mm256_add_epi32(
            Ch(e, f, g),
            _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(kK[t])),
                             w[t])));
    const __m256i t2 = _mm256_add_epi32(BigSigma0(a), Maj(a, b, c));
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(t1, t2);
  }

  v[0] = _mm256_add_epi32(v[0], a);
  v[1] = _mm256_add_epi32(v[1], b);
  v[2] = _mm256_add_epi32(v[2], c);
  v[3] = _mm256_add_epi32(v[3], d);
  v[4] = _mm256_add_epi32(v[4], e);
  v[5] = _mm256_add_epi32(v[5], f);
  v[6] = _mm256_add_epi32(v[6], g);
  v[7] = _mm256_add_epi32(v[7], h);
  for (int j = 0; j < 8; ++j) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_words), v[j]);
    for (int l = 0; l < 8; ++l) states[l][j] = lane_words[l];
  }
}

bool ProbeShaNi() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  if (!(c & bit_SSE4_1) || !(c & bit_SSSE3)) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_SHA) != 0;
}

bool ProbeAvx2() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  // The OS must have enabled XMM+YMM state saving for AVX2 to be usable.
  if (!(c & bit_OSXSAVE) || !(c & bit_AVX)) return false;
  if ((ReadXcr0() & 0x6) != 0x6) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_AVX2) != 0;
}

}  // namespace

// cpuid can trap to the hypervisor, and a HeaderHasher asks per header.
bool CpuHasShaNi() {
  static const bool has = ProbeShaNi();
  return has;
}

bool CpuHasAvx2() {
  static const bool has = ProbeAvx2();
  return has;
}

AC3_TARGET_SHANI void CompressShaNi(uint32_t* state, const uint8_t* block) {
  __m128i abef;
  __m128i cdgh;
  PackState(state, &abef, &cdgh);
  const __m128i save_abef = abef;
  const __m128i save_cdgh = cdgh;
  __m128i m[4];
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    m[g & 3] = g < 4 ? MessageRow(block, g)
                     : NextRow(m[g & 3], m[(g + 1) & 3], m[(g + 2) & 3],
                               m[(g + 3) & 3]);
    const __m128i wk = _mm_add_epi32(m[g & 3], KRow(g));
    FourRounds<1>(&abef, &cdgh, &wk);
  }
  UnpackState(_mm_add_epi32(abef, save_abef), _mm_add_epi32(cdgh, save_cdgh),
              state);
}

AC3_TARGET_AVX2 void Compress8Avx2(uint32_t* const* states,
                                   const uint8_t* const* blocks) {
  Compress8Avx2Impl(states, blocks);
}

AC3_TARGET_SHANI void PrepareNoncePlanShaNi(const uint32_t* midstate,
                                            const uint8_t* tail,
                                            NoncePlan* plan) {
  __m128i abef;
  __m128i cdgh;
  PackState(midstate, &abef, &cdgh);
  StoreRow(plan->midstate[0], abef);
  StoreRow(plan->midstate[1], cdgh);
  __m128i m[4];
  for (int g = 0; g < 4; ++g) m[g] = MessageRow(tail, g);
  // Rounds 0-11, then 12-13: the low half of row 3 is W12/W13.
  for (int g = 0; g < 3; ++g) {
    const __m128i wk = _mm_add_epi32(m[g], KRow(g));
    FourRounds<1>(&abef, &cdgh, &wk);
  }
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, _mm_add_epi32(m[3], KRow(3)));
  StoreRow(plan->after_round13[0], abef);
  StoreRow(plan->after_round13[1], cdgh);
  std::memcpy(plan->last_row, tail + 48, sizeof(plan->last_row));
  // msg1 reads only the first word of its second row, so msg1(row 2,
  // row 3) sees W12 but not the nonce; likewise alignr(row 3, row 2).
  StoreRow(plan->schedule[0],
           _mm_add_epi32(_mm_sha256msg1_epu32(m[0], m[1]),
                         _mm_alignr_epi8(m[3], m[2], 4)));
  StoreRow(plan->schedule[1], _mm_sha256msg1_epu32(m[1], m[2]));
  StoreRow(plan->schedule[2], _mm_sha256msg1_epu32(m[2], m[3]));

  const uint8_t* padding = tail + 64;
  __m128i p[16];
  for (int g = 0; g < 16; ++g) {
    p[g] = g < 4 ? MessageRow(padding, g)
                 : NextRow(p[g - 4], p[g - 3], p[g - 2], p[g - 1]);
    StoreRow(plan->padding_wk[g], _mm_add_epi32(p[g], KRow(g)));
  }
}

AC3_TARGET_SHANI void NoncePrefixesShaNi(const NoncePlan& plan,
                                         const uint64_t* nonces, size_t n,
                                         uint64_t* prefixes) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) NoncePrefixLanes<2>(plan, nonces + i, prefixes + i);
  if (i < n) NoncePrefixLanes<1>(plan, nonces + i, prefixes + i);
}

#endif  // AC3_SHA256_X86

}  // namespace ac3::crypto::simd

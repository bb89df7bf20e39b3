// Decode lanes: the one kernel every learned codec decodes through, in one
// implementation per instruction set, chosen once per process.
//
// The unit of work is a FragmentRun: consecutive values of one fragment,
// each the pinned prediction ⌊f(x)⌋ (src/functions/kinds.hpp) plus a
// bit-packed correction plus a constant. Neats (Algorithm 2 and the cursor),
// NeatsLossy (no corrections) and LeCo (linear models, base-offset
// residuals) all decode through it.
//
// Lanes, from least to most capable:
//
//   portable  scalar; std::fma is a libm call on a baseline x86-64 build
//             (software-emulated on hosts without FMA). The only lane off
//             x86-64.
//   fma       the same scalar code compiled for the FMA instruction set
//             through a function-level target attribute.
//   avx2      AVX2+FMA vectors, 4 values per step, for the four default
//             kinds (linear, quadratic, radical, exponential); every other
//             kind runs the fma lane's loop.
//   avx512    AVX-512F/DQ vectors, 8 values per step, same kinds.
//
// Every lane runs the identical IEEE operation sequence per value — the
// vector exp is the scalar pinned::Exp lane by lane, floor and int64
// conversion are exact in every form — so all lanes produce the same bits;
// tests/decode_lanes_test.cpp checks that for every lane the CPU has. The
// vector lanes unpack corrections with two 64-bit gathers per step in the
// same pass that adds them to the predictions, and run a fragment's last
// partial step masked instead of in scalar code. ActiveDecodeLane() picks the
// most capable lane the CPU supports (__builtin_cpu_supports, the way
// Crc32c picks its SSE4.2 path) on first use and caches it; there is no
// build flag, option or environment variable.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>

#include "functions/kinds.hpp"
#include "functions/pinned_math.hpp"
#include "succinct/bit_stream.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define NEATS_DECODE_X86 1
#endif

namespace neats {

/// `count` consecutive values of one fragment:
///   out[j] = ⌊f(x0 + j)⌋ + c_j + add   (mod 2^64), j in [0, count),
/// where f is `kind` with `params` and c_j is the `bits`-wide field at bit
/// `bit_offset + j * bits` of `words` (0 when bits == 0). `num_words` is the
/// size of `words`: the vector lanes read whole words and stay inside it.
struct FragmentRun {
  FunctionKind kind = FunctionKind::kLinear;
  const double* params = nullptr;
  int64_t x0 = 0;
  uint64_t count = 0;
  const uint64_t* words = nullptr;
  uint64_t num_words = 0;
  uint64_t bit_offset = 0;
  int bits = 0;
  uint64_t add = 0;
  int64_t* out = nullptr;
};

/// One implementation of the pinned evaluation (see the file comment).
struct DecodeLane {
  std::string_view name;
  bool (*supported)();
  int64_t (*predict_floor)(FunctionKind kind, const double* params,
                           int64_t xi);
  void (*decode)(const FragmentRun& run);
};

namespace internal {

using RunFn = void (*)(const FragmentRun&);

/// The scalar body of every lane: values [j, count) of `r`. Corrections are
/// unpacked word-at-a-time into a small stack buffer per chunk.
template <FunctionKind KIND>
NEATS_PINNED_INLINE void ScalarRunFrom(const FragmentRun& r, uint64_t j) {
  if (r.bits == 0) {
    for (; j < r.count; ++j) {
      const int64_t pred =
          PredictFloorKind<KIND>(r.params, r.x0 + static_cast<int64_t>(j));
      r.out[j] = static_cast<int64_t>(static_cast<uint64_t>(pred) + r.add);
    }
    return;
  }
  constexpr uint64_t kChunk = 128;
  uint64_t corr[kChunk];
  while (j < r.count) {
    const uint64_t n = std::min(kChunk, r.count - j);
    UnpackBitsRun(r.words, r.bit_offset + j * static_cast<uint64_t>(r.bits),
                  r.bits, n, corr);
    for (uint64_t i = 0; i < n; ++i) {
      const int64_t pred = PredictFloorKind<KIND>(
          r.params, r.x0 + static_cast<int64_t>(j + i));
      r.out[j + i] =
          static_cast<int64_t>(static_cast<uint64_t>(pred) + corr[i] + r.add);
    }
    j += n;
  }
}

#define NEATS_PREDICT_CASE(K) \
  case FunctionKind::K: return PredictFloorKind<FunctionKind::K>(params, xi);

inline int64_t PredictFloorPortable(FunctionKind kind, const double* params,
                                    int64_t xi) {
  switch (kind) { NEATS_FOR_EACH_KIND(NEATS_PREDICT_CASE) }
  return 0;
}

template <FunctionKind KIND>
void PortableRun(const FragmentRun& r) {
  ScalarRunFrom<KIND>(r, 0);
}

/// Leading values of `r` a vector step may decode: x must stay an exact
/// double, and each step reads words[w] and words[w + 1] for every
/// field's first word w, so fields starting in the last word are left to the
/// scalar tail.
inline uint64_t VectorSpan(const FragmentRun& r) {
  constexpr int64_t kExact = int64_t{1} << 52;
  if (r.count >= static_cast<uint64_t>(kExact) || r.x0 < -kExact ||
      r.x0 > kExact - static_cast<int64_t>(r.count)) {
    return 0;
  }
  if (r.bits == 0) return r.count;
  if (r.num_words == 0) return 0;
  const uint64_t limit = (r.num_words - 1) * 64;
  if (r.bit_offset >= limit) return 0;
  const uint64_t bits = static_cast<uint64_t>(r.bits);
  return std::min(r.count, (limit - r.bit_offset + bits - 1) / bits);
}

/// True for the kinds the vector lanes evaluate natively.
inline constexpr bool HasVectorBody(FunctionKind kind) {
  return kind == FunctionKind::kLinear || kind == FunctionKind::kQuadratic ||
         kind == FunctionKind::kRadical || kind == FunctionKind::kExponential;
}

#if NEATS_DECODE_X86

// --- fma: the scalar body compiled for the FMA instruction set ------------

#define NEATS_TARGET_FMA __attribute__((target("fma")))

NEATS_TARGET_FMA inline int64_t PredictFloorFma(FunctionKind kind,
                                                const double* params,
                                                int64_t xi) {
  switch (kind) { NEATS_FOR_EACH_KIND(NEATS_PREDICT_CASE) }
  return 0;
}

template <FunctionKind KIND>
NEATS_TARGET_FMA void FmaRun(const FragmentRun& r) {
  ScalarRunFrom<KIND>(r, 0);
}

// --- avx2: 4 values per step -----------------------------------------------

#define NEATS_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define NEATS_AVX2_INLINE \
  inline __attribute__((always_inline, target("avx2,fma")))

namespace avx2 {

/// 2^k for integral k in [-1022, 1023]: the biased exponent lands in the
/// low mantissa bits of 1.5 * 2^52 + 1023 + k and is shifted into place.
NEATS_AVX2_INLINE __m256d Pow2(__m256d k) {
  const __m256d biased =
      _mm256_add_pd(k, _mm256_set1_pd(pinned::kExpShift + 1023.0));
  return _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_castpd_si256(biased), 52));
}

/// pinned::Exp, lane by lane.
NEATS_AVX2_INLINE __m256d Exp(__m256d x) {
  const __m256d xc = _mm256_min_pd(
      _mm256_max_pd(x, _mm256_set1_pd(pinned::kExpMin)),
      _mm256_set1_pd(pinned::kExpMax));
  const __m256d shift = _mm256_set1_pd(pinned::kExpShift);
  const __m256d kd = _mm256_sub_pd(
      _mm256_fmadd_pd(xc, _mm256_set1_pd(pinned::kInvLn2), shift), shift);
  __m256d r = _mm256_fmadd_pd(kd, _mm256_set1_pd(-pinned::kLn2Hi), xc);
  r = _mm256_fmadd_pd(kd, _mm256_set1_pd(-pinned::kLn2Lo), r);
  __m256d p = _mm256_set1_pd(pinned::kExpCoeffs[pinned::kExpDegree]);
  for (int n = pinned::kExpDegree - 1; n >= 0; --n) {
    p = _mm256_fmadd_pd(
        p, r, _mm256_set1_pd(pinned::kExpCoeffs[static_cast<size_t>(n)]));
  }
  const __m256d k1 = _mm256_floor_pd(_mm256_mul_pd(kd, _mm256_set1_pd(0.5)));
  const __m256d k2 = _mm256_sub_pd(kd, k1);
  const __m256d res = _mm256_mul_pd(_mm256_mul_pd(p, Pow2(k1)), Pow2(k2));
  return _mm256_blendv_pd(res, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

template <FunctionKind KIND>
NEATS_AVX2_INLINE __m256d Eval(__m256d m, __m256d b, __m256d x) {
  if constexpr (KIND == FunctionKind::kLinear) {
    return _mm256_fmadd_pd(m, x, b);
  } else if constexpr (KIND == FunctionKind::kQuadratic) {
    return _mm256_fmadd_pd(m, _mm256_mul_pd(x, x), b);
  } else if constexpr (KIND == FunctionKind::kRadical) {
    return _mm256_fmadd_pd(m, _mm256_sqrt_pd(x), b);
  } else {
    static_assert(KIND == FunctionKind::kExponential);
    return Exp(_mm256_fmadd_pd(m, x, b));
  }
}

/// pinned::FloorClamped, lane by lane. Integral doubles below 2^51 in
/// magnitude convert with the 1.5 * 2^52 bit trick (AVX2 has no double to
/// int64 conversion); a step holding a larger one converts lane by lane.
NEATS_AVX2_INLINE __m256i FloorClamped(__m256d v) {
  v = _mm256_andnot_pd(_mm256_cmp_pd(v, v, _CMP_UNORD_Q), v);  // NaN -> 0
  v = _mm256_min_pd(v, _mm256_set1_pd(pinned::kClamp));
  v = _mm256_max_pd(v, _mm256_set1_pd(-pinned::kClamp));
  const __m256d f = _mm256_floor_pd(v);
  const __m256d abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), f);
  if (_mm256_movemask_pd(
          _mm256_cmp_pd(abs, _mm256_set1_pd(0x1p51), _CMP_GE_OQ)) != 0) {
    alignas(32) double lane[4];
    _mm256_store_pd(lane, f);
    return _mm256_setr_epi64x(
        static_cast<int64_t>(lane[0]), static_cast<int64_t>(lane[1]),
        static_cast<int64_t>(lane[2]), static_cast<int64_t>(lane[3]));
  }
  const __m256d magic = _mm256_set1_pd(pinned::kExpShift);
  return _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(f, magic)),
                          _mm256_castpd_si256(magic));
}

/// The bits-wide fields starting at bit positions `pos`; with kMasked, only
/// in the lanes whose `active` sign bit is set (the others read no memory).
/// VectorSpan keeps words[w + 1] in bounds. A shift by 64 yields 0, so
/// s == 0 needs no case.
template <bool kMasked>
NEATS_AVX2_INLINE __m256i Unpack(const uint64_t* words, __m256i pos,
                                 __m256i mask, __m256i active) {
  const auto* base = reinterpret_cast<const long long*>(words);
  const __m256i w = _mm256_srli_epi64(pos, 6);
  const __m256i s = _mm256_and_si256(pos, _mm256_set1_epi64x(63));
  __m256i lo, hi;
  if constexpr (kMasked) {
    const __m256i zero = _mm256_setzero_si256();
    lo = _mm256_mask_i64gather_epi64(zero, base, w, active, 8);
    hi = _mm256_mask_i64gather_epi64(zero, base + 1, w, active, 8);
  } else {
    lo = _mm256_i64gather_epi64(base, w, 8);
    hi = _mm256_i64gather_epi64(base + 1, w, 8);
  }
  const __m256i v = _mm256_or_si256(
      _mm256_srlv_epi64(lo, s),
      _mm256_sllv_epi64(hi, _mm256_sub_epi64(_mm256_set1_epi64x(64), s)));
  return _mm256_and_si256(v, mask);
}

/// One 4-value step at coordinates `x` and correction positions `pos`,
/// stored to out[0, 4) — with kMasked, only in the `active` lanes.
template <FunctionKind KIND, bool kMasked>
NEATS_AVX2_INLINE void Step(const FragmentRun& r, __m256d m, __m256d b,
                            __m256d x, __m256i add, __m256i pos, __m256i mask,
                            __m256i active, int64_t* out) {
  __m256i v = _mm256_add_epi64(FloorClamped(Eval<KIND>(m, b, x)), add);
  if (r.bits != 0) {
    v = _mm256_add_epi64(v, Unpack<kMasked>(r.words, pos, mask, active));
  }
  if constexpr (kMasked) {
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(out), active, v);
  } else {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
  }
}

template <FunctionKind KIND>
NEATS_TARGET_AVX2 void Run(const FragmentRun& r) {
  uint64_t j = 0;
  if constexpr (HasVectorBody(KIND)) {
    const uint64_t span = VectorSpan(r);
    const __m256d m = _mm256_set1_pd(r.params[0]);
    const __m256d b = _mm256_set1_pd(r.params[1]);
    __m256d x = _mm256_add_pd(_mm256_set1_pd(static_cast<double>(r.x0)),
                              _mm256_setr_pd(0, 1, 2, 3));
    const __m256d four = _mm256_set1_pd(4);
    const __m256i add = _mm256_set1_epi64x(static_cast<int64_t>(r.add));
    const uint64_t o = r.bit_offset;
    const uint64_t bits = static_cast<uint64_t>(r.bits);
    __m256i pos = _mm256_setr_epi64x(
        static_cast<int64_t>(o), static_cast<int64_t>(o + bits),
        static_cast<int64_t>(o + 2 * bits), static_cast<int64_t>(o + 3 * bits));
    const __m256i step = _mm256_set1_epi64x(static_cast<int64_t>(4 * bits));
    const __m256i mask =
        _mm256_set1_epi64x(static_cast<int64_t>(LowMask(r.bits)));
    const __m256i all = _mm256_set1_epi64x(-1);
    for (; j + 4 <= span; j += 4) {
      Step<KIND, false>(r, m, b, x, add, pos, mask, all, r.out + j);
      pos = _mm256_add_epi64(pos, step);
      x = _mm256_add_pd(x, four);
    }
    if (j < span) {  // the last 1-3 values of the span: a masked step
      const __m256i active =
          _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(span - j)),
                             _mm256_setr_epi64x(0, 1, 2, 3));
      Step<KIND, true>(r, m, b, x, add, pos, mask, active, r.out + j);
      j = span;
    }
  }
  ScalarRunFrom<KIND>(r, j);
}

}  // namespace avx2

// --- avx512: 8 values per step ---------------------------------------------

#define NEATS_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx2,fma")))
#define NEATS_AVX512_INLINE \
  inline __attribute__((always_inline, target("avx512f,avx512dq,avx2,fma")))

// GCC 12's AVX-512 intrinsics pass _mm512_undefined_pd() as the unused
// merge source, which -Wmaybe-uninitialized reports at every inlining site.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace avx512 {

NEATS_AVX512_INLINE __m512d Pow2(__m512d k) {  // as avx2::Pow2
  const __m512d biased =
      _mm512_add_pd(k, _mm512_set1_pd(pinned::kExpShift + 1023.0));
  return _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_castpd_si512(biased), 52));
}

NEATS_AVX512_INLINE __m512d Floor(__m512d v) {
  return _mm512_roundscale_pd(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
}

/// pinned::Exp, lane by lane.
NEATS_AVX512_INLINE __m512d Exp(__m512d x) {
  const __m512d xc = _mm512_min_pd(
      _mm512_max_pd(x, _mm512_set1_pd(pinned::kExpMin)),
      _mm512_set1_pd(pinned::kExpMax));
  const __m512d shift = _mm512_set1_pd(pinned::kExpShift);
  const __m512d kd = _mm512_sub_pd(
      _mm512_fmadd_pd(xc, _mm512_set1_pd(pinned::kInvLn2), shift), shift);
  __m512d r = _mm512_fmadd_pd(kd, _mm512_set1_pd(-pinned::kLn2Hi), xc);
  r = _mm512_fmadd_pd(kd, _mm512_set1_pd(-pinned::kLn2Lo), r);
  __m512d p = _mm512_set1_pd(pinned::kExpCoeffs[pinned::kExpDegree]);
  for (int n = pinned::kExpDegree - 1; n >= 0; --n) {
    p = _mm512_fmadd_pd(
        p, r, _mm512_set1_pd(pinned::kExpCoeffs[static_cast<size_t>(n)]));
  }
  const __m512d k1 = Floor(_mm512_mul_pd(kd, _mm512_set1_pd(0.5)));
  const __m512d k2 = _mm512_sub_pd(kd, k1);
  const __m512d res = _mm512_mul_pd(_mm512_mul_pd(p, Pow2(k1)), Pow2(k2));
  return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q), res, x);
}

template <FunctionKind KIND>
NEATS_AVX512_INLINE __m512d Eval(__m512d m, __m512d b, __m512d x) {
  if constexpr (KIND == FunctionKind::kLinear) {
    return _mm512_fmadd_pd(m, x, b);
  } else if constexpr (KIND == FunctionKind::kQuadratic) {
    return _mm512_fmadd_pd(m, _mm512_mul_pd(x, x), b);
  } else if constexpr (KIND == FunctionKind::kRadical) {
    return _mm512_fmadd_pd(m, _mm512_sqrt_pd(x), b);
  } else {
    static_assert(KIND == FunctionKind::kExponential);
    return Exp(_mm512_fmadd_pd(m, x, b));
  }
}

/// pinned::FloorClamped, lane by lane (the clamped floor converts exactly).
NEATS_AVX512_INLINE __m512i FloorClamped(__m512d v) {
  v = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q), v,
                           _mm512_setzero_pd());
  v = _mm512_min_pd(v, _mm512_set1_pd(pinned::kClamp));
  v = _mm512_max_pd(v, _mm512_set1_pd(-pinned::kClamp));
  return _mm512_cvttpd_epi64(Floor(v));
}

NEATS_AVX512_INLINE __m512i Unpack(const uint64_t* words, __m512i pos,
                                   __m512i mask, __mmask8 active) {
  const auto* base = reinterpret_cast<const long long*>(words);
  const __m512i w = _mm512_srli_epi64(pos, 6);
  const __m512i s = _mm512_and_si512(pos, _mm512_set1_epi64(63));
  const __m512i zero = _mm512_setzero_si512();
  const __m512i lo = _mm512_mask_i64gather_epi64(zero, active, w, base, 8);
  const __m512i hi = _mm512_mask_i64gather_epi64(zero, active, w, base + 1, 8);
  const __m512i v = _mm512_or_si512(
      _mm512_srlv_epi64(lo, s),
      _mm512_sllv_epi64(hi, _mm512_sub_epi64(_mm512_set1_epi64(64), s)));
  return _mm512_and_si512(v, mask);
}

template <FunctionKind KIND>
NEATS_TARGET_AVX512 void Run(const FragmentRun& r) {
  uint64_t j = 0;
  if constexpr (HasVectorBody(KIND)) {
    const uint64_t span = VectorSpan(r);
    const __m512d m = _mm512_set1_pd(r.params[0]);
    const __m512d b = _mm512_set1_pd(r.params[1]);
    __m512d x = _mm512_add_pd(_mm512_set1_pd(static_cast<double>(r.x0)),
                              _mm512_setr_pd(0, 1, 2, 3, 4, 5, 6, 7));
    const __m512d eight = _mm512_set1_pd(8);
    const __m512i add = _mm512_set1_epi64(static_cast<int64_t>(r.add));
    const uint64_t bits = static_cast<uint64_t>(r.bits);
    __m512i pos = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<int64_t>(r.bit_offset)),
        _mm512_mullo_epi64(_mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
                           _mm512_set1_epi64(static_cast<int64_t>(bits))));
    const __m512i step = _mm512_set1_epi64(static_cast<int64_t>(8 * bits));
    const __m512i mask =
        _mm512_set1_epi64(static_cast<int64_t>(LowMask(r.bits)));
    for (; j < span; j += 8) {  // the last step masks off lanes past span
      const __mmask8 active = static_cast<__mmask8>(
          span - j >= 8 ? 0xFF : (1u << (span - j)) - 1);
      __m512i v = _mm512_add_epi64(FloorClamped(Eval<KIND>(m, b, x)), add);
      if (bits != 0) {
        v = _mm512_add_epi64(v, Unpack(r.words, pos, mask, active));
        pos = _mm512_add_epi64(pos, step);
      }
      _mm512_mask_storeu_epi64(r.out + j, active, v);
      x = _mm512_add_pd(x, eight);
    }
    j = span;
  }
  ScalarRunFrom<KIND>(r, j);
}

}  // namespace avx512

#pragma GCC diagnostic pop

inline bool CpuHasFma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("fma") != 0;
}
inline bool CpuHasAvx2() {
  return CpuHasFma() && __builtin_cpu_supports("avx2") != 0;
}
inline bool CpuHasAvx512() {
  return CpuHasAvx2() && __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
}

#endif  // NEATS_DECODE_X86

inline bool Always() { return true; }

#define NEATS_RUN_ENTRY(LANE, K) &LANE<FunctionKind::K>,
#define NEATS_PORTABLE_ENTRY(K) NEATS_RUN_ENTRY(PortableRun, K)
inline constexpr RunFn kPortableRuns[] = {
    NEATS_FOR_EACH_KIND(NEATS_PORTABLE_ENTRY)};
inline void PortableDecode(const FragmentRun& r) {
  kPortableRuns[static_cast<int>(r.kind)](r);
}

#if NEATS_DECODE_X86
#define NEATS_FMA_ENTRY(K) NEATS_RUN_ENTRY(FmaRun, K)
#define NEATS_AVX2_ENTRY(K) NEATS_RUN_ENTRY(avx2::Run, K)
#define NEATS_AVX512_ENTRY(K) NEATS_RUN_ENTRY(avx512::Run, K)
inline constexpr RunFn kFmaRuns[] = {NEATS_FOR_EACH_KIND(NEATS_FMA_ENTRY)};
inline constexpr RunFn kAvx2Runs[] = {NEATS_FOR_EACH_KIND(NEATS_AVX2_ENTRY)};
inline constexpr RunFn kAvx512Runs[] = {
    NEATS_FOR_EACH_KIND(NEATS_AVX512_ENTRY)};
inline void FmaDecode(const FragmentRun& r) {
  kFmaRuns[static_cast<int>(r.kind)](r);
}
inline void Avx2Decode(const FragmentRun& r) {
  kAvx2Runs[static_cast<int>(r.kind)](r);
}
inline void Avx512Decode(const FragmentRun& r) {
  kAvx512Runs[static_cast<int>(r.kind)](r);
}
#endif

#undef NEATS_PREDICT_CASE
#undef NEATS_RUN_ENTRY
#undef NEATS_PORTABLE_ENTRY
#undef NEATS_FMA_ENTRY
#undef NEATS_AVX2_ENTRY
#undef NEATS_AVX512_ENTRY
#undef NEATS_TARGET_FMA
#undef NEATS_TARGET_AVX2
#undef NEATS_AVX2_INLINE
#undef NEATS_TARGET_AVX512
#undef NEATS_AVX512_INLINE

/// Every compiled lane, least capable first.
inline constexpr DecodeLane kDecodeLanes[] = {
    {"portable", &Always, &PredictFloorPortable, &PortableDecode},
#if NEATS_DECODE_X86
    {"fma", &CpuHasFma, &PredictFloorFma, &FmaDecode},
    {"avx2", &CpuHasAvx2, &PredictFloorFma, &Avx2Decode},
    {"avx512", &CpuHasAvx512, &PredictFloorFma, &Avx512Decode},
#endif
};

}  // namespace internal

/// Every lane this build compiled, least capable first; `supported()` says
/// whether this CPU can run it. Tests run each supported lane against the
/// portable one.
inline std::span<const DecodeLane> AllDecodeLanes() {
  return internal::kDecodeLanes;
}

/// The most capable lane this CPU supports, chosen on first use.
inline const DecodeLane& ActiveDecodeLane() {
  static const DecodeLane* const lane = [] {
    const DecodeLane* best = &internal::kDecodeLanes[0];
    for (const DecodeLane& l : internal::kDecodeLanes) {
      if (l.supported()) best = &l;
    }
    return best;
  }();
  return *lane;
}

/// ⌊f(xi)⌋ of `kind` with `params`, clamped to ±kMaxAbsValue with NaN
/// mapped to 0 — the ⌊f(x)⌋ of the paper, shared by Algorithms 2 and 3 and
/// by the compressor. Same bits on every lane.
inline int64_t PredictFloor(FunctionKind kind, const double* params,
                            int64_t xi) {
  return ActiveDecodeLane().predict_floor(kind, params, xi);
}

/// Decodes one FragmentRun on the active lane.
inline void DecodeFragmentRun(const FragmentRun& run) {
  if (run.count > 0) ActiveDecodeLane().decode(run);
}

/// out[j] = ⌊f(x0 + j)⌋ for j in [0, count): the predictions alone, as the
/// compressors need them to compute corrections.
inline void PredictFloorRun(FunctionKind kind, const double* params,
                            int64_t x0, uint64_t count, int64_t* out) {
  FragmentRun run;
  run.kind = kind;
  run.params = params;
  run.x0 = x0;
  run.count = count;
  run.out = out;
  DecodeFragmentRun(run);
}

}  // namespace neats

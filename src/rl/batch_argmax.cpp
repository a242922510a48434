#include "rl/batch_argmax.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PMRL_BATCH_ARGMAX_X86 1
#endif

namespace pmrl::rl {

void batch_argmax_f64_scalar(const double* values, std::size_t actions,
                             const double* bias, const std::uint64_t* states,
                             std::size_t count, std::uint32_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t base = static_cast<std::size_t>(states[i]) * actions;
    std::uint32_t best = 0;
    double best_value = values[base] + (bias ? bias[0] : 0.0);
    for (std::size_t a = 1; a < actions; ++a) {
      const double v = values[base + a] + (bias ? bias[a] : 0.0);
      if (v > best_value) {
        best_value = v;
        best = static_cast<std::uint32_t>(a);
      }
    }
    out[i] = best;
  }
}

#if defined(PMRL_BATCH_ARGMAX_X86)

namespace {

__attribute__((target("avx2"))) void batch_argmax_f64_avx2(
    const double* values, std::size_t actions, const double* bias,
    const std::uint64_t* states, std::size_t count, std::uint32_t* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    alignas(32) long long base[4];
    for (int lane = 0; lane < 4; ++lane) {
      base[lane] = static_cast<long long>(states[i + lane] * actions);
    }
    const __m256i vbase =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(base));
    // Bank 0 read seeds the running best; each further bank is one gather
    // (4 states × 1 action word) into the compare/blend "comparator" stage.
    __m256d best = _mm256_i64gather_pd(values, vbase, 8);
    if (bias) best = _mm256_add_pd(best, _mm256_set1_pd(bias[0]));
    __m256i best_idx = _mm256_setzero_si256();
    for (std::size_t a = 1; a < actions; ++a) {
      const __m256i idx =
          _mm256_add_epi64(vbase, _mm256_set1_epi64x(static_cast<long long>(a)));
      __m256d v = _mm256_i64gather_pd(values, idx, 8);
      if (bias) v = _mm256_add_pd(v, _mm256_set1_pd(bias[a]));
      // Strictly-greater keeps the earlier (lower) index on ties.
      const __m256d gt = _mm256_cmp_pd(v, best, _CMP_GT_OQ);
      best = _mm256_blendv_pd(best, v, gt);
      best_idx = _mm256_blendv_epi8(
          best_idx, _mm256_set1_epi64x(static_cast<long long>(a)),
          _mm256_castpd_si256(gt));
    }
    alignas(32) long long lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best_idx);
    for (int lane = 0; lane < 4; ++lane) {
      out[i + lane] = static_cast<std::uint32_t>(lanes[lane]);
    }
  }
  if (i < count) {
    // GCC 12 emits no vzeroupper before this sibling call, so without it
    // the thread leaves with dirty upper YMM state and every later
    // legacy-SSE instruction pays a transition penalty.
    _mm256_zeroupper();
    batch_argmax_f64_scalar(values, actions, bias, states + i, count - i,
                            out + i);
  }
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

}  // namespace

void batch_argmax_f64(const double* values, std::size_t actions,
                      const double* bias, const std::uint64_t* states,
                      std::size_t count, std::uint32_t* out) {
  static const bool avx2 = cpu_has_avx2();
  if (avx2) {
    batch_argmax_f64_avx2(values, actions, bias, states, count, out);
  } else {
    batch_argmax_f64_scalar(values, actions, bias, states, count, out);
  }
}

const char* batch_argmax_backend() {
  static const bool avx2 = cpu_has_avx2();
  return avx2 ? "avx2" : "scalar";
}

#else  // !PMRL_BATCH_ARGMAX_X86

void batch_argmax_f64(const double* values, std::size_t actions,
                      const double* bias, const std::uint64_t* states,
                      std::size_t count, std::uint32_t* out) {
  batch_argmax_f64_scalar(values, actions, bias, states, count, out);
}

const char* batch_argmax_backend() { return "scalar"; }

#endif  // PMRL_BATCH_ARGMAX_X86

}  // namespace pmrl::rl

#include "uld3d/util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <limits>

#include "uld3d/util/metrics.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define ULD3D_SIMD_X86 1
#include <immintrin.h>
#define ULD3D_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define ULD3D_SIMD_X86 0
#endif

namespace uld3d::simd {

namespace {

struct Dispatch {
  bool cpu_avx2 = false;
  bool env_disabled = false;
};

/// CPUID + environment, read exactly once per process.
const Dispatch& dispatch() {
  static const Dispatch d = [] {
    Dispatch out;
#if ULD3D_SIMD_X86
    out.cpu_avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
    const char* env = std::getenv("ULD3D_NO_SIMD");
    out.env_disabled = env != nullptr && env[0] != '\0';
    return out;
  }();
  return d;
}

std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> force{false};
  return force;
}

}  // namespace

bool cpu_has_avx2() { return dispatch().cpu_avx2; }

void set_force_scalar(bool force) {
  force_scalar_flag().store(force, std::memory_order_relaxed);
}

Isa active_isa() {
  const Dispatch& d = dispatch();
  if (d.env_disabled || !d.cpu_avx2 ||
      force_scalar_flag().load(std::memory_order_relaxed)) {
    return Isa::kScalar;
  }
  return Isa::kAvx2;
}

bool avx2_active() { return active_isa() == Isa::kAvx2; }

const char* isa_name() {
  if (active_isa() == Isa::kAvx2) return "avx2";
  // Distinguish "this machine has no AVX2" from "AVX2 was suppressed", so
  // provenance records why a run took the scalar path.
  if (cpu_has_avx2()) return "scalar-forced";
  return "scalar";
}

void record_dispatch_metric() {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().gauge("simd.dispatch").set(
      active_isa() == Isa::kAvx2 ? 1.0 : 0.0);
}

// ---------------------------------------------------------------------------
// argmin_strict
// ---------------------------------------------------------------------------

namespace {

std::size_t argmin_strict_scalar(const double* x, std::size_t n) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t win = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < best) {
      best = x[i];
      win = i;
    }
  }
  return win;
}

#if ULD3D_SIMD_X86
ULD3D_TARGET_AVX2 std::size_t argmin_strict_avx2(const double* x,
                                                 std::size_t n) {
  // Running minimum via the same `<` predicate as the serial recurrence:
  // lanes where v < best replace best (NaNs compare false and are skipped).
  __m256d best4 = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d lt = _mm256_cmp_pd(v, best4, _CMP_LT_OQ);
    best4 = _mm256_blendv_pd(best4, v, lt);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, best4);
  // Explicitly clear the upper YMM halves once the 256-bit work is done:
  // leaving them dirty imposes a false dependency on every SSE-encoded
  // double op executed afterwards.  (GCC inserts vzeroupper for plain
  // returns from target("avx2") clones but not reliably for every exit
  // shape, so the kernels do it themselves.)
  _mm256_zeroupper();
  double best = std::numeric_limits<double>::infinity();
  for (const double lane : lanes) {
    if (lane < best) best = lane;
  }
  for (; i < n; ++i) {
    if (x[i] < best) best = x[i];
  }
  if (best == std::numeric_limits<double>::infinity()) return n;
  // Deterministic serial tie-break: the serial recurrence ends on the FIRST
  // index attaining the minimum (later ties fail the strict `<`), so the
  // first `==` match reproduces it exactly (±0.0 ties compare equal).
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j] == best) return j;
  }
  return n;  // unreachable for well-formed input
}
#endif

}  // namespace

std::size_t argmin_strict(const double* x, std::size_t n) {
#if ULD3D_SIMD_X86
  if (n >= 8 && avx2_active()) return argmin_strict_avx2(x, n);
#endif
  return argmin_strict_scalar(x, n);
}

// ---------------------------------------------------------------------------
// prefix_sum_u32 / prefix_max_i32
// ---------------------------------------------------------------------------

namespace {

void prefix_sum_u32_scalar(const std::uint32_t* x, std::uint32_t* out,
                           std::size_t n) {
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += x[i];
    out[i] = acc;
  }
}

void prefix_max_i32_scalar(const std::int32_t* x, std::int32_t* out,
                           std::size_t n) {
  std::int32_t acc = std::numeric_limits<std::int32_t>::min();
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > acc) acc = x[i];
    out[i] = acc;
  }
}

#if ULD3D_SIMD_X86
/// In-register inclusive scan of 8 x i32 (classic shift-add ladder; the
/// 128-bit shifts stay within lanes, the permute carries the low lane's
/// total into the high lane).  `op` is add or max.
ULD3D_TARGET_AVX2 inline __m256i scan8_add(__m256i v) {
  v = _mm256_add_epi32(v, _mm256_slli_si256(v, 4));
  v = _mm256_add_epi32(v, _mm256_slli_si256(v, 8));
  const __m256i low_total =
      _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(3));
  const __m256i carry = _mm256_blend_epi32(_mm256_setzero_si256(), low_total,
                                           0xF0);
  return _mm256_add_epi32(v, carry);
}

ULD3D_TARGET_AVX2 void prefix_sum_u32_avx2(const std::uint32_t* x,
                                           std::uint32_t* out,
                                           std::size_t n) {
  std::uint32_t acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i scanned = scan8_add(v);
    const __m256i shifted =
        _mm256_add_epi32(scanned, _mm256_set1_epi32(static_cast<int>(acc)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), shifted);
    acc = out[i + 7];
  }
  _mm256_zeroupper();  // see argmin_strict_avx2
  for (; i < n; ++i) {
    acc += x[i];
    out[i] = acc;
  }
}

ULD3D_TARGET_AVX2 inline __m256i scan8_max(__m256i v) {
  const __m256i kMin =
      _mm256_set1_epi32(std::numeric_limits<std::int32_t>::min());
  // The shift ladder injects zeros; re-seed those lanes with INT32_MIN so a
  // shifted-in zero can never beat a genuinely negative running max.
  __m256i s = _mm256_slli_si256(v, 4);
  s = _mm256_blend_epi32(s, kMin, 0x11);  // lanes 0 and 4 lost their value
  v = _mm256_max_epi32(v, s);
  s = _mm256_slli_si256(v, 8);
  s = _mm256_blend_epi32(s, kMin, 0x33);  // lanes 0,1 / 4,5
  v = _mm256_max_epi32(v, s);
  const __m256i low_total =
      _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(3));
  const __m256i carry = _mm256_blend_epi32(kMin, low_total, 0xF0);
  return _mm256_max_epi32(v, carry);
}

ULD3D_TARGET_AVX2 void prefix_max_i32_avx2(const std::int32_t* x,
                                           std::int32_t* out,
                                           std::size_t n) {
  std::int32_t acc = std::numeric_limits<std::int32_t>::min();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i scanned =
        _mm256_max_epi32(scan8_max(v), _mm256_set1_epi32(acc));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), scanned);
    acc = out[i + 7];
  }
  _mm256_zeroupper();  // see argmin_strict_avx2
  for (; i < n; ++i) {
    if (x[i] > acc) acc = x[i];
    out[i] = acc;
  }
}
#endif

}  // namespace

void prefix_sum_u32(const std::uint32_t* x, std::uint32_t* out,
                    std::size_t n) {
#if ULD3D_SIMD_X86
  if (n >= 16 && avx2_active()) {
    prefix_sum_u32_avx2(x, out, n);
    return;
  }
#endif
  prefix_sum_u32_scalar(x, out, n);
}

void prefix_max_i32(const std::int32_t* x, std::int32_t* out, std::size_t n) {
#if ULD3D_SIMD_X86
  if (n >= 16 && avx2_active()) {
    prefix_max_i32_avx2(x, out, n);
    return;
  }
#endif
  prefix_max_i32_scalar(x, out, n);
}

}  // namespace uld3d::simd

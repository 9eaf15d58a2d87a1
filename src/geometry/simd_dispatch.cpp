#include "geometry/simd_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "geometry/score_kernel.h"

#if defined(FDRMS_HAVE_AVX2_KERNEL) || defined(FDRMS_HAVE_AVX512_KERNEL) || \
    defined(FDRMS_HAVE_NEON_KERNEL)
#include "geometry/simd/score_kernels_simd.h"
#endif

namespace fdrms {

namespace {

constexpr ScoreKernels kScalarKernels{&ScoreBlockScalar, &ScoreGatherScalar,
                                      &ReachedFilterScalar, SimdTier::kScalar};
#if defined(FDRMS_HAVE_AVX2_KERNEL)
constexpr ScoreKernels kAvx2Kernels{&simd::ScoreBlockAvx2,
                                    &simd::ScoreGatherAvx2,
                                    &simd::ReachedFilterAvx2, SimdTier::kAvx2};
#endif
#if defined(FDRMS_HAVE_AVX512_KERNEL)
constexpr ScoreKernels kAvx512Kernels{&simd::ScoreBlockAvx512,
                                      &simd::ScoreGatherAvx512,
                                      &simd::ReachedFilterAvx512,
                                      SimdTier::kAvx512};
#endif
#if defined(FDRMS_HAVE_NEON_KERNEL)
// The reached prefilter has no NEON implementation yet: the tier reuses
// the scalar one.
constexpr ScoreKernels kNeonKernels{&simd::ScoreBlockNeon,
                                    &simd::ScoreGatherNeon,
                                    &ReachedFilterScalar, SimdTier::kNeon};
#endif

const ScoreKernels* KernelsFor(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return &kScalarKernels;
#if defined(FDRMS_HAVE_AVX2_KERNEL)
    case SimdTier::kAvx2:
      return &kAvx2Kernels;
#endif
#if defined(FDRMS_HAVE_AVX512_KERNEL)
    case SimdTier::kAvx512:
      return &kAvx512Kernels;
#endif
#if defined(FDRMS_HAVE_NEON_KERNEL)
    case SimdTier::kNeon:
      return &kNeonKernels;
#endif
    default:
      return nullptr;
  }
}

/// Parses FDRMS_SIMD; nullptr/"auto"/unknown resolve to the best tier (with
/// a stderr warning for unknown or unsupported values, so a forced CI lane
/// cannot silently degrade without a trace).
SimdTier TierFromEnv() {
  const char* env = std::getenv("FDRMS_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return BestSupportedSimdTier();
  }
  SimdTier requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = SimdTier::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = SimdTier::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    requested = SimdTier::kAvx512;
  } else if (std::strcmp(env, "neon") == 0) {
    requested = SimdTier::kNeon;
  } else {
    std::fprintf(stderr,
                 "fdrms: unknown FDRMS_SIMD value '%s' "
                 "(want auto|scalar|avx2|avx512|neon); using auto\n",
                 env);
    return BestSupportedSimdTier();
  }
  if (!SimdTierSupported(requested)) {
    std::fprintf(stderr,
                 "fdrms: FDRMS_SIMD=%s is not supported on this "
                 "build/CPU; using auto (%s)\n",
                 env, SimdTierName(BestSupportedSimdTier()));
    return BestSupportedSimdTier();
  }
  return requested;
}

std::atomic<const ScoreKernels*> g_active{nullptr};

const ScoreKernels* ResolveActive() {
  const ScoreKernels* table = KernelsFor(TierFromEnv());
  // First resolver wins; a concurrent SetSimdTier is not overwritten.
  const ScoreKernels* expected = nullptr;
  g_active.compare_exchange_strong(expected, table,
                                   std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kNeon:
      return "neon";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdTierSupported(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kAvx2:
#if defined(FDRMS_HAVE_AVX2_KERNEL)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdTier::kAvx512:
#if defined(FDRMS_HAVE_AVX512_KERNEL)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case SimdTier::kNeon:
#if defined(FDRMS_HAVE_NEON_KERNEL)
      return true;  // NEON is baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

SimdTier BestSupportedSimdTier() {
  for (SimdTier tier : {SimdTier::kAvx512, SimdTier::kAvx2, SimdTier::kNeon}) {
    if (SimdTierSupported(tier)) return tier;
  }
  return SimdTier::kScalar;
}

const ScoreKernels& ActiveScoreKernels() {
  const ScoreKernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) table = ResolveActive();
  return *table;
}

SimdTier ActiveSimdTier() { return ActiveScoreKernels().tier; }

bool SetSimdTier(SimdTier tier) {
  if (!SimdTierSupported(tier)) return false;
  g_active.store(KernelsFor(tier), std::memory_order_release);
  return true;
}

}  // namespace fdrms

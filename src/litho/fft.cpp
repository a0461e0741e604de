#include "litho/fft.h"

#include "core/parallel.h"
#include "core/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

namespace dfm {
namespace fftconv {

int next_pow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan make_plan(int n) {
  FftPlan plan;
  plan.n = n;
  plan.log2n = 0;
  while ((1 << plan.log2n) < n) ++plan.log2n;
  plan.bitrev.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::uint32_t r = (plan.bitrev[static_cast<std::size_t>(i >> 1)] >> 1) |
                            static_cast<std::uint32_t>((i & 1) << (plan.log2n - 1));
    plan.bitrev[static_cast<std::size_t>(i)] = r;
  }
  // Twiddles for stage `half` live at offset half - 1: w_j = exp(-i*pi*j/half).
  plan.tw_re.resize(static_cast<std::size_t>(n) - 1);
  plan.tw_im.resize(static_cast<std::size_t>(n) - 1);
  for (int half = 1; half < n; half <<= 1) {
    for (int j = 0; j < half; ++j) {
      const double a = -M_PI * static_cast<double>(j) / static_cast<double>(half);
      plan.tw_re[static_cast<std::size_t>(half - 1 + j)] =
          static_cast<float>(std::cos(a));
      plan.tw_im[static_cast<std::size_t>(half - 1 + j)] =
          static_cast<float>(std::sin(a));
    }
  }
  return plan;
}

void fft(const FftPlan& plan, float* re, float* im, bool inverse) {
  const int n = plan.n;
  for (int i = 0; i < n; ++i) {
    const int r = static_cast<int>(plan.bitrev[static_cast<std::size_t>(i)]);
    if (i < r) {
      std::swap(re[i], re[r]);
      std::swap(im[i], im[r]);
    }
  }
  for (int half = 1; half < n; half <<= 1) {
    const float* wr = plan.tw_re.data() + (half - 1);
    const float* wi = plan.tw_im.data() + (half - 1);
    const float sign = inverse ? -1.0f : 1.0f;
    for (int base = 0; base < n; base += 2 * half) {
      float* re_lo = re + base;
      float* im_lo = im + base;
      float* re_hi = re_lo + half;
      float* im_hi = im_lo + half;
      for (int j = 0; j < half; ++j) {
        const float twr = wr[j];
        const float twi = sign * wi[j];
        const float tr = twr * re_hi[j] - twi * im_hi[j];
        const float ti = twr * im_hi[j] + twi * re_hi[j];
        re_hi[j] = re_lo[j] - tr;
        im_hi[j] = im_lo[j] - ti;
        re_lo[j] += tr;
        im_lo[j] += ti;
      }
    }
  }
  if (inverse) {
    const float s = 1.0f / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      re[i] *= s;
      im[i] *= s;
    }
  }
}

std::vector<float> kernel_spectrum(const std::vector<float>& taps, int n) {
  const int radius = static_cast<int>(taps.size() / 2);
  std::vector<float> h(static_cast<std::size_t>(n));
  const double step = 2.0 * M_PI / static_cast<double>(n);
  for (int k = 0; k < n; ++k) {
    double acc = static_cast<double>(taps[static_cast<std::size_t>(radius)]);
    for (int m = 1; m <= radius; ++m) {
      acc += 2.0 * static_cast<double>(taps[static_cast<std::size_t>(radius + m)]) *
             std::cos(step * static_cast<double>(k) * static_cast<double>(m));
    }
    h[static_cast<std::size_t>(k)] = static_cast<float>(acc);
  }
  return h;
}

}  // namespace fftconv

std::shared_ptr<const std::vector<float>> KernelSpectrumCache::spectrum(
    const std::vector<float>& taps, int n) {
  // FNV-1a over the tap bits; collisions across distinct kernels would
  // need identical length *and* a 64-bit hash collision.
  std::uint64_t sig = 1469598103934665603ull;
  const auto mix = [&sig](std::uint64_t v) {
    sig ^= v;
    sig *= 1099511628211ull;
  };
  mix(taps.size());
  for (const float t : taps) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &t, sizeof(bits));
    mix(bits);
  }
  const Key key{sig, n};
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) return it->second;
  }
  // Compute outside the lock: concurrent first callers may duplicate the
  // work, but the loser's result is identical and simply discarded.
  auto value = std::make_shared<const std::vector<float>>(
      fftconv::kernel_spectrum(taps, n));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = map_.emplace(key, std::move(value));
  (void)inserted;
  return it->second;
}

std::size_t KernelSpectrumCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

KernelSpectrumCache& KernelSpectrumCache::global() {
  static KernelSpectrumCache cache;
  return cache;
}

namespace fftconv {
namespace {

// Runs fn(band) over [0, nbands) on the pool, serial when it's absent.
void for_bands(ThreadPool* pool, std::size_t nbands,
               const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->concurrency() > 1 && nbands > 1) {
    pool->parallel_for(nbands, fn);
  } else {
    for (std::size_t b = 0; b < nbands; ++b) fn(b);
  }
}

// Convolves every length-`nx` row of `data` (ny rows, contiguous) with
// the kernel whose length-plan.n spectrum is `h`, in place. Rows ride
// the complex FFT in pairs (see fft.h); each pair is an independent
// fixed-order computation, so banding is determinism-neutral.
void convolve_rows(float* data, int nx, int ny, const FftPlan& plan,
                   const std::vector<float>& h, ThreadPool* pool) {
  const int n = plan.n;
  const std::size_t npairs = static_cast<std::size_t>(ny + 1) / 2;
  const std::size_t conc = pool != nullptr ? pool->concurrency() : 1;
  const std::size_t nbands = std::min(npairs, conc * 4);
  for_bands(pool, std::max<std::size_t>(nbands, 1), [&](std::size_t band) {
    const std::size_t lo = band * npairs / nbands;
    const std::size_t hi = (band + 1) * npairs / nbands;
    std::vector<float> re(static_cast<std::size_t>(n));
    std::vector<float> im(static_cast<std::size_t>(n));
    for (std::size_t pair = lo; pair < hi; ++pair) {
      const int y0 = static_cast<int>(pair * 2);
      const int y1 = y0 + 1;
      const std::size_t snx = static_cast<std::size_t>(nx);
      float* row0 = data + static_cast<std::size_t>(y0) * snx;
      float* row1 =
          y1 < ny ? data + static_cast<std::size_t>(y1) * snx : nullptr;
      for (int x = 0; x < nx; ++x) {
        re[static_cast<std::size_t>(x)] = row0[x];
        im[static_cast<std::size_t>(x)] = row1 != nullptr ? row1[x] : 0.0f;
      }
      std::fill(re.begin() + nx, re.end(), 0.0f);
      std::fill(im.begin() + nx, im.end(), 0.0f);
      fft(plan, re.data(), im.data(), /*inverse=*/false);
      // The kernel spectrum is real, so one multiply per component; this
      // loop is the SIMD hot spot and vectorizes as written.
      float* pre = re.data();
      float* pim = im.data();
      const float* ph = h.data();
      for (int k = 0; k < n; ++k) {
        pre[k] *= ph[k];
        pim[k] *= ph[k];
      }
      fft(plan, re.data(), im.data(), /*inverse=*/true);
      for (int x = 0; x < nx; ++x) row0[x] = re[static_cast<std::size_t>(x)];
      if (row1 != nullptr) {
        for (int x = 0; x < nx; ++x) row1[x] = im[static_cast<std::size_t>(x)];
      }
    }
  });
}

// dst[x * ny + y] = src[y * nx + x], blocked for cache locality and
// banded over dst rows on the pool (pure copy, order-independent).
void transpose(const float* src, int nx, int ny, float* dst, ThreadPool* pool) {
  constexpr int kBlock = 32;
  const std::size_t nbx = static_cast<std::size_t>((nx + kBlock - 1) / kBlock);
  for_bands(pool, nbx, [&](std::size_t bx) {
    const int x0 = static_cast<int>(bx) * kBlock;
    const int x1 = std::min(x0 + kBlock, nx);
    for (int y0 = 0; y0 < ny; y0 += kBlock) {
      const int y1 = std::min(y0 + kBlock, ny);
      for (int x = x0; x < x1; ++x) {
        for (int y = y0; y < y1; ++y) {
          dst[static_cast<std::size_t>(x) * static_cast<std::size_t>(ny) +
              static_cast<std::size_t>(y)] =
              src[static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
                  static_cast<std::size_t>(x)];
        }
      }
    }
  });
}

}  // namespace

bool fft_beats_direct(std::size_t ntaps, int nx, int ny) {
  if (nx < 8 || ny < 8) return false;
  const int radius = static_cast<int>(ntaps / 2);
  const double lx = next_pow2(nx + radius);
  const double ly = next_pow2(ny + radius);
  const double npx = static_cast<double>(nx) * static_cast<double>(ny);
  // Direct: one multiply-add per tap per pixel per pass, two passes.
  const double direct = 4.0 * static_cast<double>(ntaps) * npx;
  // FFT: one complex FFT per row per pass (two real rows share one
  // transform, two transforms per pair) at ~5*L*log2(L) flops, plus the
  // real-spectrum pointwise multiply, plus two transposes counted as
  // memory traffic. The constants were fitted to the crossover of the
  // old per-pixel direct loop. The vectorized tap-outer loop now beats
  // the FFT on every tile edge from 256 to 4096 px and every kernel
  // from 21 to 61 taps (bench_k1_litho_crossover), so this model is
  // optimistic about the FFT.
  const auto pass = [](double rows, double len) {
    return rows * (5.0 * len * std::log2(len) + 3.0 * len);
  };
  const double fft_cost = pass(ny, lx) + pass(nx, ly) + 8.0 * npx;
  return fft_cost < 0.9 * direct;
}

Raster fft_convolve_separable(const Raster& in, const std::vector<float>& taps,
                              KernelSpectrumCache* cache, ThreadPool* pool) {
  TELEM_SPAN_ARG("litho/fft", static_cast<std::uint64_t>(in.nx) *
                                  static_cast<std::uint64_t>(in.ny));
  if (cache == nullptr) cache = &KernelSpectrumCache::global();
  const int radius = static_cast<int>(taps.size() / 2);
  Raster out = in;
  if (in.nx <= 0 || in.ny <= 0) return out;

  // Horizontal pass over the rows as stored.
  {
    const int lx = next_pow2(in.nx + radius);
    const FftPlan plan = make_plan(lx);
    const auto h = cache->spectrum(taps, lx);
    convolve_rows(out.values.data(), in.nx, in.ny, plan, *h, pool);
  }
  // Vertical pass: transpose, convolve what were the columns, transpose
  // back. The scratch buffer holds the ny x nx transposed image.
  {
    const int ly = next_pow2(in.ny + radius);
    const FftPlan plan = make_plan(ly);
    const auto h = cache->spectrum(taps, ly);
    std::vector<float> t(out.values.size());
    transpose(out.values.data(), in.nx, in.ny, t.data(), pool);
    convolve_rows(t.data(), in.ny, in.nx, plan, *h, pool);
    transpose(t.data(), in.ny, in.nx, out.values.data(), pool);
  }
  return out;
}

}  // namespace fftconv
}  // namespace dfm

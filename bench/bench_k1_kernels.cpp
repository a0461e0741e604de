// Kernel bench: per-kernel throughput of the geometry and litho
// kernels every pass calls.
//   CONVOLVE: the direct separable convolution, the only litho
//     convolution (median of 3), on square rasters of edge 256..4096
//     pixels with 21..61 taps, at 1 thread and at the flow's default
//     thread count (min(4, cores)).
//   SWEEP: the scanline Boolean (`sweep_boolean`, all four operators)
//     and `covered_at_least` (k = 1, 2) on seeded rect soups of 10^2,
//     10^3 and 10^4 rects, single-threaded.
//   CLIP: `Region::clipped` plus the first query (`empty()`), as the
//     litho pass calls them, on perfbench's scale-8 design's M1 (seed 7)
//     clipped to every litho-tile window at tile edges 20000 (the
//     default) and 4000.
// Prints one parseable line per row; exits 0.
#include "bench_common.h"

#include "core/parallel.h"
#include "gen/rng.h"
#include "layout/tile_grid.h"
#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

using namespace dfm;
using namespace dfm::bench;

namespace {

// Median of `reps` runs of fn, which returns its own timed milliseconds.
template <typename F>
double median_ms(int reps, F&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(fn());
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

// `n` rects of edge 20..200 over a square sized for about half coverage.
std::vector<Rect> soup(std::uint64_t seed, int n) {
  Rng rng(seed);
  const auto extent =
      static_cast<Coord>(150.0 * std::sqrt(static_cast<double>(n)));
  std::vector<Rect> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Coord x = rng.uniform(0, extent), y = rng.uniform(0, extent);
    out.push_back(
        Rect{x, y, x + rng.uniform(20, 200), y + rng.uniform(20, 200)});
  }
  return out;
}

// Median over 5 batches of the microseconds per call of `fn`, each
// batch about 2e4 input rects' worth of calls.
template <typename F>
double us_per_call(int n, F&& fn) {
  const int calls = std::max(1, 20000 / n);
  return median_ms(5, [&] {
           Stopwatch t;
           for (int i = 0; i < calls; ++i) fn();
           return t.ms();
         }) *
         1e3 / calls;
}

void sweep_rows() {
  std::printf("Scanline Boolean, 1 thread (two soups of n rects each)\n");
  std::printf("%6s %-18s %10s %10s\n", "n", "kernel", "us/call", "rects");
  const char* names[] = {"or", "and", "sub", "xor"};
  for (const int n : {100, 1000, 10000}) {
    const std::vector<Rect> a = soup(static_cast<std::uint64_t>(n), n);
    const std::vector<Rect> b = soup(static_cast<std::uint64_t>(n) + 1, n);
    for (int op = 0; op < 4; ++op) {
      std::size_t out = 0;
      const double us = us_per_call(n, [&] {
        out = sweep_boolean(a, b, static_cast<BoolOp>(op)).size();
      });
      std::printf("%6d sweep_boolean %-4s %10.1f %10zu\n", n, names[op], us,
                  out);
      std::printf("SWEEP kernel=sweep_boolean op=%s rects=%d us=%.1f "
                  "rects_out=%zu\n",
                  names[op], n, us, out);
    }
    for (const int k : {1, 2}) {
      std::size_t out = 0;
      const double us =
          us_per_call(n, [&] { out = covered_at_least(a, k).rect_count(); });
      std::printf("%6d covered_at_least %d %10.1f %10zu\n", n, k, us, out);
      std::printf("SWEEP kernel=covered_at_least k=%d rects=%d us=%.1f "
                  "rects_out=%zu\n",
                  k, n, us, out);
    }
  }
  std::printf("\n");
}

void clip_rows() {
  const Library lib = scaling_design(7, 8);
  const LayoutSnapshot snap = make_snapshot(lib, lib.top_cell());
  const NormalizedRegion m1 = snap.layer(layers::kMetal1);
  const Coord margin = 6 * OpticalModel{}.sigma;
  std::printf("M1 clipped to litho-tile windows (scale 8, %zu rects, "
              "halo %lld)\n",
              m1.rect_count(), static_cast<long long>(margin));
  std::printf("%6s %6s %10s %10s %10s\n", "tile", "tiles", "rects", "ms",
              "us/tile");
  for (const Coord tile : {Coord{20000}, Coord{4000}}) {
    const TileGrid grid(m1.bbox(), tile);
    std::size_t rects = 0;
    const double ms = median_ms(5, [&] {
      Stopwatch t;
      rects = 0;
      for (std::size_t ti = 0; ti < grid.size(); ++ti) {
        const Region clip = m1.clipped(grid.core(ti).expanded(margin));
        if (!clip.empty()) rects += clip.rect_count();
      }
      return t.ms();
    });
    const double us_per_tile =
        grid.size() > 0 ? ms * 1e3 / static_cast<double>(grid.size()) : 0;
    std::printf("%6lld %6zu %10zu %10.2f %10.1f\n",
                static_cast<long long>(tile), grid.size(), rects, ms,
                us_per_tile);
    std::printf("CLIP layer=m1 scale=8 tile=%lld tiles=%zu rects_in=%zu "
                "rects_out=%zu ms=%.2f us_per_tile=%.1f\n",
                static_cast<long long>(tile), grid.size(), m1.rect_count(),
                rects, ms, us_per_tile);
  }
}

void convolve_rows() {
  const unsigned flow_threads =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<unsigned> thread_counts{1};
  if (flow_threads > 1) thread_counts.push_back(flow_threads);
  for (const unsigned threads : thread_counts) {
    ThreadPool pool(threads);
    std::printf("Litho separable convolution, %u thread(s)\n", threads);
    std::printf("%6s %5s %10s %10s\n", "edge", "taps", "direct_ms",
                "Mpix/s");
    for (const int edge : {256, 512, 1024, 2048, 4096}) {
      Raster img;
      img.px = 5;
      img.nx = img.ny = edge;
      img.window = Rect{0, 0, edge * img.px, edge * img.px};
      img.values.resize(static_cast<std::size_t>(edge) *
                        static_cast<std::size_t>(edge));
      Rng rng(static_cast<std::uint64_t>(edge));
      for (float& v : img.values) v = static_cast<float>(rng.uniform01());
      for (const int ntaps : {21, 31, 41, 51, 61}) {
        // gaussian_taps reaches ceil(3 sigma) pixels: pick sigma for the
        // radius.
        const int radius = ntaps / 2;
        const std::vector<float> taps =
            detail::gaussian_taps((radius - 0.5) / 3.0);
        // The kernel consumes its input (the flow moves the rasterized
        // tile in), so the copy it gets is made off the clock.
        const double direct_ms = median_ms(3, [&] {
          Raster in = img;
          Stopwatch t;
          detail::separable_convolve(std::move(in), taps, &pool);
          return t.ms();
        });
        const double mpix_per_s =
            direct_ms > 0 ? static_cast<double>(edge) * edge / 1e3 / direct_ms
                          : 0;
        std::printf("%6d %5zu %10.1f %10.1f\n", edge, taps.size(), direct_ms,
                    mpix_per_s);
        // Parseable: one line per shape.
        std::printf(
            "CONVOLVE edge=%d taps=%zu threads=%u direct_ms=%.2f "
            "mpix_per_s=%.1f\n",
            edge, taps.size(), threads, direct_ms, mpix_per_s);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  convolve_rows();
  sweep_rows();
  clip_rows();
  return 0;
}

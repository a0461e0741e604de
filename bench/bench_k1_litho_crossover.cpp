// Kernel bench: throughput of the direct separable convolution, the
// only litho convolution. Times it (median of 3) on square rasters of
// edge 256..4096 pixels with 21..61 taps, at 1 thread and at the flow's
// default thread count (min(4, cores)). Prints one parseable CONVOLVE
// line per shape; exits 0.
#include "bench_common.h"

#include "core/parallel.h"
#include "gen/rng.h"
#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include <algorithm>
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

}  // namespace

int main() {
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
  return 0;
}

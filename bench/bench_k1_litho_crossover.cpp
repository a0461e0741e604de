// Kernel bench: where the FFT convolution overtakes the direct separable
// convolution. Times both (median of 3) on square rasters of edge
// 256..4096 pixels with 21..61 taps, at 1 thread and at the flow's
// default thread count (min(4, cores)), and prints each pair next to the
// choice `fft_beats_direct` makes for that shape, so the kAuto crossover
// can be checked against measurement. Prints one parseable CROSSOVER
// line per shape; exits 0.
#include "bench_common.h"

#include "core/parallel.h"
#include "gen/rng.h"
#include "litho/fft.h"
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
  KernelSpectrumCache kernels;
  for (const unsigned threads : thread_counts) {
    ThreadPool pool(threads);
    std::printf("Litho convolution crossover: direct vs FFT, %u thread(s)\n",
                threads);
    std::printf("%6s %5s %10s %10s %8s %10s %8s\n", "edge", "taps",
                "direct_ms", "fft_ms", "fft/dir", "auto_pick", "agrees");
    int disagreements = 0;
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
        // The direct kernel consumes its input (the flow moves the
        // rasterized tile in), so the copy it gets is made off the clock.
        const double direct_ms = median_ms(3, [&] {
          Raster in = img;
          Stopwatch t;
          detail::separable_convolve(std::move(in), taps, &pool);
          return t.ms();
        });
        const double fft_ms = median_ms(3, [&] {
          Stopwatch t;
          fftconv::fft_convolve_separable(img, taps, &kernels, &pool);
          return t.ms();
        });
        const bool fft_faster = fft_ms < direct_ms;
        const bool pick_fft =
            fftconv::fft_beats_direct(taps.size(), edge, edge);
        disagreements += pick_fft != fft_faster ? 1 : 0;
        std::printf("%6d %5zu %10.1f %10.1f %8.2f %10s %8s\n", edge,
                    taps.size(), direct_ms, fft_ms, fft_ms / direct_ms,
                    pick_fft ? "fft" : "direct",
                    pick_fft == fft_faster ? "yes" : "NO");
        // Parseable: one line per shape.
        std::printf(
            "CROSSOVER edge=%d taps=%zu threads=%u direct_ms=%.2f "
            "fft_ms=%.2f auto=%s\n",
            edge, taps.size(), threads, direct_ms, fft_ms,
            pick_fft ? "fft" : "direct");
      }
    }
    std::printf("fft_beats_direct disagrees with the measured winner on %d "
                "of 25 shapes\n\n",
                disagreements);
  }
  return 0;
}

// Internal: the direct separable convolution, its Gaussian taps, and
// the row-band scheduler it shares with rasterize.
#pragma once

#include "litho/litho.h"

#include <functional>
#include <vector>

namespace dfm::detail {

/// Runs fn(lo, hi) over bands of the rows [0, ny) — concurrently, about
/// four bands per thread, with a multi-threaded pool; as one band
/// otherwise.
void for_row_bands(int ny, ThreadPool* pool,
                   const std::function<void(int, int)>& fn);

/// Normalized Gaussian taps at pixel pitch, radius 3 sigma (in pixels).
std::vector<float> gaussian_taps(double sigma_px);

/// Direct separable convolution with clamp-to-zero borders (dark field):
/// `taps` along x, then along y. Consumes `img` and returns the result in
/// its buffer. Bit-identical at any thread count.
Raster separable_convolve(Raster img, const std::vector<float>& taps,
                          ThreadPool* pool);

}  // namespace dfm::detail

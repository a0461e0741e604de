#include "litho/kernel_detail.h"
// Gaussian PSF: separable 1D kernel construction and defocus widening.
#include "litho/litho.h"

#include <cmath>

namespace dfm {

double OpticalModel::sigma_at_nm(Coord defocus) const {
  // Quadrature growth: a defocus of z adds ~0.5z of blur. The constant is
  // a fit knob, not physics; it gives Bossung curvature of sensible shape.
  // At defocus 0 this is exactly `sigma`, so best-focus behaviour is
  // unchanged by the unrounded form.
  const double extra = 0.5 * static_cast<double>(defocus);
  return std::sqrt(static_cast<double>(sigma) * static_cast<double>(sigma) +
                   extra * extra);
}

namespace detail {
// defined here, declared in kernel_detail.h

// Discrete normalized Gaussian taps at pixel pitch, radius 3 sigma.
std::vector<float> gaussian_taps(double sigma_px) {
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma_px)));
  std::vector<float> taps(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-0.5 * (i / sigma_px) * (i / sigma_px));
    taps[static_cast<std::size_t>(i + radius)] = static_cast<float>(v);
    sum += v;
  }
  for (float& t : taps) t = static_cast<float>(t / sum);
  return taps;
}

}  // namespace detail

}  // namespace dfm

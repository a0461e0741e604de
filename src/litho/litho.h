// Compact optical lithography model.
//
// What the authors' testbeds use (calibrated SOCS kernels, resist models)
// is proprietary; this module substitutes the standard textbook
// approximation: the aerial image is the mask transmission convolved with
// an isotropic Gaussian point-spread function, and the resist prints
// where intensity exceeds a constant threshold. The process window is
// explored by mapping *defocus* to a wider Gaussian and *dose* to a
// scaled threshold. This preserves the qualitative behaviours DFM
// techniques react to: corner rounding, line-end pullback, iso-dense
// bias, pinching between neighbours, and bridging across small gaps.
#pragma once

#include "geometry/region.h"
#include "layout/layer_map.h"

#include <vector>

namespace dfm {

class ThreadPool;           // core/parallel.h
class KernelSpectrumCache;  // litho/fft.h

/// Convolution strategy for the litho fast path (PR: litho fast path).
/// kAuto picks FFT vs the direct separable loop per tile by the
/// kernel-radius/raster-size crossover; kOff is the conservative
/// everything-direct, no-prefilter mode matching the historical
/// behaviour bit for bit.
enum class LithoFastMode { kAuto, kFft, kDirect, kOff };

/// Sampled scalar field over a window (row-major, origin at window.lo).
struct Raster {
  Rect window;
  Coord px = 1;  // pixel edge in nm
  int nx = 0, ny = 0;
  std::vector<float> values;

  float at(int ix, int iy) const {
    return values[static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx) +
                  static_cast<std::size_t>(ix)];
  }
  float& at(int ix, int iy) {
    return values[static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx) +
                  static_cast<std::size_t>(ix)];
  }
  /// Bilinear sample at a layout point (clamped to the window).
  double sample(Point p) const;
};

/// Area-weighted rasterization of a region: each pixel holds its covered
/// fraction in [0, 1]. Coverage is summed exactly in integer nm^2, so a
/// pixel's value depends only on the point set inside it — not on how it
/// is cut into rects, on their order, or on the thread count. Throws for
/// px above 4096 nm, where the sum would stop being exact.
Raster rasterize(const Region& r, const Rect& window, Coord px,
                 ThreadPool* pool = nullptr);

struct OpticalModel {
  Coord sigma = 30;        // PSF sigma at best focus, nm
  double threshold = 0.5;  // resist threshold on normalized intensity
  Coord px = 5;            // simulation pixel, nm

  /// Effective PSF sigma at a given defocus (nm): quadrature growth.
  /// Unrounded — kernel taps built from this value track defocus
  /// smoothly instead of quantizing to integer-nm sigma steps.
  double sigma_at_nm(Coord defocus) const;
};

struct ProcessCondition {
  double dose = 1.0;   // relative exposure dose (threshold scales as 1/dose)
  Coord defocus = 0;   // nm
};

/// Aerial image: Gaussian-convolved rasterized mask. Row-parallel with a
/// pool (each output pixel is independent), deterministic either way.
/// Always uses the direct separable convolution.
Raster aerial_image(const Region& mask, const Rect& window,
                    const OpticalModel& model, Coord defocus = 0,
                    ThreadPool* pool = nullptr);

/// aerial_image with an explicit convolution strategy. kFft (or kAuto
/// past the crossover) computes the same separable convolution through
/// per-row FFTs — equal to the direct path within float round-off, and
/// bit-identical to itself at any thread count. `kernels` memoizes the
/// kernel spectra across tiles/corners; null falls back to a process
/// global cache.
Raster aerial_image_ex(const Region& mask, const Rect& window,
                       const OpticalModel& model, Coord defocus,
                       ThreadPool* pool, LithoFastMode mode,
                       KernelSpectrumCache* kernels = nullptr);

/// Printed contours at a process condition: pixels with dose*I >= threshold,
/// returned as a normalized region (pixel-grid resolution, the last
/// column and row clipped to the window). With a pool, column strips
/// threshold concurrently; the region is the same either way.
Region printed_region(const Raster& aerial, const OpticalModel& model,
                      const ProcessCondition& cond,
                      ThreadPool* pool = nullptr);

/// The print of a simulation window as per-column runs of its pixel grid
/// (anchored at window.lo, pitch model.px): grid_region(window, model.px,
/// runs) is simulate_print_ex's region, rect for rect.
struct WindowPrint {
  ColumnRuns runs;
  /// Convolved directly (not by FFT): the runs can seed a later splice.
  bool direct = false;
  /// The part of the window whose pixels this call rendered: the whole
  /// window, or just the spliced pixels (empty when none changed).
  Rect rendered = Rect::empty();
};

/// simulate_print_ex as runs. `prev` and `changed` turn a re-simulation
/// into a splice: when `prev` is the direct print of this window for a
/// mask that differs from `mask` only inside `changed`, and this print
/// convolves directly too, only the pixels the change can reach (those
/// `changed` touches inside the padded window, grown by the tap radius,
/// kept to the window's grid) are re-rendered, from a raster of those
/// pixels grown by the tap radius again, and spliced into `prev`. Raster
/// pixels are exact and each re-rendered pixel sums the same products in
/// the same order as in the whole window, so the runs are bit-identical
/// to a full print. A direct render works in row strips of a few million
/// pixels, each spliced onto the print so far, so it never holds a whole
/// large window's raster. A span `litho/window` carries the number of
/// pixels re-rendered.
WindowPrint print_window(const Region& mask, const Rect& window,
                         const OpticalModel& model,
                         const ProcessCondition& cond, ThreadPool* pool,
                         LithoFastMode mode,
                         KernelSpectrumCache* kernels = nullptr,
                         const ColumnRuns* prev = nullptr,
                         const Rect& changed = Rect::empty());

/// One-call simulate: mask -> printed region inside `window`.
Region simulate_print(const Region& mask, const Rect& window,
                      const OpticalModel& model,
                      const ProcessCondition& cond = {},
                      ThreadPool* pool = nullptr);

/// simulate_print with an explicit convolution strategy (see
/// aerial_image_ex).
Region simulate_print_ex(const Region& mask, const Rect& window,
                         const OpticalModel& model,
                         const ProcessCondition& cond, ThreadPool* pool,
                         LithoFastMode mode,
                         KernelSpectrumCache* kernels = nullptr);

// ---- CD gauges -----------------------------------------------------------

/// A measurement cutline: CD is measured along the segment from `a` to
/// `b` as the length of the printed (or unprinted) span containing the
/// midpoint, with subpixel interpolation at threshold crossings.
struct Gauge {
  Point a;
  Point b;
  std::string name;
};

/// Measured CD in nm, or -1 when the midpoint does not print (pinched
/// away) for a bright-feature gauge.
double measure_cd(const Raster& aerial, const OpticalModel& model,
                  const ProcessCondition& cond, const Gauge& g);

// ---- Process window ------------------------------------------------------

struct BossungPoint {
  ProcessCondition cond;
  double cd = -1;
};

/// CD through a dose x defocus matrix for one gauge.
std::vector<BossungPoint> bossung(const Region& mask, const Rect& window,
                                  const OpticalModel& model, const Gauge& g,
                                  const std::vector<double>& doses,
                                  const std::vector<Coord>& defoci);

/// PV band: the area printed under some-but-not-all corner conditions —
/// the layout's variability footprint.
struct PvBand {
  Region always;     // prints at every corner
  Region sometimes;  // prints at at least one corner
  Region band() const { return sometimes - always; }
};

PvBand pv_band(const Region& mask, const Rect& window,
               const OpticalModel& model,
               const std::vector<ProcessCondition>& corners);

// ---- Hotspots --------------------------------------------------------------

enum class HotspotKind { kPinch, kBridge };

struct Hotspot {
  HotspotKind kind;
  Rect marker;
  double severity = 0;  // area-based badness, larger is worse

  friend bool operator==(const Hotspot&, const Hotspot&) = default;
};

/// Compares printed vs drawn target: pinches are target areas that fail
/// to print (eroded target not covered by print); bridges are printed
/// areas bridging drawn gaps (print outside the dilated target). With a
/// pool the two halves run concurrently; the list (pinches, then
/// bridges) is the same either way.
std::vector<Hotspot> find_hotspots(const Region& target, const Region& printed,
                                   Coord edge_tolerance,
                                   ThreadPool* pool = nullptr);

/// Full-flow helper: simulate at nominal + detect.
std::vector<Hotspot> litho_hotspots(const Region& target, const Rect& window,
                                    const OpticalModel& model,
                                    Coord edge_tolerance);

}  // namespace dfm

#include "litho/prefilter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>

namespace dfm {
namespace {

// The one tunable margin: every guarded condition is checked with its
// dose derated by this factor (divided for pinch, multiplied for
// bridge). Dose derating is rigorously conservative — the aerial raster
// is unchanged and only the per-pixel threshold moves, so the derated
// printed set is a pixelwise subset (pinch) / superset (bridge) of the
// real one. The 5% headroom absorbs what dose monotonicity does not
// cover: clip-edge light loss at the tile window boundary (< 0.5% at
// the half-halo distance). The prefilter safety suite keeps it honest: it re-simulates every skipped
// tile at all window corners and pins geometry just inside / outside
// the calibrated thresholds.
constexpr double kDoseMargin = 1.05;

double phi(double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); }

// Inverse standard normal CDF by bisection (p in (0, 1)).
double inv_phi(double p) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    (phi(mid) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

// Closed-form pre-screen for an isolated w-wide rect: the aerial image
// of a rectangle is an exact separable product of erf terms, and a
// raster cell overlapping the tol-eroded interior has its least-lit
// point no shallower than tol - px from an edge and no closer than
// w/2 - px to a corner (closer cells belong to the corner proof below).
// If that worst point clears the pinch threshold, every deep edge cell
// prints at every raster phase — so no unbounded-length miss strip can
// open along a long edge, however long the rect is.
bool edge_prints(double w, double sigma, double tol, double px, double thr) {
  const double depth = tol - px;
  if (depth <= 0) return false;
  const double along = phi(depth / sigma) + phi((w - depth) / sigma) - 1.0;
  const double across = 2.0 * phi((w / 2.0 - px) / sigma) - 1.0;
  return along * across >= thr;
}

// Corner proof for an isolated w x w square, by exhaustive simulation:
// layout coordinates are integer nm, so the square's alignment against
// the px-pitch raster grid takes exactly px^2 distinct phases — sweep
// them all, at every guarded defocus, at dose derated by kDoseMargin,
// through the real simulate_print/find_hotspots pipeline. The square
// must produce no hotspot at any phase, and every sub-tol^2 miss
// residue must stay confined to its corner (at least tol clear of the
// midlines), so that in a larger rect the four corner residues can
// never merge into a reportable component.
//
// This bounds every rect with both sides >= w: nest the square at each
// corner of the rect — intensity is pixelwise monotone in mask area
// (the raster is additive and the kernel positive), so the rect's miss
// near that corner is a subset of the square's verified residue; the
// edge pre-screen covers every cell outside the corner footprints.
bool corner_sweep_clean(const OpticalModel& model, Coord w, Coord tol,
                        const std::vector<Coord>& defoci, double dose_pinch,
                        double dose_bridge) {
  const Coord margin = 6 * model.sigma;
  const Rect window = Rect{0, 0, w + model.px, w + model.px}.expanded(margin);
  const Coord half = w / 2;
  if (half <= 2 * tol) return false;
  for (const Coord defocus : defoci) {
    for (const double dose : {dose_pinch, dose_bridge}) {
      for (Coord ox = 0; ox < model.px; ++ox) {
        for (Coord oy = 0; oy < model.px; ++oy) {
          Region mask;
          mask.add(Rect{ox, oy, ox + w, oy + w});
          const Region printed =
              simulate_print(mask, window, model, {dose, defocus});
          if (!find_hotspots(mask, printed, tol).empty()) return false;
          for (const Region& comp : (mask.shrunk(tol) - printed).components()) {
            const Rect b = comp.bbox();
            const Coord mx = ox + half, my = oy + half;
            const bool x_clear = b.hi.x <= mx - tol || b.lo.x >= mx + tol;
            const bool y_clear = b.hi.y <= my - tol || b.lo.y >= my + tol;
            if (!x_clear || !y_clear) return false;
          }
        }
      }
    }
  }
  return true;
}

// Bridge condition for two facing half-planes at gap g: peak intensity
// in the disallowed strip (tol away from both plates, which exists only
// for g > 2*tol) sits at its edges; it must stay under the bridge
// threshold or resist spans the gap with unbounded-length area.
bool gap_never_bridges(double g, double sigma, double tol, double thr) {
  const double peak = 1.0 - phi(tol / sigma) + phi((tol - g) / sigma);
  return peak < thr;
}

std::string calibration_key(const OpticalModel& model, Coord edge_tolerance,
                            const std::vector<ProcessCondition>& window) {
  std::ostringstream key;
  key << model.sigma << '|' << model.threshold << '|' << model.px << '|'
      << edge_tolerance;
  for (const ProcessCondition& c : window) {
    key << '|' << c.dose << ',' << c.defocus;
  }
  return key.str();
}

}  // namespace

std::vector<ProcessCondition> default_process_window() {
  // +-5% dose at best focus and at 20nm defocus. The defocus slack is
  // deliberately modest: by ~24nm of defocus this optics genuinely
  // prints corner-rounding hotspots on isolated fat rects (the miss
  // residue outgrows the tol^2 forgiveness), so no conservative filter
  // could skip anything under a wider window — the calibration would
  // correctly refuse to validate.
  return {{0.95, 0}, {1.05, 0}, {0.95, 20}, {1.05, 20}};
}

PrefilterCalibration calibrate_prefilter(
    const OpticalModel& model, Coord edge_tolerance,
    const std::vector<ProcessCondition>& window) {
  PrefilterCalibration cal;
  if (window.empty() || edge_tolerance <= 0 || model.threshold <= 0 ||
      model.px <= 0 || edge_tolerance <= model.px) {
    return cal;
  }

  // The guarded set is the *listed* conditions plus nominal (what the
  // tiled flow actually simulates). Dose extremes dominate interior
  // doses exactly (same raster, moving threshold), but defocus changes
  // the kernel and interacts with the pixel grid non-monotonically —
  // so every distinct defocus is verified individually below.
  double dose_min = 1.0, dose_max = 1.0, sigma_max = model.sigma_at_nm(0);
  std::vector<Coord> defoci{0};
  for (const ProcessCondition& c : window) {
    dose_min = std::min(dose_min, c.dose);
    dose_max = std::max(dose_max, c.dose);
    sigma_max = std::max(sigma_max, model.sigma_at_nm(c.defocus));
    if (std::find(defoci.begin(), defoci.end(), c.defocus) == defoci.end()) {
      defoci.push_back(c.defocus);
    }
  }
  if (sigma_max <= 0.0 || dose_min <= 0.0) return cal;

  const double tol = static_cast<double>(edge_tolerance);
  const double px = static_cast<double>(model.px);
  const double thr_pinch =
      model.threshold / (dose_min / kDoseMargin);  // must be exceeded
  const double thr_bridge =
      model.threshold / (dose_max * kDoseMargin);  // must stay under
  if (thr_pinch >= 1.0) return cal;

  // A single plate's own edge bleed must die off well inside the bloat,
  // or no gap is provably safe.
  const double bleed = sigma_max * inv_phi(1.0 - thr_bridge);
  if (bleed > tol - px) return cal;

  // Smallest provably-printing rect dimension: the cheap closed-form
  // edge screen first, then the exhaustive-phase corner simulation. The
  // corner residue saturates with w (extra width only adds light far
  // from the corner), so a run of simulated failures will not be
  // rescued by a wider candidate — give up after a few.
  const Coord w_lo = 2 * edge_tolerance + 2 * model.px;
  const Coord w_hi = static_cast<Coord>(std::ceil(20.0 * sigma_max));
  Coord w_safe = 0;
  int sim_failures = 0;
  for (Coord w = w_lo; w <= w_hi && sim_failures < 6; w += model.px) {
    if (!edge_prints(static_cast<double>(w), sigma_max, tol, px, thr_pinch)) {
      continue;
    }
    if (corner_sweep_clean(model, w, edge_tolerance, defoci,
                           dose_min / kDoseMargin, dose_max * kDoseMargin)) {
      w_safe = w;
      break;
    }
    ++sim_failures;
  }
  if (w_safe == 0) return cal;

  // Smallest provably-unbridgeable gap.
  const Coord g_lo = 2 * edge_tolerance + model.px;
  const Coord g_hi = static_cast<Coord>(std::ceil(20.0 * sigma_max));
  Coord g_safe = 0;
  for (Coord g = g_lo; g <= g_hi; g += model.px) {
    if (gap_never_bridges(static_cast<double>(g), sigma_max, tol, thr_bridge)) {
      g_safe = g;
      break;
    }
  }
  if (g_safe == 0) return cal;

  cal.valid = true;
  cal.safe_min_dim = w_safe + 2 * model.px;
  cal.safe_min_gap = g_safe + 2 * model.px;
  cal.small_gap_max = std::max<Coord>(0, 2 * edge_tolerance - 2 * model.px);
  cal.edge_tolerance = edge_tolerance;
  return cal;
}

PrefilterCalibration prefilter_calibration(
    const OpticalModel& model, Coord edge_tolerance,
    const std::vector<ProcessCondition>& window) {
  static std::mutex mu;
  static std::map<std::string, PrefilterCalibration>* memo =
      new std::map<std::string, PrefilterCalibration>();
  const std::string key = calibration_key(model, edge_tolerance, window);
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = memo->find(key);
    if (it != memo->end()) return it->second;
  }
  const PrefilterCalibration cal =
      calibrate_prefilter(model, edge_tolerance, window);
  std::lock_guard<std::mutex> lock(mu);
  return memo->emplace(key, cal).first->second;
}

TileFeatures tile_features(const Region& clip, const Rect& window,
                           const PrefilterCalibration& cal, const Rect& zone,
                           std::size_t max_rects) {
  TileFeatures f;
  const std::vector<Rect>& rects = clip.rects();
  f.rect_count = rects.size();
  if (rects.empty()) return f;
  if (rects.size() > max_rects) {
    f.overflow = true;
    return f;
  }
  const double warea = static_cast<double>(window.width()) *
                       static_cast<double>(window.height());
  f.density = warea > 0 ? static_cast<double>(clip.area()) / warea : 0.0;

  f.min_dim = std::numeric_limits<Coord>::max();
  for (const Rect& r : rects) {
    f.min_dim = std::min(f.min_dim, std::min(r.width(), r.height()));
  }
  // Pairwise Chebyshev separation: exact for facing rects, an
  // underestimate for diagonal ones — which only errs towards
  // simulating. Canonical rects never overlap; sep <= 0 means abutting.
  // Pairs within small_gap_max print as one connected blob, so they are
  // merged into clusters for the zone-corner check below.
  std::vector<std::size_t> parent(rects.size());
  for (std::size_t i = 0; i < rects.size(); ++i) parent[i] = i;
  const auto find = [&parent](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  f.min_gap = std::numeric_limits<Coord>::max();
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      const Rect& a = rects[i];
      const Rect& b = rects[j];
      const Coord dx = std::max(a.lo.x - b.hi.x, b.lo.x - a.hi.x);
      const Coord dy = std::max(a.lo.y - b.hi.y, b.lo.y - a.hi.y);
      const Coord sep = std::max(dx, dy);
      if (sep <= 0) {
        f.touching = true;
      } else {
        f.min_gap = std::min(f.min_gap, sep);
        if (sep > cal.small_gap_max && sep < cal.safe_min_gap) {
          f.risky_gap = true;
        }
      }
      if (sep <= cal.small_gap_max) parent[find(i)] = find(j);
    }
  }

  // Zone-corner wrap: hotspot extraction clips the target to the zone
  // but not the print, so a print blob crossing two adjacent zone edges
  // leaves an L of "extra" outside the bloated target whose connected
  // component wraps the zone corner — and the component's bbox center
  // (the ownership point) can land back inside the core. Blobs hugging
  // a single zone edge are safe: their extra strips stay on that side,
  // centers outside the core. A blob can only reach around a corner if
  // its print comes within the tolerance of the corner point; print
  // bleeds under tol beyond the mask, so inflating each cluster bbox by
  // 2*tol and testing corner containment is conservative.
  std::vector<Rect> cluster(rects.size());
  std::vector<bool> seen(rects.size(), false);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const std::size_t root = find(i);
    cluster[root] = seen[root] ? cluster[root].join(rects[i]) : rects[i];
    seen[root] = true;
  }
  const Point corners[4] = {zone.lo,
                            {zone.hi.x, zone.lo.y},
                            {zone.lo.x, zone.hi.y},
                            zone.hi};
  for (std::size_t i = 0; i < rects.size() && !f.corner_wrap; ++i) {
    if (!seen[i]) continue;
    const Rect inflated = cluster[i].expanded(2 * cal.edge_tolerance);
    for (const Point& c : corners) {
      if (inflated.contains(c)) {
        f.corner_wrap = true;
        break;
      }
    }
  }
  return f;
}

bool prefilter_safe(const TileFeatures& f, const PrefilterCalibration& cal) {
  if (!cal.valid || f.overflow || f.touching || f.risky_gap || f.corner_wrap) {
    return false;
  }
  if (f.rect_count == 0) return true;
  return f.min_dim >= cal.safe_min_dim;
}

}  // namespace dfm

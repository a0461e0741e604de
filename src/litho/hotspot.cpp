#include "litho/litho.h"

#include "core/parallel.h"
#include "geometry/normalized_region.h"

namespace dfm {

std::vector<Hotspot> find_hotspots(const Region& target, const Region& printed,
                                   Coord edge_tolerance, ThreadPool* pool) {
  // A real failure removes/adds at least a tolerance-sized patch;
  // anything smaller is residual corner rounding, not a hotspot.
  const Area min_severity =
      static_cast<Area>(edge_tolerance) * edge_tolerance;
  // Half 0, pinch / open risk: parts of the eroded target that did not
  // print (eroding first forgives normal corner rounding and edge bias).
  // Half 1, bridge risk: print outside the dilated target (resist where
  // two features' halos join). The views normalize both inputs before
  // the halves read them concurrently.
  const NormalizedRegion drawn(target), print(printed);
  std::vector<std::vector<Hotspot>> halves =
      parallel_map(pool, 2, [&](std::size_t half) {
        const bool pinch = half == 0;
        const Region risk =
            pinch ? drawn.region().shrunk(edge_tolerance) - print.region()
                  : print.region() - drawn.region().bloated(edge_tolerance);
        std::vector<Hotspot> out;
        for (const Region& part : risk.components()) {
          if (part.area() < min_severity) continue;
          Hotspot h;
          h.kind = pinch ? HotspotKind::kPinch : HotspotKind::kBridge;
          h.marker = part.bbox().expanded(edge_tolerance);
          h.severity = static_cast<double>(part.area());
          out.push_back(std::move(h));
        }
        return out;
      });
  halves[0].insert(halves[0].end(), halves[1].begin(), halves[1].end());
  return std::move(halves[0]);
}

std::vector<Hotspot> litho_hotspots(const Region& target, const Rect& window,
                                    const OpticalModel& model,
                                    Coord edge_tolerance) {
  const Region printed = simulate_print(target, window, model);
  return find_hotspots(target.clipped(window), printed, edge_tolerance);
}

}  // namespace dfm

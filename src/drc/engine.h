// DRC engine: executes a RuleDeck against flattened layout layers and
// reports violations with markers and measured values.
//
// Width and spacing use exact integer morphology at doubled resolution
// (open/close with radius value-1 on the 2x grid flags exactly the
// dimensions strictly below the rule value, Chebyshev metric). Area and
// enclosure use region algebra; density uses the tile map.
#pragma once

#include "core/engine_api.h"
#include "drc/rules.h"
#include "geometry/region.h"
#include "layout/layer_map.h"
#include "layout/library.h"
#include "layout/tile_grid.h"

#include <map>
#include <string>
#include <vector>

namespace dfm {

class LayoutSnapshot;  // core/snapshot.h
struct LayerComponents;  // core/snapshot.h
struct DensityMap;     // layout/density.h
class RTree;           // geometry/rtree.h

struct Violation {
  std::string rule;
  Rect marker;        // bounding box of the offending area
  Coord measured = -1;  // measured dimension when known, -1 otherwise

  friend bool operator==(const Violation&, const Violation&) = default;
};

/// A violation with the geometry the spatial splice keys it on. Every
/// tileable check emits one violation per offending component (a
/// connected piece of the bad region, a layer component, or an inner
/// shape), in Region::components() order of those components.
struct KeyedViolation {
  Violation v;
  Rect key;      // the component's bbox: check_* emit in this order
  Rect extent;   // the component's bbox in layout coordinates
  Point anchor;  // its anchor_point, layout coordinates (owning tile)

  friend bool operator==(const KeyedViolation&,
                         const KeyedViolation&) = default;
};

/// The violations of `keyed`, in order.
std::vector<Violation> strip_keys(const std::vector<KeyedViolation>& keyed);

struct DrcResult {
  std::vector<Violation> violations;

  bool clean() const { return violations.empty(); }
  std::map<std::string, int> count_by_rule() const;
  int count(const std::string& rule) const;

  friend bool operator==(const DrcResult&, const DrcResult&) = default;
};

struct DrcOptions : PassOptions {
  using PassOptions::PassOptions;
};

/// Every layer one rule reads (primary layer, plus the inner layer of an
/// enclosure rule) — the dependency set incremental re-analysis keys a
/// rule's staleness on.
std::vector<LayerKey> rule_layers(const Rule& rule);

class DrcEngine {
 public:
  explicit DrcEngine(RuleDeck deck) : deck_(std::move(deck)) {}

  const RuleDeck& deck() const { return deck_; }

  /// Rules execute concurrently (each rule is an independent read-only
  /// pass over the snapshot); violations are merged in deck order, so
  /// the result is identical to the serial run. Density rules read the
  /// snapshot's memoized grid, so a repeated tile size costs one
  /// rasterization per flow.
  DrcResult run(const LayoutSnapshot& snap,
                const DrcOptions& options = {}) const;

  /// Violations grouped by rule, aligned with deck().rules — the splice
  /// unit of incremental DRC. run() is exactly the deck-order
  /// concatenation of these groups.
  std::vector<std::vector<Violation>> run_per_rule(
      const LayoutSnapshot& snap, const DrcOptions& options = {}) const;

  /// Executes one rule against the snapshot (density rules window over
  /// snap.bbox()). Pure; safe to call concurrently for distinct rules.
  static std::vector<Violation> run_rule(const LayoutSnapshot& snap,
                                         const Rule& rule);
  /// run_rule with each violation's key, extent and anchor.
  static std::vector<KeyedViolation> run_rule_keyed(const LayoutSnapshot& snap,
                                                    const Rule& rule);

 private:
  RuleDeck deck_;
};

// Individual checks, exposed for focused tests and the DFM layers.

/// Interior dimensions strictly below `w` (Chebyshev), with markers.
std::vector<Violation> check_min_width(const Region& r, Coord w,
                                       const std::string& rule);
/// Exterior gaps strictly below `s`, including notches.
std::vector<Violation> check_min_spacing(const Region& r, Coord s,
                                         const std::string& rule);
/// Connected components with area strictly below `a`.
std::vector<Violation> check_min_area(const Region& r, Area a,
                                      const std::string& rule);
/// Inner shapes whose `e`-margin is not covered by `outer` (or that stick
/// out of `outer` entirely).
std::vector<Violation> check_enclosure(const Region& inner, const Region& outer,
                                       Coord e, const std::string& rule);
/// Gaps below `s` between wide features (a wide_w x wide_w square fits)
/// and any *other* feature. Chebyshev, like the plain spacing check.
std::vector<Violation> check_wide_spacing(const Region& r, Coord wide_w,
                                          Coord s, const std::string& rule);

// ---- Spatial (rule x tile) units -------------------------------------------

/// True for the rule kinds that split into (rule x tile) units: width,
/// spacing, area, enclosure and wide spacing. Density rules read the
/// memoized grid and stay whole-rule units.
bool rule_tiled(const Rule& rule);

/// How far (layout units) an edit can reach a tiled rule's output: a
/// violation whose extent grown by the reach misses the damage is
/// unchanged, and so is the bad region of every point farther than the
/// reach from it. Width and spacing: the value plus 2 (the morphology
/// and the facing-pair measurement both look that far); enclosure: twice
/// the margin plus 2; wide spacing: the spacing plus twice the wide
/// threshold plus 2; area: 1 (adjacency).
Coord rule_reach(const Rule& rule);

/// The layer whose components a tiled rule's violations hang off (the
/// inner layer of an enclosure rule, the checked layer otherwise).
LayerKey rule_component_layer(const Rule& rule);

/// The violations of `rule` that tile `t` of `grid` owns: those whose
/// component's anchor lies in the tile's cell, exactly as run_rule_keyed
/// reports them over the whole layer. The check runs on the layer
/// clipped to the cell grown by the rule's reach; a bad-region component
/// that crosses the clip is completed by growing the window to a fixed
/// point before ownership is decided, component identity (spacing, wide
/// spacing, area) comes from the snapshot's global labelling, and
/// measured values come from facing pairs whose edges the window holds
/// whole. Only for rule_tiled rules.
std::vector<KeyedViolation> run_rule_tile(const LayoutSnapshot& snap,
                                          const Rule& rule,
                                          const TileGrid& grid, std::size_t t);

namespace detail {
// The keyed checks behind check_* and run_rule_keyed. `comps` are the
// 1x connected components of the checked layer in Region::components()
// order, e.g. a snapshot's memoized labelling; the 2x-grid checks scale
// them, which yields exactly the components of the scaled layer.
std::vector<KeyedViolation> min_width_keyed(const Region& r, Coord w,
                                            const std::string& rule);
std::vector<KeyedViolation> min_spacing_keyed(const Region& r,
                                              const std::vector<Region>& comps,
                                              Coord s, const std::string& rule);

/// A layer's canonical rects read through an R-tree over them (e.g. a
/// snapshot's memoized one), so a clip visits only the rects its window
/// reaches. A default IndexedLayer reads as empty.
struct IndexedLayer {
  const std::vector<Rect>* rects = nullptr;
  const RTree* tree = nullptr;

  Region clipped(const Rect& w) const;
};
/// The snapshot's layer `k` through its memoized R-tree (empty when the
/// snapshot lacks `k`).
IndexedLayer indexed_layer(const LayoutSnapshot& snap, LayerKey k);

// The per-component checks. `lc` is the labelling of the layer whose
// components the violations hang off (the inner layer for enclosure)
// and `only` the components to check, in ascending index order (null:
// all of them). Each component's violations depend on that component
// and the layers around it only, so a tile checking the components it
// owns gets exactly the whole check's violations for them, in the same
// order.
std::vector<KeyedViolation> min_area_keyed(
    const LayerComponents& lc, Area a, const std::string& rule,
    const std::vector<std::uint32_t>* only = nullptr);
/// `inner` and `outer` are the enclosed and enclosing layers.
std::vector<KeyedViolation> enclosure_keyed(
    const LayerComponents& lc, const IndexedLayer& inner,
    const IndexedLayer& outer, Coord e, const std::string& rule,
    const std::vector<std::uint32_t>* only = nullptr);
/// A wide component's violations come one per other component intruding
/// its halo, in index order.
std::vector<KeyedViolation> wide_spacing_keyed(
    const LayerComponents& lc, Coord wide_w, Coord s, const std::string& rule,
    const std::vector<std::uint32_t>* only = nullptr);
/// A 2x-grid rect in layout coordinates, rounded outward.
Rect downscale(const Rect& r2x);
/// A 2x-grid point in layout coordinates, rounded down.
Point half_floor(Point p2x);
/// The keyed violation for one connected bad-region component on the
/// 2x grid, with `measured` already known.
KeyedViolation bad_component_violation(const Region& comp2x, Coord measured,
                                       const std::string& rule);
}  // namespace detail

/// Tiles of `window` whose coverage is outside [lo, hi].
std::vector<Violation> check_density(const Region& r, const Rect& window,
                                     Coord tile, double lo, double hi,
                                     const std::string& rule);

/// Thresholds an already-computed density grid (e.g. a LayoutSnapshot's
/// memoized one) — the marker geometry comes from the map's own
/// window/tile, so this is exactly check_density minus the rasterization.
std::vector<Violation> density_violations(const DensityMap& m, double lo,
                                          double hi, const std::string& rule);

}  // namespace dfm

// Spatial (rule x tile) units: a tiled rule's violations that one tile
// owns, computed from the layer near that tile only. Bit-identical to
// the whole-layer check's violations with the same owner (see
// run_rule_tile in engine.h).
#include "drc/engine.h"

#include "core/snapshot.h"
#include "geometry/edge_ops.h"

#include <algorithm>

namespace dfm {
namespace {

Rect doubled(const Rect& r) {
  return Rect{2 * r.lo.x, 2 * r.lo.y, 2 * r.hi.x, 2 * r.hi.y};
}

// True when a segment reaches the window's edge along its own direction:
// the window may have cut a longer layout edge short there.
bool cut_by(const Segment& s, const Rect& w) {
  if (s.horizontal()) {
    return std::min(s.a.x, s.b.x) <= w.lo.x || std::max(s.a.x, s.b.x) >= w.hi.x;
  }
  return std::min(s.a.y, s.b.y) <= w.lo.y || std::max(s.a.y, s.b.y) >= w.hi.y;
}

// markers_from's measured value for `marker` against the whole layer:
// the least distance of the facing pairs whose strip touches it. A pair
// is taken from a window only when the window holds both of its edges
// whole (a cut edge could hide an obstruction of the full strip), so the
// window grows until no touching pair has a cut edge.
Coord measured_near(const detail::IndexedLayer& layer, const Rect& marker,
                    Coord limit, bool external) {
  for (Coord g = 2 * limit + 2;; g *= 2) {
    const Rect w = marker.expanded(g);
    const Region clip = layer.clipped(w);
    Coord best = -1;
    bool cut = false;
    for (const EdgePair& p : facing_pairs(clip, limit, external)) {
      if (!p.marker.touches(marker)) continue;
      if (cut_by(p.a, w) || cut_by(p.b, w)) {
        cut = true;
        break;
      }
      best = best < 0 ? p.distance : std::min(best, p.distance);
    }
    if (!cut) return best;
  }
}

// Width and spacing: the 2x-grid bad region inside a zone that starts as
// the tile's cell and grows until every bad component reaching the cell
// lies inside it, away from its edge (complete).
std::vector<KeyedViolation> morphology_tile(const LayoutSnapshot& snap,
                                            const Rule& rule,
                                            const TileGrid& grid,
                                            std::size_t t) {
  const Coord v = rule.value;
  const LayerKey k = rule.layer;
  std::vector<KeyedViolation> out;
  if (v <= 0 || !snap.has(k) || snap.layer(k).empty()) return out;
  const bool spacing = rule.kind == RuleKind::kMinSpacing;
  const detail::IndexedLayer layer = detail::indexed_layer(snap, k);
  // Every bad point lies within v of the layer's bbox (1x).
  const Rect world2x = doubled(snap.layer(k).bbox().expanded(v + 2));
  const Rect own2x = doubled(grid.cell(t));
  Rect zone = own2x.intersect(world2x);
  if (zone.is_empty()) return out;
  const Coord step = grid.tile();  // zone growth, 2x units
  std::vector<Region> comps;
  for (;;) {
    // The bad region is exact wherever the clip reaches v + 2 beyond.
    const Rect ctx = detail::downscale(zone).expanded(v + 2);
    const Region clip = layer.clipped(ctx);
    const Region c2 = clip.scaled(2);
    Region bad;
    if (spacing) {
      bad = c2.closed(v - 1) - c2;
      // Component identity is global: pieces the clip separates may be
      // one component, and only distinct components short.
      const LayerComponents& lc = snap.components(k);
      std::vector<Rect> bloated;
      lc.index.visit(ctx, [&](std::uint32_t i) {
        const Region piece = lc.regions[i].clipped(ctx);
        if (piece.empty()) return;
        const Region grown = piece.scaled(2).bloated(v);
        for (const Rect& box : grown.rects()) bloated.push_back(box);
      });
      bad.add(covered_at_least(bloated, 2) - c2);
    } else {
      bad = c2 - c2.opened(v - 1);
    }
    comps = bad.clipped(zone).components();
    bool grew = false;
    for (const Region& comp : comps) {
      const Rect b = comp.bbox();
      if (!b.overlaps(own2x)) continue;
      if (b.lo.x <= zone.lo.x || b.lo.y <= zone.lo.y || b.hi.x >= zone.hi.x ||
          b.hi.y >= zone.hi.y) {
        zone = zone.hull(b.expanded(step)).intersect(world2x);
        grew = true;
      }
    }
    if (!grew) break;
  }
  for (const Region& comp : comps) {
    if (!comp.bbox().overlaps(own2x)) continue;
    if (grid.owner(detail::half_floor(anchor_point(comp))) != t) continue;
    const Rect marker = detail::downscale(comp.bbox());
    out.push_back(detail::bad_component_violation(
        comp, measured_near(layer, marker, v, spacing), rule.name));
  }
  return out;
}

// The components of `lc` whose anchor tile `t` owns, ascending.
std::vector<std::uint32_t> owned_components(const LayerComponents& lc,
                                            const TileGrid& grid,
                                            std::size_t t) {
  std::vector<std::uint32_t> owned;
  lc.index.visit(grid.cell(t), [&](std::uint32_t i) {
    if (grid.owner(anchor_point(lc.regions[i])) == t) owned.push_back(i);
  });
  std::sort(owned.begin(), owned.end());
  return owned;
}

}  // namespace

bool rule_tiled(const Rule& rule) { return rule.kind != RuleKind::kDensity; }

Coord rule_reach(const Rule& rule) {
  switch (rule.kind) {
    case RuleKind::kMinWidth:
    case RuleKind::kMinSpacing:
      return rule.value + 2;
    case RuleKind::kMinArea:
      return 1;
    case RuleKind::kMinEnclosure:
      return 2 * rule.value + 2;
    case RuleKind::kWideSpacing:
      return rule.value + 2 * rule.wide_width + 2;
    case RuleKind::kDensity:
      return 0;
  }
  return 0;
}

namespace detail {

IndexedLayer indexed_layer(const LayoutSnapshot& snap, LayerKey k) {
  if (!snap.has(k)) return {};
  return {&snap.layer(k).rects(), &snap.rtree(k)};
}

}  // namespace detail

LayerKey rule_component_layer(const Rule& rule) {
  return rule.kind == RuleKind::kMinEnclosure ? rule.inner : rule.layer;
}

std::vector<KeyedViolation> run_rule_tile(const LayoutSnapshot& snap,
                                          const Rule& rule,
                                          const TileGrid& grid,
                                          std::size_t t) {
  if (rule.kind == RuleKind::kMinWidth || rule.kind == RuleKind::kMinSpacing) {
    return morphology_tile(snap, rule, grid, t);
  }
  // The component checks, over the components this tile owns.
  const LayerComponents& lc = snap.components(rule_component_layer(rule));
  const std::vector<std::uint32_t> owned = owned_components(lc, grid, t);
  switch (rule.kind) {
    case RuleKind::kMinArea:
      return detail::min_area_keyed(lc, rule.value, rule.name, &owned);
    case RuleKind::kMinEnclosure:
      return detail::enclosure_keyed(
          lc, detail::indexed_layer(snap, rule.inner),
          detail::indexed_layer(snap, rule.layer), rule.value, rule.name,
          &owned);
    case RuleKind::kWideSpacing:
      return detail::wide_spacing_keyed(lc, rule.wide_width, rule.value,
                                        rule.name, &owned);
    case RuleKind::kMinWidth:
    case RuleKind::kMinSpacing:
    case RuleKind::kDensity:
      break;
  }
  return {};
}

}  // namespace dfm

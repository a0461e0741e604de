#include "drc/engine.h"

#include "core/snapshot.h"
#include "geometry/edge_ops.h"
#include "geometry/rtree.h"

#include <algorithm>

namespace dfm {
namespace detail {

Rect downscale(const Rect& r) {
  auto floor_div = [](Coord v) { return v >= 0 ? v / 2 : (v - 1) / 2; };
  auto ceil_div = [](Coord v) { return v >= 0 ? (v + 1) / 2 : v / 2; };
  return Rect{floor_div(r.lo.x), floor_div(r.lo.y), ceil_div(r.hi.x),
              ceil_div(r.hi.y)};
}

Point half_floor(Point p) {
  auto floor_div = [](Coord v) { return v >= 0 ? v / 2 : (v - 1) / 2; };
  return Point{floor_div(p.x), floor_div(p.y)};
}

KeyedViolation bad_component_violation(const Region& comp,
                                       Coord measured,
                                       const std::string& rule) {
  const Rect key = comp.bbox();
  const Rect marker = downscale(key);
  return KeyedViolation{Violation{rule, marker, measured}, key, marker,
                        half_floor(anchor_point(comp))};
}

}  // namespace detail

namespace {

// Groups the raw violating area into per-component markers and attaches
// measured values from the nearest facing edge pair when available.
std::vector<KeyedViolation> markers_from(const Region& bad2x,
                                         const Region& layout, Coord limit,
                                         bool external,
                                         const std::string& rule) {
  std::vector<KeyedViolation> out;
  if (bad2x.empty()) return out;
  const auto pairs = facing_pairs(layout, limit, external);
  for (const Region& comp : bad2x.components()) {
    const Rect marker = detail::downscale(comp.bbox());
    Coord measured = -1;
    for (const EdgePair& p : pairs) {
      if (p.marker.touches(marker)) {
        measured = measured < 0 ? p.distance : std::min(measured, p.distance);
      }
    }
    out.push_back(detail::bad_component_violation(comp, measured, rule));
  }
  return out;
}

}  // namespace

std::vector<Violation> strip_keys(const std::vector<KeyedViolation>& keyed) {
  std::vector<Violation> out;
  out.reserve(keyed.size());
  for (const KeyedViolation& k : keyed) out.push_back(k.v);
  return out;
}

std::vector<Violation> check_min_width(const Region& r, Coord w,
                                       const std::string& rule) {
  return strip_keys(detail::min_width_keyed(r, w, rule));
}

std::vector<Violation> check_min_spacing(const Region& r, Coord s,
                                         const std::string& rule) {
  if (s <= 0 || r.empty()) return {};
  return strip_keys(detail::min_spacing_keyed(r, r.components(), s, rule));
}

std::vector<Violation> check_wide_spacing(const Region& r, Coord wide_w,
                                          Coord s, const std::string& rule) {
  if (wide_w <= 0 || s <= 0 || r.empty()) return {};
  return strip_keys(detail::wide_spacing_keyed(LayerComponents::of(r), wide_w,
                                               s, rule));
}

std::vector<Violation> check_min_area(const Region& r, Area a,
                                      const std::string& rule) {
  return strip_keys(detail::min_area_keyed(LayerComponents::of(r), a, rule));
}

std::vector<Violation> check_enclosure(const Region& inner, const Region& outer,
                                       Coord e, const std::string& rule) {
  if (inner.empty()) return {};
  const RTree inner_tree(inner.rects());
  const RTree outer_tree(outer.rects());
  return strip_keys(detail::enclosure_keyed(
      LayerComponents::of(inner), {&inner.rects(), &inner_tree},
      {&outer.rects(), &outer_tree}, e, rule));
}

namespace detail {

std::vector<KeyedViolation> min_width_keyed(const Region& r, Coord w,
                                            const std::string& rule) {
  if (w <= 0 || r.empty()) return {};
  // On the 2x grid, opening with radius w-1 removes interior dimensions
  // <= 2w-2, i.e. layout widths <= w-1: exactly "strictly below w".
  const Region r2 = r.scaled(2);
  return markers_from(r2 - r2.opened(w - 1), r, w, /*external=*/false, rule);
}

std::vector<KeyedViolation> min_spacing_keyed(const Region& r,
                                              const std::vector<Region>& comps,
                                              Coord s,
                                              const std::string& rule) {
  if (s <= 0 || r.empty()) return {};
  const Region r2 = r.scaled(2);
  // Closing catches facing-edge gaps and notches; corner-to-corner gaps
  // need the coverage detector: two distinct components whose (s-1)
  // bloats overlap are closer than s in the Chebyshev metric.
  Region bad = r2.closed(s - 1) - r2;
  // Radius s on the doubled grid: bloats of two components overlap (with
  // positive area, half-open) exactly when their Chebyshev gap g < s.
  std::vector<Rect> bloated;
  for (const Region& comp : comps) {
    const Region grown = comp.scaled(2).bloated(s);
    for (const Rect& box : grown.rects()) bloated.push_back(box);
  }
  bad.add(covered_at_least(bloated, 2) - r2);
  return markers_from(bad, r, s, /*external=*/true, rule);
}

Region IndexedLayer::clipped(const Rect& w) const {
  Region out;
  if (rects == nullptr || tree == nullptr) return out;
  tree->visit(w, [&](std::uint32_t i) {
    const Rect c = (*rects)[i].intersect(w);
    if (!c.is_empty()) out.add(c);
  });
  return out;
}

namespace {

// Calls fn(i) for each component index `only` lists, or for every
// component of `lc` when it is null.
template <class Fn>
void for_components(const LayerComponents& lc,
                    const std::vector<std::uint32_t>* only, Fn&& fn) {
  if (only != nullptr) {
    for (const std::uint32_t i : *only) fn(i);
    return;
  }
  for (std::uint32_t i = 0; i < lc.regions.size(); ++i) fn(i);
}

}  // namespace

std::vector<KeyedViolation> min_area_keyed(
    const LayerComponents& lc, Area a, const std::string& rule,
    const std::vector<std::uint32_t>* only) {
  std::vector<KeyedViolation> out;
  for_components(lc, only, [&](std::uint32_t i) {
    const Region& comp = lc.regions[i];
    if (comp.area() < a) {
      const Rect box = lc.boxes[i];
      out.push_back(KeyedViolation{
          Violation{rule, box, static_cast<Coord>(comp.area())}, box, box,
          anchor_point(comp)});
    }
  });
  return out;
}

std::vector<KeyedViolation> enclosure_keyed(
    const LayerComponents& lc, const IndexedLayer& inner,
    const IndexedLayer& outer, Coord e, const std::string& rule,
    const std::vector<std::uint32_t>* only) {
  std::vector<KeyedViolation> out;
  for_components(lc, only, [&](std::uint32_t i) {
    // Any part of the bloated inner layer not covered by outer is a
    // violation, grouped per inner component so one via yields one
    // violation. It is read inside the marker only, where the bloat
    // comes from inner shapes within e of the marker.
    const Rect box = lc.boxes[i];
    const Rect marker = box.expanded(e);
    const Region uncovered =
        inner.clipped(marker.expanded(e)).bloated(e).clipped(marker) -
        outer.clipped(marker);
    if (!uncovered.empty()) {
      // Measured enclosure is not reported (-1).
      out.push_back(KeyedViolation{Violation{rule, marker, -1}, box, marker,
                                   anchor_point(lc.regions[i])});
    }
  });
  return out;
}

std::vector<KeyedViolation> wide_spacing_keyed(
    const LayerComponents& lc, Coord wide_w, Coord s, const std::string& rule,
    const std::vector<std::uint32_t>* only) {
  std::vector<KeyedViolation> out;
  if (wide_w <= 0 || s <= 0) return out;
  for_components(lc, only, [&](std::uint32_t i) {
    // Wide part of the component: where a wide_w square fits.
    const Region comp = lc.regions[i].scaled(2);
    const Region wide = comp.opened(wide_w - 1);
    if (wide.empty()) return;
    const Region halo = wide.bloated(2 * s);  // 2x grid: radius s
    std::vector<std::uint32_t> near;
    lc.index.visit(downscale(wide.bbox().expanded(2 * s)),
                   [&](std::uint32_t j) {
                     if (j != i) near.push_back(j);
                   });
    std::sort(near.begin(), near.end());
    for (const std::uint32_t j : near) {
      // Another feature inside the wide halo but not touching it: gap < s.
      const Region other = lc.regions[j].scaled(2);
      const Region intruding = other & halo;
      if (intruding.empty()) continue;
      if (region_distance(wide, other, 1) == 0) continue;  // touching
      Violation v;
      v.rule = rule;
      const Rect a = intruding.bbox();
      const Region near_wide = wide.clipped(a.expanded(2 * s + 2));
      const Rect m2x = near_wide.empty() ? a : a.hull(near_wide.bbox());
      v.marker = Rect{m2x.lo.x / 2, m2x.lo.y / 2, (m2x.hi.x + 1) / 2,
                      (m2x.hi.y + 1) / 2};
      v.measured = region_distance(wide, other, 2 * s + 1) / 2;
      out.push_back(KeyedViolation{std::move(v), comp.bbox(), lc.boxes[i],
                                   anchor_point(lc.regions[i])});
    }
  });
  return out;
}

}  // namespace detail
}  // namespace dfm

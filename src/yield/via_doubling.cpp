// Redundant via insertion: beside every isolated via, try the four
// adjacent positions; take the first that keeps via spacing and whose
// landing-pad extensions do not create new metal spacing violations.
// The work splits into interaction clusters (via_clusters), each doubled
// on its own in labelling order.
#include "yield/yield.h"

#include "core/delta.h"
#include "core/snapshot.h"
#include "core/telemetry.h"
#include "geometry/rtree.h"

#include <algorithm>
#include <numeric>

namespace dfm {
namespace {

// A metal layer's canonical rects plus a spatial index over them. Every
// legality probe below reads only the rects near one candidate pad, so
// gathering them through the tree gives the same geometry as the
// full-layer boolean at local cost.
struct MetalIndex {
  const std::vector<Rect>* rects = nullptr;
  const RTree* tree = nullptr;

  // Metal inside `window`: identical point set (hence identical canonical
  // form) to clipping the whole layer, since rects not touching the
  // window contribute nothing.
  Region clip(const Rect& window) const {
    Region out;
    tree->visit(window, [&](std::uint32_t i) {
      const Rect c = (*rects)[i].intersect(window);
      if (!c.is_empty()) out.add(c);
    });
    return out;
  }

  // `pad` minus the metal: metal outside the pad cannot shrink the
  // difference, so only the overlapping rects matter.
  Region uncovered(const Rect& pad) const {
    Region local;
    tree->visit(pad, [&](std::uint32_t i) { local.add((*rects)[i]); });
    return Region{pad} - local;
  }
};

// Only single vias (exactly one via-sized component) get doubled.
bool single(const Rect& vb, Coord sz) {
  return vb.width() <= sz && vb.height() <= sz;
}

// The hull of a via's four insertion candidates: each is one via wide and
// centred one step (via_size + via_space) from the via's centre.
Rect footprint(const Rect& vb, const Tech& tech) {
  const Point c = vb.center();
  const Coord h = tech.via_size + tech.via_space + tech.via_size / 2;
  return Rect{c.x - h, c.y - h, c.x + h, c.y + h};
}

MetalIndex metal_index(const LayoutSnapshot& snap, LayerKey k) {
  static const std::vector<Rect> kNoRects;
  static const RTree kEmptyTree;
  return snap.has(k) ? MetalIndex{&snap.layer(k).rects(), &snap.rtree(k)}
                     : MetalIndex{&kNoRects, &kEmptyTree};
}

}  // namespace

ViaDoublingResult& ViaDoublingResult::operator+=(const ViaDoublingResult& o) {
  total += o.total;
  redundant_before += o.redundant_before;
  singles_before += o.singles_before;
  inserted += o.inserted;
  blocked += o.blocked;
  new_vias.add(o.new_vias);
  new_metal1.add(o.new_metal1);
  new_metal2.add(o.new_metal2);
  return *this;
}

Coord via_reach(const Tech& tech) {
  const Coord sz = tech.via_size;
  const Coord sp = tech.via_space;
  const Coord enc = tech.via_enclosure / 2;
  const Coord step = sz + sp;
  // Every candidate lies inside the via's footprint, which lies within
  // step + sz/2 of the via's box.
  const Coord cand = step + sz / 2;
  return std::max({
      // The partner test reads vias within two steps of the box, and the
      // metal under the joint pad of each: a partner is at most one via
      // wide, so the pad ends within 2 * step + sz + enc.
      2 * step + sz + enc,
      // A candidate reads the vias within via_space of itself.
      cand + sp,
      // Its pad (candidate hull via, grown by the enclosure) reads the
      // metal within the larger metal space + 1.
      cand + enc + std::max(tech.m1_space, tech.m2_space) + 1,
  });
}

std::vector<std::vector<std::uint32_t>> via_clusters(
    const LayerComponents& vias, const Tech& tech) {
  const Coord sz = tech.via_size;
  const Coord sp = tech.via_space;
  const Coord h = sz + sp + sz / 2;  // footprint half-width
  std::vector<std::uint32_t> parent(vias.boxes.size());
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::uint32_t i = 0; i < vias.boxes.size(); ++i) {
    if (!single(vias.boxes[i], sz)) continue;
    // Candidates of i and j can come within via_space of each other only
    // if the footprints do; a footprint lies within h of its via's box.
    const Rect reach = footprint(vias.boxes[i], tech).expanded(sp);
    vias.index.visit(reach.expanded(h), [&](std::uint32_t j) {
      if (j == i || !single(vias.boxes[j], sz) ||
          !footprint(vias.boxes[j], tech).touches(reach)) {
        return;
      }
      const std::uint32_t a = find(i), b = find(j);
      if (a < b) parent[b] = a;
      if (b < a) parent[a] = b;
    });
  }
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<std::uint32_t> cluster_of(vias.boxes.size());
  for (std::uint32_t i = 0; i < vias.boxes.size(); ++i) {
    if (!single(vias.boxes[i], sz)) continue;
    const std::uint32_t root = find(i);
    if (root == i) {
      cluster_of[i] = static_cast<std::uint32_t>(out.size());
      out.emplace_back();
    }
    out[cluster_of[root]].push_back(i);
  }
  return out;
}

ViaDoublingResult double_via_cluster(const LayoutSnapshot& snap,
                                     const std::vector<std::uint32_t>& members,
                                     const Tech& tech) {
  ViaDoublingResult res;
  const LayerComponents& vias = snap.components(layers::kVia1);
  const std::vector<Rect>& via_boxes = vias.boxes;
  const RTree& tree = vias.index;
  const MetalIndex m1 = metal_index(snap, layers::kMetal1);
  const MetalIndex m2 = metal_index(snap, layers::kMetal2);

  const Coord sz = tech.via_size;
  const Coord sp = tech.via_space;
  const Coord enc = tech.via_enclosure / 2;  // sign-off (borderless) minimum

  // Vias this cluster has inserted, for self-spacing: no other cluster's
  // candidate comes within via_space of them (via_clusters).
  std::vector<Rect> accepted;

  // Already redundant? A partner cut within two insertion steps whose
  // joint landing pad is covered on both metals is exactly the construct
  // an insertion leaves behind, so detecting it makes doubling
  // idempotent and lets the scorecard credit *realized* redundancy.
  const auto has_partner = [&](std::uint32_t i, const Rect& vb) {
    bool found = false;
    tree.visit(vb.expanded(2 * (sz + sp)), [&](std::uint32_t j) {
      if (found || j == i) return;
      const Rect ob = via_boxes[j];
      if (!single(ob, sz)) return;
      const Rect pad = vb.hull(ob).expanded(enc);
      if (m1.uncovered(pad).empty() && m2.uncovered(pad).empty()) {
        found = true;
      }
    });
    return found;
  };

  for (const std::uint32_t i : members) {
    const Rect vb = via_boxes[i];
    ++res.total;
    if (has_partner(i, vb)) {
      ++res.redundant_before;
      continue;
    }
    ++res.singles_before;

    const Point c = vb.center();
    const Coord step = sz + sp;
    const Point candidates[4] = {{c.x + step, c.y},
                                 {c.x - step, c.y},
                                 {c.x, c.y + step},
                                 {c.x, c.y - step}};
    bool placed = false;
    for (const Point& p : candidates) {
      const Rect nv{p.x - sz / 2, p.y - sz / 2, p.x + sz / 2, p.y + sz / 2};
      // Spacing to existing vias.
      bool ok = true;
      tree.visit(nv.expanded(sp), [&](std::uint32_t j) {
        if (j != i && via_boxes[j].distance(nv) < sp) ok = false;
      });
      if (!ok) continue;
      // Spacing to vias we have already inserted.
      for (const Rect& r : accepted) {
        if (r.distance(nv) < sp) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;

      // Landing pads: the redundant via lands on the *same net*, so the
      // pad extension bridges from the original via to the new one (one
      // strip covering both, with enclosure). Extend the metal where it
      // is missing, but only when the extension introduces no new
      // spacing violation against other nets.
      const Rect pad = nv.hull(vb).expanded(enc);
      const Region need1 = m1.uncovered(pad);
      const Region need2 = m2.uncovered(pad);
      // The extension may not come closer than min spacing to any metal
      // it does not merge with: probe with a bloat-overlap test against
      // everything outside the pad's own merged island.
      auto extension_legal = [&](const Region& need, const MetalIndex& metal,
                                 Coord space) {
        if (need.empty()) return true;
        // Neighbouring metal within `space` of the extension that does
        // NOT touch the extension would become a spacing violation.
        const Region near = metal.clip(pad.expanded(space + 1));
        for (const Region& comp : near.components()) {
          const Coord d = region_distance(comp, need, space + 1);
          if (d > 0 && d < space) return false;
        }
        return true;
      };
      if (!extension_legal(need1, m1, tech.m1_space)) continue;
      if (!extension_legal(need2, m2, tech.m2_space)) continue;

      accepted.push_back(nv);
      res.new_vias.add(nv);
      res.new_metal1.add(need1);
      res.new_metal2.add(need2);
      ++res.inserted;
      placed = true;
      break;
    }
    if (!placed) ++res.blocked;
  }
  return res;
}

ViaDoublingResult double_vias(const LayoutSnapshot& snap, const Tech& tech) {
  TELEM_SPAN("vias/double");
  ViaDoublingResult res;
  for (const std::vector<std::uint32_t>& cluster :
       via_clusters(snap.components(layers::kVia1), tech)) {
    res += double_via_cluster(snap, cluster, tech);
  }
  return res;
}

LayoutDelta to_delta(const ViaDoublingResult& result) {
  LayoutDelta delta;
  delta.add(layers::kVia1, result.new_vias);
  delta.add(layers::kMetal1, result.new_metal1);
  delta.add(layers::kMetal2, result.new_metal2);
  return delta;
}

}  // namespace dfm

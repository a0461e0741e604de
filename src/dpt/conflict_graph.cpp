#include "dpt/dpt.h"

#include "core/snapshot.h"
#include "geometry/rtree.h"

#include <limits>
#include <numeric>
#include <utility>

namespace dfm {

ConflictGraph build_conflict_graph(std::vector<Region> nodes,
                                   Coord dpt_space) {
  ConflictGraph g;
  g.nodes = std::move(nodes);
  g.adj.resize(g.nodes.size());

  std::vector<Rect> boxes;
  boxes.reserve(g.nodes.size());
  for (const Region& n : g.nodes) boxes.push_back(n.bbox());
  const RTree tree(boxes);

  for (std::uint32_t i = 0; i < g.nodes.size(); ++i) {
    tree.visit(boxes[i].expanded(dpt_space), [&](std::uint32_t j) {
      if (j <= i) return;
      const Coord d = region_distance(g.nodes[i], g.nodes[j], dpt_space + 1);
      // Touching features (d == 0) merge on whichever mask; only a real
      // gap below dpt_space is a same-mask conflict.
      if (d > 0 && d < dpt_space) {
        g.edges.emplace_back(i, j);
        g.adj[i].push_back(j);
        g.adj[j].push_back(i);
      }
    });
  }
  return g;
}

ConflictGraph build_conflict_graph(const Region& layer, Coord dpt_space) {
  return build_conflict_graph(layer.components(), dpt_space);
}

namespace {

// Whether the canonical rects of `a` and `b` (bboxes `a_box`, `b_box`)
// come closer than `space`. Only rects within `space` of the other
// component's bbox can: the shorter list is clipped to the other's bbox
// first, then the longer one to the survivors' hull, so two long routes
// compare only their rects near each other. Canonical rects are sorted
// by lo.x, so each scan stops at the first rect starting right of its
// window.
bool closer_than(const Region& a, const Rect& a_box, const Region& b,
                 const Rect& b_box, Coord space) {
  const std::vector<Rect>* shorter = &a.rects();
  const std::vector<Rect>* longer = &b.rects();
  Rect window = b_box.expanded(space);
  if (shorter->size() > longer->size()) {
    std::swap(shorter, longer);
    window = a_box.expanded(space);
  }
  std::vector<Rect> near;
  Rect hull = Rect::empty();
  for (const Rect& r : *shorter) {
    if (r.lo.x > window.hi.x) break;
    if (r.touches(window)) {
      near.push_back(r);
      hull = hull.join(r);
    }
  }
  if (near.empty()) return false;
  window = hull.expanded(space);
  for (const Rect& r : *longer) {
    if (r.lo.x > window.hi.x) break;
    if (!r.touches(window)) continue;
    for (const Rect& n : near) {
      if (r.distance(n) < space) return true;
    }
  }
  return false;
}

}  // namespace

std::vector<std::vector<std::uint32_t>> dpt_units(const LayerComponents& comps,
                                                  Coord dpt_space) {
  std::vector<std::uint32_t> parent(comps.boxes.size());
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::uint32_t i = 0; i < comps.boxes.size(); ++i) {
    comps.index.visit(comps.boxes[i].expanded(dpt_space), [&](std::uint32_t j) {
      if (j <= i) return;
      const std::uint32_t a = find(i), b = find(j);
      if (a == b || !closer_than(comps.regions[i], comps.boxes[i],
                                 comps.regions[j], comps.boxes[j], dpt_space)) {
        return;
      }
      // The smaller index roots, so a unit's root is its lowest member.
      if (a < b) parent[b] = a;
      if (b < a) parent[a] = b;
    });
  }
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<std::uint32_t> unit_of(comps.boxes.size());
  for (std::uint32_t i = 0; i < comps.boxes.size(); ++i) {
    const std::uint32_t root = find(i);
    if (root == i) {
      unit_of[i] = static_cast<std::uint32_t>(out.size());
      out.emplace_back();
    }
    out[unit_of[root]].push_back(i);
  }
  return out;
}

}  // namespace dfm

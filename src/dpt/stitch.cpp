// Stitch insertion: break odd conflict cycles by splitting a cycle node
// at a cut that separates its conflict zones, then re-color. The two
// halves land on different masks and share an overlap strip (the stitch).
#include "dpt/dpt.h"

#include "core/snapshot.h"
#include "core/telemetry.h"

#include <algorithm>

namespace dfm {
namespace {

// The part of `node` within conflict range of `other`.
Rect conflict_zone(const Region& node, const Region& other, Coord space) {
  return (node & other.bloated(space)).bbox();
}

// Tries to split `node` with a straight cut that separates its conflict
// zones with the cycle neighbours. Returns true and the two halves +
// stitch strip on success.
bool split_node(const Region& node, const std::vector<Region>& neighbours,
                Coord space, Coord overlap, Region& part_a, Region& part_b,
                Rect& stitch_strip) {
  if (neighbours.size() < 2) return false;
  // Pick the two most separated conflict zones.
  std::vector<Rect> zones;
  for (const Region& nb : neighbours) {
    const Rect z = conflict_zone(node, nb, space);
    if (!z.is_empty()) zones.push_back(z);
  }
  if (zones.size() < 2) return false;
  Coord best_sep = -1;
  Rect za, zb;
  for (std::size_t i = 0; i < zones.size(); ++i) {
    for (std::size_t j = i + 1; j < zones.size(); ++j) {
      const Coord sep = zones[i].distance(zones[j]);
      if (sep > best_sep) {
        best_sep = sep;
        za = zones[i];
        zb = zones[j];
      }
    }
  }
  if (best_sep < overlap) return false;  // no room for a legal stitch

  const Rect bb = node.bbox();
  const Point ca = za.center();
  const Point cb = zb.center();
  // Cut perpendicular to the axis along which the zones separate.
  if (std::llabs(ca.x - cb.x) >= std::llabs(ca.y - cb.y)) {
    const Coord cut = (ca.x + cb.x) / 2;
    part_a = node & Region{Rect{bb.lo.x - 1, bb.lo.y - 1, cut, bb.hi.y + 1}};
    part_b = node & Region{Rect{cut, bb.lo.y - 1, bb.hi.x + 1, bb.hi.y + 1}};
    stitch_strip = Rect{cut - overlap / 2, bb.lo.y, cut + overlap / 2, bb.hi.y};
  } else {
    const Coord cut = (ca.y + cb.y) / 2;
    part_a = node & Region{Rect{bb.lo.x - 1, bb.lo.y - 1, bb.hi.x + 1, cut}};
    part_b = node & Region{Rect{bb.lo.x - 1, cut, bb.hi.x + 1, bb.hi.y + 1}};
    stitch_strip = Rect{bb.lo.x, cut - overlap / 2, bb.hi.x, cut + overlap / 2};
  }
  return !part_a.empty() && !part_b.empty();
}

}  // namespace

Decomposition decompose_dpt_unit(const LayerComponents& comps,
                                 const std::vector<std::uint32_t>& members,
                                 const Tech& tech) {
  Decomposition out;
  std::vector<Region> nodes;
  nodes.reserve(members.size());
  Region unit;  // the unit's own features: stitch strips clip to them
  for (const std::uint32_t m : members) {
    nodes.push_back(comps.regions[m]);
    unit.add(comps.regions[m]);
  }
  // Track which node pairs are split halves (stitch partners).
  std::vector<std::pair<std::size_t, std::size_t>> partners;
  std::vector<Rect> strips;

  ConflictGraph g = build_conflict_graph(std::move(nodes), tech.dpt_space);
  ColoringResult col = two_color(g);

  int budget = static_cast<int>(g.size()) + 16;  // bounded retries
  while (!col.bipartite && budget-- > 0 && !col.odd_cycles.empty()) {
    // Split the highest-degree node of the first odd cycle.
    const auto& cycle = col.odd_cycles.front();
    std::uint32_t victim = cycle.front();
    for (const std::uint32_t n : cycle) {
      if (g.adj[n].size() > g.adj[victim].size()) victim = n;
    }
    std::vector<Region> nbs;
    for (const std::uint32_t n : g.adj[victim]) nbs.push_back(g.nodes[n]);

    Region a, b;
    Rect strip;
    if (!split_node(g.nodes[victim], nbs, tech.dpt_space, tech.stitch_overlap,
                    a, b, strip)) {
      break;  // cannot resolve this cycle
    }
    nodes = std::move(g.nodes);
    nodes[victim] = a;
    nodes.push_back(b);
    partners.emplace_back(victim, nodes.size() - 1);
    strips.push_back(strip);

    g = build_conflict_graph(std::move(nodes), tech.dpt_space);
    col = two_color(g);
  }

  out.nodes = static_cast<int>(g.size());
  out.compliant = col.bipartite;
  out.unresolved = static_cast<int>(col.odd_cycles.size());

  for (std::uint32_t i = 0; i < g.size(); ++i) {
    if (col.color[i] == 0) {
      out.mask_a.add(g.nodes[i]);
    } else {
      out.mask_b.add(g.nodes[i]);
    }
  }
  // Stitches only materialize where the two halves ended up on different
  // masks: both masks get the overlap strip clipped to the feature.
  for (std::size_t s = 0; s < partners.size(); ++s) {
    const auto [i, j] = partners[s];
    if (col.color[i] != col.color[j]) {
      const Region overlap = unit & Region{strips[s]};
      out.mask_a.add(overlap);
      out.mask_b.add(overlap);
      Stitch st;
      st.cut = strips[s];
      st.location = strips[s].center();
      out.stitches.push_back(st);
    }
  }
  return out;
}

Decomposition assemble_dpt(const std::vector<const Decomposition*>& units) {
  Decomposition out;
  out.compliant = true;
  std::vector<const Region*> a, b;
  a.reserve(units.size());
  b.reserve(units.size());
  for (const Decomposition* u : units) {
    a.push_back(&u->mask_a);
    b.push_back(&u->mask_b);
    out.stitches.insert(out.stitches.end(), u->stitches.begin(),
                        u->stitches.end());
    out.compliant = out.compliant && u->compliant;
    out.unresolved += u->unresolved;
    out.nodes += u->nodes;
  }
  // Units lie at least dpt_space apart on both masks.
  out.mask_a = union_of_apart(a);
  out.mask_b = union_of_apart(b);
  return out;
}

namespace {

Decomposition decompose_components(const LayerComponents& comps,
                                   const Tech& tech) {
  TELEM_SPAN("dpt/decompose");
  std::vector<Decomposition> units;
  for (const std::vector<std::uint32_t>& members :
       dpt_units(comps, tech.dpt_space)) {
    units.push_back(decompose_dpt_unit(comps, members, tech));
  }
  std::vector<const Decomposition*> ptrs;
  ptrs.reserve(units.size());
  for (const Decomposition& u : units) ptrs.push_back(&u);
  return assemble_dpt(ptrs);
}

}  // namespace

Decomposition decompose_dpt(const Region& layer, const Tech& tech) {
  return decompose_components(LayerComponents::of(layer), tech);
}

Decomposition decompose_dpt(const LayoutSnapshot& snap, LayerKey layer,
                            const Tech& tech) {
  return decompose_components(snap.components(layer), tech);
}

}  // namespace dfm

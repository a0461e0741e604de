// Edit streams for the damage-local splice suites: generated designs,
// the edit cases a spatial splice has to get right, and a driver that
// checks a warm session against a cold flow after every step.
#pragma once

#include "core/incremental.h"

#include "gen/generators.h"
#include "gen/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace dfm::splice_streams {

inline LayerMap design_layers(std::uint64_t seed, int rows, int cells) {
  DesignParams p;
  p.seed = seed;
  p.rows = rows;
  p.cells_per_row = cells;
  p.routes = 3 * cells;
  p.via_fields = 2;
  p.vias_per_field = 16;
  const Library lib = generate_design(p);
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, lib.flatten(lib.top_cells()[0], k));
  }
  return m;
}

/// bench_f5's defect design (seed 7, 2 rows of 8 cells, 16 routes, 10
/// pathologies in a strip below the core): its M1 has conflict edges and
/// odd cycles, which the generated designs above lack.
inline LayerMap defect_layers() {
  DesignParams p;
  p.seed = 7;
  p.rows = 2;
  p.cells_per_row = 8;
  p.routes = 16;
  Library lib = generate_design(p);
  const std::uint32_t top = lib.top_cells()[0];
  Rng rng(p.seed ^ 0xD0D0);
  const Rect core = lib.bbox(top);
  inject_pathologies(lib.cell(top), rng, p.tech,
                     Rect{core.lo.x, core.lo.y - 60000, core.hi.x + 60000,
                          core.lo.y - 4000},
                     10);
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, lib.flatten(top, k));
  }
  return m;
}

/// Default options restricted to one pass (litho only when it is asked
/// for, on a coarse raster with small tiles so edits cross seams).
inline DfmFlowOptions splice_options(unsigned threads, const std::string& pass) {
  DfmFlowOptions o;
  o.threads = threads;
  o.passes = {pass};
  o.run_litho = pass == "litho";
  if (o.run_litho) {
    o.model.sigma = 20;
    o.model.px = 10;
    o.litho_tile = 3000;
  }
  return o;
}

/// Names the first report field that differs, for a readable failure.
inline std::string first_difference(const DfmFlowReport& a, const DfmFlowReport& b) {
  const auto& va = a.drcplus.drc.violations;
  const auto& vb = b.drcplus.drc.violations;
  if (va != vb) {
    std::string out = "drc violations (" + std::to_string(va.size()) +
                      " vs " + std::to_string(vb.size()) + ")";
    for (std::size_t i = 0; i < std::min(va.size(), vb.size()); ++i) {
      if (!(va[i] == vb[i])) {
        out += " first at " + std::to_string(i) + ": " + va[i].rule + " " +
               to_string(va[i].marker) + " m=" +
               std::to_string(va[i].measured) + " vs " + vb[i].rule + " " +
               to_string(vb[i].marker) + " m=" +
               std::to_string(vb[i].measured);
        break;
      }
    }
    return out;
  }
  if (a.drcplus.matches != b.drcplus.matches) return "pattern matches";
  if (a.recommended != b.recommended) {
    std::string out = "recommended";
    for (std::size_t i = 0; i < a.recommended.counts.size(); ++i) {
      out += " " + a.recommended.counts[i].first + "=" +
             std::to_string(a.recommended.counts[i].second) + "/" +
             std::to_string(b.recommended.counts[i].second);
    }
    return out;
  }
  if (a.hotspots != b.hotspots) {
    return "hotspots (" + std::to_string(a.hotspots.size()) + " vs " +
           std::to_string(b.hotspots.size()) + ")";
  }
  if (a.lambda_shorts != b.lambda_shorts) return "lambda_shorts";
  if (!reports_equivalent(a, b)) return "other fields";
  return "";
}

/// One edit of a stream, added and then removed.
struct Edit {
  const char* what;
  LayerKey layer;
  Rect rect;
};

/// The edit cases that change nets or via clusters, found on `snap`:
/// a via joining M1 and M2 where they overlap, a via rect whose remove
/// step deletes the only via of a net and so splits it, an M2 bridge
/// between wires of different nets, a via over M1 only, and an M1 pad
/// edit within via_reach of a single via.
inline std::vector<Edit> net_edit_cases(const LayoutSnapshot& snap) {
  const Tech& tech = Tech::standard();
  const Coord sz = tech.via_size;
  std::vector<Edit> out;
  const LayerComponents& vias = snap.components(layers::kVia1);
  const RTree& m1_tree = snap.rtree(layers::kMetal1);
  const RTree& m2_tree = snap.rtree(layers::kMetal2);
  const auto clear_of_vias = [&](const Rect& r, Coord margin) {
    return vias.index.query(r.expanded(margin)).empty();
  };
  const auto inside = [&](const Rect& r, LayerKey k) {
    return (Region{r} - snap.layer(k).region()).empty();
  };

  // Via join: a via-sized square inside M1 and M2, away from every via.
  const Region both = snap.layer(layers::kMetal1).region() &
                      snap.layer(layers::kMetal2).region();
  for (const Rect& r : both.rects()) {
    if (r.width() < sz || r.height() < sz) continue;
    const Rect v{r.lo.x, r.lo.y, r.lo.x + sz, r.lo.y + sz};
    if (clear_of_vias(v, tech.via_space)) {
      out.push_back({"via join", layers::kVia1, v});
      break;
    }
  }
  // Via cut: the only via of a net with pieces on both metals.
  const Netlist nets = extract_nets(snap, standard_stack());
  for (const Net& net : nets.nets) {
    const Region* cut = net.on(layers::kVia1);
    if (cut == nullptr || net.on(layers::kMetal1) == nullptr ||
        net.on(layers::kMetal2) == nullptr ||
        cut->components().size() != 1) {
      continue;
    }
    out.push_back({"via cut", layers::kVia1, cut->bbox()});
    break;
  }
  // M2 bridge: across the gap between two M2 wires of different nets
  // whose y extents overlap.
  std::map<Rect, std::size_t> m2_net;  // M2 rect -> net
  for (std::size_t n = 0; n < nets.nets.size(); ++n) {
    if (const Region* p = nets.nets[n].on(layers::kMetal2)) {
      for (const Rect& r : p->rects()) m2_net.emplace(r, n);
    }
  }
  const std::vector<Rect>& m2 = snap.layer(layers::kMetal2).rects();
  for (std::size_t i = 0; i < m2.size(); ++i) {
    const Rect a = m2[i];
    bool found = false;
    for (const std::uint32_t j :
         m2_tree.query(Rect{a.hi.x + 1, a.lo.y, a.hi.x + 300, a.hi.y})) {
      const Rect b = m2[j];
      const Coord lo = std::max(a.lo.y, b.lo.y);
      const Coord hi = std::min(a.hi.y, b.hi.y);
      if (b.lo.x > a.hi.x && hi - lo >= 40 && m2_net.at(a) != m2_net.at(b)) {
        const Rect bridge{a.hi.x - 10, lo, b.lo.x + 10, lo + 40};
        if (m2_tree.query(bridge).size() == 2) {
          out.push_back({"M2 bridge", layers::kMetal2, bridge});
          found = true;
          break;
        }
      }
    }
    if (found) break;
  }
  // Floating via: inside M1, with no M2 near it.
  for (const Rect& r : snap.layer(layers::kMetal1).rects()) {
    if (r.width() < sz || r.height() < sz) continue;
    const Rect v{r.lo.x, r.lo.y, r.lo.x + sz, r.lo.y + sz};
    if (inside(v, layers::kMetal1) && clear_of_vias(v, tech.via_space) &&
        m2_tree.query(v.expanded(100)).empty()) {
      out.push_back({"floating via", layers::kVia1, v});
      break;
    }
  }
  // Pad edit: an M1 square in empty space within via_reach of a single
  // via, less than the M1 space past one candidate's landing pad, so it
  // can block that candidate's pad extension.
  const Coord d = tech.via_space + sz + tech.via_enclosure / 2 + 25;
  EXPECT_LT(d + 60, via_reach(tech));
  for (const Rect& vb : vias.boxes) {
    if (vb.width() > sz || vb.height() > sz) continue;
    const Rect pads[4] = {
        {vb.hi.x + d, vb.lo.y, vb.hi.x + d + 60, vb.lo.y + 60},
        {vb.lo.x - d - 60, vb.lo.y, vb.lo.x - d, vb.lo.y + 60},
        {vb.lo.x, vb.hi.y + d, vb.lo.x + 60, vb.hi.y + d + 60},
        {vb.lo.x, vb.lo.y - d - 60, vb.lo.x + 60, vb.lo.y - d}};
    for (const Rect& pad : pads) {
      if (snap.bbox().contains(pad) &&
          m1_tree.query(pad.expanded(10)).empty()) {
        out.push_back({"pad edit", layers::kMetal1, pad});
        return out;
      }
    }
  }
  return out;
}

/// The DPT edit cases, found on the design's M1: a square 60 dbu from a
/// feature and clear of all others (a new conflict edge), a square
/// within dpt_space of both ends of a conflict edge (it closes a
/// triangle), a square touching a feature at one corner only (a new
/// component in that feature's unit), and the remove of an odd-cycle
/// member (listed last: its add step changes nothing, its remove step
/// deletes the member). A design without conflict edges gets only the
/// first and third.
inline std::vector<Edit> dpt_edit_cases(const LayoutSnapshot& snap) {
  const Coord space = Tech::standard().dpt_space;
  const Rect bb = snap.bbox();
  const LayerComponents& m1 = snap.components(layers::kMetal1);
  const RTree& tree = snap.rtree(layers::kMetal1);
  const std::vector<Rect>& rects = snap.layer(layers::kMetal1).rects();
  const auto clear = [&](const Rect& r, Coord gap) {
    return bb.contains(r) && tree.query(r.expanded(gap - 1)).empty();
  };
  std::vector<Edit> out;

  for (const Rect& r : rects) {
    const Rect sq{r.hi.x + 60, r.lo.y, r.hi.x + 110, r.lo.y + 50};
    if (clear(sq, 60)) {
      out.push_back({"dpt edge", layers::kMetal1, sq});
      break;
    }
  }
  const ConflictGraph g = build_conflict_graph(m1.regions, space);
  // A square closer than `space` to a rect touches the rect grown by
  // space - 1: scan squares near the window both grown rects share.
  const auto closes = [&](const Rect& ra, const Rect& rb) {
    const Rect w = ra.expanded(space - 1).intersect(rb.expanded(space - 1));
    for (Coord y = w.lo.y - 50; y <= std::min(w.hi.y, w.lo.y + 300); y += 10) {
      for (Coord x = w.lo.x - 50; x <= std::min(w.hi.x, w.lo.x + 300); x += 10) {
        const Rect sq{x, y, x + 50, y + 50};
        if (sq.distance(ra) < space && sq.distance(rb) < space &&
            clear(sq, 20)) {
          out.push_back({"dpt triangle", layers::kMetal1, sq});
          return true;
        }
      }
    }
    return false;
  };
  [&] {
    for (const auto& [u, v] : g.edges) {
      for (const Rect& ra : m1.regions[u].rects()) {
        for (const Rect& rb : m1.regions[v].rects()) {
          if (ra.distance(rb) < space && closes(ra, rb)) return;
        }
      }
    }
  }();
  for (const Rect& r : rects) {
    const Rect sq{r.hi.x, r.hi.y, r.hi.x + 50, r.hi.y + 50};
    const std::vector<std::uint32_t> near = tree.query(sq.expanded(20));
    if (bb.contains(sq) && near.size() == 1 && rects[near[0]] == r) {
      out.push_back({"dpt corner", layers::kMetal1, sq});
      break;
    }
  }
  const ColoringResult col = two_color(g);
  for (const std::vector<std::uint32_t>& cycle : col.odd_cycles) {
    const auto single = std::find_if(
        cycle.begin(), cycle.end(),
        [&](std::uint32_t n) { return m1.regions[n].rects().size() == 1; });
    if (single != cycle.end()) {
      out.push_back({"dpt cycle cut", layers::kMetal1, m1.boxes[*single]});
      break;
    }
  }
  return out;
}

/// The edit cases, found on the design itself so every generated design
/// gets each of them.
inline std::vector<Edit> edit_cases(const LayerMap& m) {
  const LayoutSnapshot snap{LayerMap(m)};
  const Rect bb = snap.bbox();
  const Coord tile = Tech::standard().density_tile;
  std::vector<Edit> out;
  const LayerComponents& m1 = snap.components(layers::kMetal1);
  const RTree& tree = snap.rtree(layers::kMetal1);

  // Isolated: an empty 200 x 200 spot with a 200-dbu margin.
  for (Coord y = bb.lo.y + 400; y + 600 < bb.hi.y && out.empty(); y += 170) {
    for (Coord x = bb.lo.x + 400; x + 600 < bb.hi.x; x += 230) {
      const Rect r{x, y, x + 200, y + 200};
      if (tree.query(r.expanded(200)).empty()) {
        out.push_back({"isolated", layers::kMetal1, r});
        break;
      }
    }
  }
  // Merging: a bridge across the gap between two horizontally adjacent
  // components whose y extents overlap.
  for (std::size_t i = 0; i < m1.regions.size() && out.size() < 2; ++i) {
    const Rect a = m1.boxes[i];
    for (const std::uint32_t j : tree.query(Rect{a.hi.x + 1, a.lo.y,
                                                 a.hi.x + 150, a.hi.y})) {
      const Rect b = snap.layer(layers::kMetal1).rects()[j];
      const Coord lo = std::max(a.lo.y, b.lo.y);
      const Coord hi = std::min(a.hi.y, b.hi.y);
      if (b.lo.x > a.hi.x && hi - lo >= 40) {
        out.push_back({"merge", layers::kMetal1,
                       Rect{a.hi.x - 10, lo, b.lo.x + 10, lo + 40}});
        break;
      }
    }
  }
  // Splitting: a 40-dbu slice across a wire segment that cuts its
  // component in two.
  for (std::size_t i = 0; i < m1.regions.size() && out.size() < 3; ++i) {
    for (const Rect& r : m1.regions[i].rects()) {
      if (r.width() < 200 || r.height() > 150) continue;
      const Coord x = (r.lo.x + r.hi.x) / 2;
      const Rect slice{x, r.lo.y, x + 40, r.hi.y};
      if ((m1.regions[i] - Region{slice}).components().size() > 1) {
        out.push_back({"split", layers::kMetal1, slice});
        break;
      }
    }
  }
  // Straddling the first vertical tile seam, mid-height.
  const Coord seam = bb.lo.x + tile;
  const Coord my = (bb.lo.y + bb.hi.y) / 2;
  out.push_back({"seam", layers::kMetal1, Rect{seam - 120, my, seam + 80, my + 45}});
  // A sub-minimum-area square whose anchor lies exactly on the seam.
  out.push_back({"on seam", layers::kMetal1,
                 Rect{seam, my - 900, seam + 30, my - 870}});
  // A notch-forming sliver near a wire on the seam, on M2.
  out.push_back({"seam m2", layers::kMetal2,
                 Rect{seam - 30, my + 300, seam + 30, my + 700}});
  // At the extent edge, inside the bbox.
  out.push_back({"edge", layers::kMetal1,
                 Rect{bb.lo.x, bb.lo.y, bb.lo.x + 45, bb.lo.y + 300}});
  // A via that may violate enclosure.
  out.push_back({"via", layers::kVia1,
                 Rect{seam + 5, my - 400, seam + 55, my - 350}});
  for (const Edit& e : net_edit_cases(snap)) out.push_back(e);
  // bbox-moving.
  out.push_back({"grow", layers::kMetal1,
                 Rect{bb.hi.x + 500, bb.lo.y, bb.hi.x + 540, bb.lo.y + 900}});
  return out;
}

/// Runs every edit case of `m` (and its DPT edit cases when `dpt`) as
/// add then remove on one warm session, checking each step against a
/// cold flow.
inline void run_stream(const LayerMap& m, const DfmFlowOptions& opt,
                       bool dpt = false) {
  DfmFlowSession session(m, opt);
  LayerMap shadow = m;
  std::vector<Edit> edits = edit_cases(m);
  if (dpt) {
    for (const Edit& e : dpt_edit_cases(LayoutSnapshot{LayerMap(m)})) {
      edits.push_back(e);
    }
  }
  for (const Edit& e : edits) {
    for (const bool add : {true, false}) {
      SCOPED_TRACE(std::string(e.what) + (add ? " add" : " remove"));
      LayoutDelta d;
      if (add) {
        d.add(e.layer, e.rect);
      } else {
        d.remove(e.layer, e.rect);
      }
      d.apply(shadow);
      const DfmFlowReport& warm = session.apply(d);
      const DfmFlowReport cold = run_dfm_flow(LayoutSnapshot(LayerMap(shadow)), opt);
      EXPECT_TRUE(reports_equivalent(warm, cold))
          << first_difference(warm, cold);
    }
  }
}

/// run_stream over three generated designs (and, for "dpt", with the
/// DPT edit cases and over the defect design too).
inline void run_streams(unsigned threads, const std::string& pass) {
  const bool dpt = pass == "dpt";
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_stream(design_layers(seed, 3, 8), splice_options(threads, pass), dpt);
  }
  if (dpt) {
    SCOPED_TRACE("defect design");
    run_stream(defect_layers(), splice_options(threads, pass), true);
  }
}

/// run_stream on one design under a 64 KiB snapshot memory budget, so
/// the pass's derived products are evicted and rebuilt between its unit
/// groups and between runs.
inline void run_budgeted_stream(const std::string& pass) {
  DfmFlowOptions opt = splice_options(2, pass);
  opt.memory_budget = std::size_t{64} << 10;
  run_stream(design_layers(11, 3, 8), opt, pass == "dpt");
  if (pass == "dpt") run_stream(defect_layers(), opt, true);
}

}  // namespace dfm::splice_streams

#include "layout/connectivity.h"

// Note: nets are extracted over a snapshot's memoized labelling, so this
// file is compiled into dfm_snapshot (see src/CMakeLists.txt), above the
// rest of dfm_layout.
#include "core/snapshot.h"
#include "core/telemetry.h"
#include "geometry/rtree.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace dfm {

std::vector<StackLayer> standard_stack() {
  return {{layers::kMetal1, false},
          {layers::kVia1, true},
          {layers::kMetal2, false}};
}

const Region* Net::on(LayerKey k) const {
  for (const auto& [key, region] : pieces) {
    if (key == k) return &region;
  }
  return nullptr;
}

Area Net::total_area() const {
  Area a = 0;
  for (const auto& [key, region] : pieces) a += region.area();
  return a;
}

bool operator<(const NetKey& a, const NetKey& b) {
  if (a.layer != b.layer) return a.layer < b.layer;
  return component_less(a.vertex, b.vertex);
}

namespace {

// The vertices of one stack layer, in labelling order, with an index over
// their bboxes.
struct LayerVerts {
  std::vector<const Region*> regions;
  std::vector<Rect> boxes;
  RTree own;                     // built when the labelling has none
  const RTree* index = nullptr;  // over boxes
};

// True when the point sets share positive area. Both sides are canonical
// rect sets, so some pair of rects overlaps iff the sets do.
bool overlap(const Region& cut, const Region& cond) {
  const Rect cb = cut.bbox();
  for (const Rect& rb : cond.rects()) {
    if (!rb.overlaps(cb)) continue;
    for (const Rect& ra : cut.rects()) {
      if (ra.overlaps(rb)) return true;
    }
  }
  return false;
}

// Nets over `verts`, in NetKey order. Vertices are numbered layer by
// layer in labelling order, and the union-find keeps the smaller index
// as the root, so every root is its net's first vertex and the nets come
// out in root order.
void extract(const std::vector<StackLayer>& stack,
             const std::vector<LayerVerts>& verts, Netlist& out,
             NetKeys* keys) {
  std::vector<std::uint32_t> offset(stack.size() + 1, 0);
  for (std::size_t li = 0; li < stack.size(); ++li) {
    offset[li + 1] =
        offset[li] + static_cast<std::uint32_t>(verts[li].regions.size());
  }
  std::vector<std::uint32_t> parent(offset.back());
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a < b) parent[b] = a;
    if (b < a) parent[a] = b;
  };

  // Connect each cut component to overlapping conductor components on the
  // neighbouring stack layers.
  for (std::size_t li = 0; li < stack.size(); ++li) {
    if (!stack[li].is_cut) continue;
    for (const std::size_t side : {li - 1, li + 1}) {
      if (side >= stack.size() || stack[side].is_cut) continue;
      const LayerVerts& cond = verts[side];
      for (std::uint32_t c = 0; c < verts[li].regions.size(); ++c) {
        const Region& cut = *verts[li].regions[c];
        cond.index->visit(verts[li].boxes[c], [&](std::uint32_t k) {
          if (overlap(cut, *cond.regions[k])) {
            unite(offset[li] + c, offset[side] + k);
          }
        });
      }
    }
  }

  std::vector<std::uint32_t> net_of(parent.size());
  for (std::size_t li = 0; li < stack.size(); ++li) {
    for (std::uint32_t i = 0; i < verts[li].regions.size(); ++i) {
      const std::uint32_t v = offset[li] + i;
      const std::uint32_t root = find(v);
      const Region& region = *verts[li].regions[i];
      if (root == v) {
        net_of[v] = static_cast<std::uint32_t>(out.nets.size());
        out.nets.emplace_back();
        if (keys != nullptr) {
          keys->push_back(std::make_shared<const NetKey>(NetKey{li, region}));
        }
      }
      Net& net = out.nets[net_of[root]];
      if (net.pieces.empty() || net.pieces.back().first != stack[li].key) {
        net.pieces.emplace_back(stack[li].key, region);
      } else {
        net.pieces.back().second.add(region);
      }
    }
  }
}

// The union of the stack layers' dirty regions: the rects an edit may
// have changed, on any layer, and their bbox.
struct Damage {
  std::vector<Rect> rects;
  Rect box = Rect::empty();

  Damage(const IncrementalSnapshot& snap,
         const std::vector<StackLayer>& stack) {
    for (const StackLayer& s : stack) {
      for (const Rect& r : snap.dirty_region(s.key).rects()) {
        rects.push_back(r);
        box = box.join(r);
      }
    }
  }

  bool touched_by(const Rect& r) const {
    if (!r.touches(box)) return false;
    for (const Rect& d : rects) {
      if (r.touches(d)) return true;
    }
    return false;
  }
  // Any decomposition of a point set answers the same, so a lazily
  // merged region is tested on its raw rects.
  bool touched_by(const Region& region) const {
    for (const Rect& r : region.raw()) {
      if (touched_by(r)) return true;
    }
    return false;
  }
};

// Labelling indices of the components of `comps` that touch the damage,
// ascending.
std::vector<std::uint32_t> damaged(const LayerComponents& comps,
                                   const Damage& damage) {
  std::vector<std::uint32_t> out;
  for (const Rect& d : damage.rects) {
    comps.index.visit(d, [&](std::uint32_t i) {
      for (const Rect& r : comps.regions[i].rects()) {
        if (r.touches(d)) {
          out.push_back(i);
          return;
        }
      }
    });
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Whether `layer` (indexed by `tree`) leaves part of `cut` uncovered.
// Coverage depends only on the conductor inside the cut's bbox, so only
// the rects the tree finds there are read.
bool leaves_uncovered(const Region& cut, const std::vector<Rect>& layer,
                      const RTree& tree) {
  Region local;
  tree.visit(cut.bbox(), [&](std::uint32_t i) { local.add(layer[i]); });
  return !(cut - local).empty();
}

// The verdict on one cut of stack layer `li`, or nothing when both
// neighbouring conductors cover it.
bool test_cut(const LayoutSnapshot& snap, const std::vector<StackLayer>& stack,
              std::size_t li, const Region& cut, FloatingCut& out) {
  const auto missing = [&](std::size_t side) {
    if (side >= stack.size() || stack[side].is_cut) return false;
    const LayerKey k = stack[side].key;
    if (!snap.has(k)) return true;
    return leaves_uncovered(cut, snap.layer(k).rects(), snap.rtree(k));
  };
  out.layer = stack[li].key;
  out.where = cut.bbox();
  out.missing_below = li > 0 && missing(li - 1);
  out.missing_above = missing(li + 1);
  return out.missing_below || out.missing_above;
}

std::size_t stack_index(const std::vector<StackLayer>& stack, LayerKey k) {
  for (std::size_t li = 0; li < stack.size(); ++li) {
    if (stack[li].key == k) return li;
  }
  return stack.size();
}

}  // namespace

Netlist extract_nets(const LayoutSnapshot& snap,
                     const std::vector<StackLayer>& stack,
                     NetKeys* keys) {
  TELEM_SPAN("connectivity/extract");
  std::vector<LayerVerts> verts(stack.size());
  for (std::size_t li = 0; li < stack.size(); ++li) {
    const LayerComponents& comps = snap.components(stack[li].key);
    for (const Region& r : comps.regions) verts[li].regions.push_back(&r);
    verts[li].boxes = comps.boxes;
    verts[li].index = &comps.index;
  }
  Netlist out;
  if (keys != nullptr) keys->clear();
  extract(stack, verts, out, keys);
  return out;
}

NetSplice splice_nets(const IncrementalSnapshot& snap,
                      const std::vector<StackLayer>& stack, Netlist& nets,
                      const NetKeys& keys) {
  TELEM_SPAN("connectivity/splice");
  NetSplice out;
  const Damage damage(snap, stack);
  if (damage.rects.empty()) {
    out.keys = keys;
    return out;
  }

  // Dissolve every cached net with a piece touching the damage.
  std::vector<char> dissolved(nets.nets.size(), 0);
  for (std::size_t n = 0; n < nets.nets.size(); ++n) {
    for (const auto& [key, piece] : nets.nets[n].pieces) {
      if (damage.touched_by(piece)) {
        dissolved[n] = 1;
        break;
      }
    }
  }

  // Re-extract over the edited components that touch the damage plus
  // the untouched vertices of the dissolved nets (components of the
  // edited labelling too: nothing next to them changed).
  std::vector<std::vector<Region>> kept(stack.size());
  for (std::size_t n = 0; n < nets.nets.size(); ++n) {
    if (dissolved[n] == 0) continue;
    for (const auto& [key, piece] : nets.nets[n].pieces) {
      const std::size_t li = stack_index(stack, key);
      for (Region& v : piece.components()) {
        if (!damage.touched_by(v)) kept[li].push_back(std::move(v));
      }
    }
  }
  std::vector<LayerVerts> verts(stack.size());
  for (std::size_t li = 0; li < stack.size(); ++li) {
    const LayerComponents& comps = snap.components(stack[li].key);
    LayerVerts& lv = verts[li];
    for (const std::uint32_t i : damaged(comps, damage)) {
      lv.regions.push_back(&comps.regions[i]);
    }
    for (const Region& v : kept[li]) lv.regions.push_back(&v);
    std::sort(lv.regions.begin(), lv.regions.end(),
              [](const Region* a, const Region* b) {
                return component_less(*a, *b);
              });
    for (const Region* r : lv.regions) lv.boxes.push_back(r->bbox());
    lv.own.build(lv.boxes);
    lv.index = &lv.own;
  }
  Netlist fresh;
  NetKeys fresh_keys;
  extract(stack, verts, fresh, &fresh_keys);

  // Merge the carried nets and the re-extracted ones in key order.
  Netlist merged;
  merged.nets.reserve(nets.nets.size() + fresh.nets.size());
  out.keys.reserve(merged.nets.capacity());
  std::size_t a = 0, b = 0;
  while (true) {
    while (a < nets.nets.size() && dissolved[a] != 0) {
      out.dissolved.push_back(std::move(nets.nets[a++]));
    }
    const bool have_a = a < nets.nets.size();
    const bool have_b = b < fresh.nets.size();
    if (!have_a && !have_b) break;
    if (have_b && (!have_a || *fresh_keys[b] < *keys[a])) {
      out.created.push_back(merged.nets.size());
      merged.nets.push_back(std::move(fresh.nets[b]));
      out.keys.push_back(std::move(fresh_keys[b]));
      ++b;
    } else {
      merged.nets.push_back(std::move(nets.nets[a]));
      out.keys.push_back(keys[a]);
      ++a;
    }
  }
  nets = std::move(merged);
  return out;
}

std::vector<FloatingCut> find_floating_cuts(
    const LayoutSnapshot& snap, const std::vector<StackLayer>& stack) {
  std::vector<FloatingCut> out;
  for (std::size_t li = 0; li < stack.size(); ++li) {
    if (!stack[li].is_cut) continue;
    for (const Region& cut : snap.components(stack[li].key).regions) {
      FloatingCut f;
      if (test_cut(snap, stack, li, cut, f)) out.push_back(std::move(f));
    }
  }
  return out;
}

std::size_t splice_floating_cuts(const IncrementalSnapshot& snap,
                                 const std::vector<StackLayer>& stack,
                                 std::vector<FloatingCut>& cuts) {
  const Damage damage(snap, stack);
  if (damage.rects.empty()) return 0;
  // (stack index, bbox): labelling order, and no kept cut can tie with a
  // re-tested one, whose bbox touches the damage.
  const auto order = [&](const FloatingCut& x, const FloatingCut& y) {
    const std::size_t lx = stack_index(stack, x.layer);
    const std::size_t ly = stack_index(stack, y.layer);
    if (lx != ly) return lx < ly;
    return x.where < y.where;
  };
  std::vector<FloatingCut> kept;
  for (FloatingCut& f : cuts) {
    if (!damage.touched_by(f.where)) kept.push_back(std::move(f));
  }
  std::vector<FloatingCut> fresh;
  std::size_t tested = 0;
  for (std::size_t li = 0; li < stack.size(); ++li) {
    if (!stack[li].is_cut) continue;
    const LayerComponents& comps = snap.components(stack[li].key);
    std::vector<std::uint32_t> near;
    for (const Rect& d : damage.rects) {
      comps.index.visit(d, [&](std::uint32_t i) { near.push_back(i); });
    }
    std::sort(near.begin(), near.end());
    near.erase(std::unique(near.begin(), near.end()), near.end());
    for (const std::uint32_t i : near) {
      FloatingCut f;
      if (test_cut(snap, stack, li, comps.regions[i], f)) {
        fresh.push_back(std::move(f));
      }
    }
    tested += near.size();
  }
  cuts.clear();
  std::merge(std::make_move_iterator(kept.begin()),
             std::make_move_iterator(kept.end()),
             std::make_move_iterator(fresh.begin()),
             std::make_move_iterator(fresh.end()), std::back_inserter(cuts),
             order);
  return tested;
}

}  // namespace dfm

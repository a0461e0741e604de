#include "yield/yield.h"

#include "core/parallel.h"
#include "core/snapshot.h"
#include "core/telemetry.h"
#include "gen/rng.h"

#include <map>

namespace dfm {

namespace {

Rect doubled(const Rect& r) {
  return Rect{2 * r.lo.x, 2 * r.lo.y, 2 * r.hi.x, 2 * r.hi.y};
}

// The short critical region at size s: points covered by >= 2 nets
// bloated by s (2x grid).
Region shorts_region(const std::vector<Region>& nets2x, Coord s) {
  std::vector<Rect> bloated;
  for (const Region& net : nets2x) {
    const Region grown = net.bloated(s);
    for (const Rect& r : grown.rects()) bloated.push_back(r);
  }
  return covered_at_least(bloated, 2);
}

}  // namespace

ShortNets ShortNets::of_layer(const Region& layer) {
  ShortNets out;
  out.nets2x_ = layer.scaled(2).components();
  for (const Region& net : out.nets2x_) (void)net.rects();
  return out;
}

ShortNets ShortNets::of_pieces(const std::vector<Region>& pieces,
                               const std::vector<int>& net_of) {
  ShortNets out;
  if (pieces.size() != net_of.size()) return out;
  std::map<int, Region> nets;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    nets[net_of[i]].add(pieces[i]);
  }
  out.nets2x_.reserve(nets.size());
  for (auto& [id, net] : nets) {
    out.nets2x_.push_back(net.scaled(2));
    (void)out.nets2x_.back().rects();
  }
  return out;
}

std::vector<Area> short_critical_areas(const ShortNets& nets,
                                       const std::vector<Coord>& sizes,
                                       ThreadPool* pool) {
  return parallel_map(pool, sizes.size(), [&](std::size_t i) -> Area {
    const Coord s = sizes[i];
    if (s <= 0) return 0;
    TELEM_SPAN_ARG("caa/short", static_cast<std::uint64_t>(s));
    // A square defect of side s centered at p touches a net iff p lies
    // in the net bloated by s/2 (Chebyshev). It shorts iff it touches
    // two or more distinct nets, i.e. p is covered by >= 2 bloated nets.
    // On the doubled grid s == 2 * (s/2), so odd sizes stay exact.
    return shorts_region(nets.nets2x(), s).area() / 4;  // back to 1x area
  });
}

Coord short_reach(const std::vector<Coord>& sizes) {
  Coord smax = 0;
  for (const Coord s : sizes) smax = std::max(smax, s);
  return (smax + 1) / 2;
}

std::vector<Area> short_critical_areas_tile(const LayerComponents& comps,
                                            const std::vector<Coord>& sizes,
                                            const TileGrid& grid, std::size_t t,
                                            ThreadPool* pool) {
  const Rect cell = grid.cell(t);
  const Rect own2x = doubled(cell);
  // Every net within the largest size's reach, clipped once. A net's
  // region is canonical, so its clip comes back normalized and scaled()
  // keeps it so: the sizes that fan out below only read the pieces.
  const Rect reach = cell.expanded(short_reach(sizes) + 2);
  std::vector<Region> pieces;
  comps.index.visit(reach, [&](std::uint32_t i) {
    Region piece = comps.regions[i].clipped(reach);
    if (!piece.empty()) pieces.push_back(piece.scaled(2));
  });
  return parallel_map(pool, sizes.size(), [&](std::size_t i) -> Area {
    const Coord s = sizes[i];
    if (s <= 0) return 0;
    const Rect ctx2x = own2x.expanded(s + 4);
    std::vector<Region> near;
    near.reserve(pieces.size());
    for (const Region& p : pieces) {
      Region c = p.clipped(ctx2x);
      if (!c.empty()) near.push_back(std::move(c));
    }
    const Region shorts = shorts_region(near, s);
    Area owned = 0;
    for (const Rect& r : shorts.rects()) owned += r.intersect(own2x).area();
    return owned;
  });
}

Area short_critical_area(const Region& layer, Coord s) {
  if (s <= 0 || layer.empty()) return 0;
  return short_critical_areas(ShortNets::of_layer(layer), {s}).front();
}

Area short_critical_area_nets(const std::vector<Region>& pieces,
                              const std::vector<int>& net_of, Coord s) {
  if (s <= 0 || pieces.empty() || pieces.size() != net_of.size()) return 0;
  return short_critical_areas(ShortNets::of_pieces(pieces, net_of), {s})
      .front();
}

Area open_critical_area(const Region& layer, Coord s) {
  if (s <= 0 || layer.empty()) return 0;
  TELEM_SPAN_ARG("caa/open", static_cast<std::uint64_t>(s));
  // Band approximation: each canonical rect of cross-section h (its
  // shorter side) can be severed by defects spanning that side; centers
  // form a strip of (s - h) x length. Junction effects are ignored.
  Area total = 0;
  for (const Rect& band : layer.rects()) {
    const Coord w = band.width();
    const Coord h = band.height();
    if (s > h && w >= h) {
      total += static_cast<Area>(s - h) * w;
    } else if (s > w && h > w) {
      total += static_cast<Area>(s - w) * h;
    }
  }
  return total;
}

Area open_critical_area_mc(const Region& layer, Coord s, int samples,
                           std::uint64_t seed) {
  if (s <= 0 || layer.empty() || samples <= 0) return 0;
  const Rect bb = layer.bbox().expanded(s);
  Rng rng(seed);
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    const Point p{rng.uniform(bb.lo.x, bb.hi.x), rng.uniform(bb.lo.y, bb.hi.y)};
    const Rect defect{p.x - s / 2, p.y - s / 2, p.x + (s + 1) / 2,
                      p.y + (s + 1) / 2};
    // Local connectivity test: removal of the defect square must increase
    // the component count (or erase a component) inside a window.
    const Rect window = defect.expanded(4 * s);
    const Region local = layer.clipped(window);
    if (local.empty()) continue;
    const std::size_t before = local.components().size();
    const Region after = local - Region{defect};
    const std::size_t after_n = after.components().size();
    if (after_n > before || (after_n < before && !after.empty()) ||
        (after.empty() && before > 0)) {
      ++hits;
    }
  }
  return static_cast<Area>(static_cast<double>(hits) / samples *
                           static_cast<double>(bb.area()));
}

}  // namespace dfm

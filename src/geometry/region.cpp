#include "geometry/region.h"

#include "geometry/rtree.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <numeric>
#include <tuple>
#include <unordered_map>

namespace dfm {

Region::Region(std::vector<Rect> rects) {
  for (const Rect& r : rects) add(r);
}

void Region::add(const Rect& r) {
  if (r.is_empty()) return;
  raw_.push_back(r);
  normalized_ = raw_.size() <= 1;
}

void Region::add(const Polygon& p) {
  for (const Rect& r : decompose(p)) add(r);
}

void Region::add(const Region& other) {
  for (const Rect& r : other.raw_) add(r);
}

void Region::normalize() const {
  if (normalized_) return;
  raw_ = sweep_boolean(raw_, {}, BoolOp::kOr);
  normalized_ = true;
}

bool Region::empty() const {
  normalize();
  return raw_.empty();
}

std::size_t Region::rect_count() const {
  normalize();
  return raw_.size();
}

Area Region::area() const {
  normalize();
  Area a = 0;
  for (const Rect& r : raw_) a += r.area();
  return a;
}

Rect Region::bbox() const {
  normalize();
  return bounding_box(raw_);
}

bool Region::contains(Point p) const {
  normalize();
  // Half-open semantics: a point on the hi edge belongs to the neighbour.
  for (const Rect& r : raw_) {
    if (p.x >= r.lo.x && p.x < r.hi.x && p.y >= r.lo.y && p.y < r.hi.y)
      return true;
  }
  return false;
}

const std::vector<Rect>& Region::rects() const {
  normalize();
  return raw_;
}

Region Region::translated(Point d) const {
  Region out;
  out.raw_.reserve(raw_.size());
  for (const Rect& r : raw_) out.raw_.push_back(r.translated(d));
  out.normalized_ = normalized_;
  return out;
}

Region Region::transformed(const Transform& t) const {
  Region out;
  out.raw_.reserve(raw_.size());
  for (const Rect& r : raw_) out.raw_.push_back(t.apply(r));
  out.normalized_ = out.raw_.size() <= 1;  // orientation reorders the form
  return out;
}

Region Region::scaled(Coord f) const {
  Region out;
  out.raw_.reserve(raw_.size());
  for (const Rect& r : raw_) {
    out.raw_.push_back(Rect{r.lo.x * f, r.lo.y * f, r.hi.x * f, r.hi.y * f});
  }
  out.normalized_ = normalized_;
  return out;
}

Region Region::clipped(const Rect& window) const {
  Region out;
  std::vector<Rect>& rs = out.raw_;
  for (const Rect& r : raw_) {
    const Rect c = r.intersect(window);
    if (!c.is_empty()) rs.push_back(c);
  }
  if (!normalized_ || rs.size() <= 1) {
    out.normalized_ = rs.size() <= 1;
    return out;
  }
  // The clip keeps each slab's intervals maximal and disjoint, so a
  // clipped band is still a band unless an x-abutting band now has the
  // same interval. Their intervals differed, so both were cut by the
  // window's lower or upper edge: merge runs among those rects only.
  const auto cut = [&](const Rect& c) {
    return c.lo.y == window.lo.y || c.hi.y == window.hi.y;
  };
  const auto first = std::partition(
      rs.begin(), rs.end(), [&](const Rect& c) { return !cut(c); });
  std::sort(first, rs.end(), [](const Rect& a, const Rect& b) {
    return std::tie(a.lo.y, a.hi.y, a.lo.x) < std::tie(b.lo.y, b.hi.y, b.lo.x);
  });
  auto last = first;
  for (auto it = first; it != rs.end(); ++it) {
    if (last != first) {
      Rect& prev = *(last - 1);
      if (prev.lo.y == it->lo.y && prev.hi.y == it->hi.y &&
          prev.hi.x == it->lo.x) {
        prev.hi.x = it->hi.x;
        continue;
      }
    }
    *last++ = *it;
  }
  rs.erase(last, rs.end());
  std::sort(rs.begin(), rs.end());
  return out;
}

bool Region::operator==(const Region& o) const {
  normalize();
  o.normalize();
  return raw_ == o.raw_;
}

Coord region_distance(const Region& a, const Region& b, Coord cap) {
  Coord best = cap;
  for (const Rect& ra : a.rects()) {
    for (const Rect& rb : b.rects()) {
      best = std::min(best, ra.distance(rb));
      if (best == 0) return 0;
    }
  }
  return best;
}

std::vector<Region> Region::components() const {
  normalize();
  return components_of(raw_);
}

std::vector<Region> components_of(const std::vector<Rect>& rects) {
  const std::size_t n = rects.size();
  if (n == 0) return {};

  // Union-find over rects; adjacency = closed touch with positive-length
  // shared boundary (corner-only contact does not connect).
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  std::function<std::uint32_t(std::uint32_t)> find =
      [&](std::uint32_t x) -> std::uint32_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[a] = b;
  };

  RTree tree(rects);
  for (std::uint32_t i = 0; i < n; ++i) {
    tree.visit(rects[i], [&](std::uint32_t j) {
      if (j <= i) return;
      const Rect& a = rects[i];
      const Rect& b = rects[j];
      const Coord ox = std::min(a.hi.x, b.hi.x) - std::max(a.lo.x, b.lo.x);
      const Coord oy = std::min(a.hi.y, b.hi.y) - std::max(a.lo.y, b.lo.y);
      if ((ox > 0 && oy >= 0) || (oy > 0 && ox >= 0)) unite(i, j);
    });
  }

  // Rects go to their root's group in ascending index, so each group is a
  // sorted subset, canonical on its own (see region.h).
  std::vector<Region> groups(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    groups[find(i)].raw_.push_back(rects[i]);
  }
  std::vector<Region> out;
  for (Region& reg : groups) {
    if (!reg.raw_.empty()) out.push_back(std::move(reg));
  }
  std::sort(out.begin(), out.end(), component_less);
  return out;
}

bool component_less(const Region& a, const Region& b) {
  // Input decomposition must not leak into the component order (a tile's
  // clipped input and the whole layer agree on the same point set, and
  // an edit elsewhere on the layer must not reorder two components it
  // left alone), so ties on the bbox break on the canonical rects.
  const Rect ab = a.bbox(), bb = b.bbox();
  if (ab != bb) return ab < bb;
  return a.rects() < b.rects();
}

namespace {

struct DirSeg {
  Point a, b;  // directed a -> b
};

void emit_seg(Coord line, bool horizontal, Coord lo, Coord hi, int dir,
              std::vector<DirSeg>& out) {
  DirSeg s;
  if (horizontal) {
    s.a = {dir > 0 ? lo : hi, line};
    s.b = {dir > 0 ? hi : lo, line};
  } else {
    s.a = {line, dir > 0 ? lo : hi};
    s.b = {line, dir > 0 ? hi : lo};
  }
  out.push_back(s);
}

// Net directed spans on one line after cancelling opposite directions.
void cancel_line(Coord line, bool horizontal,
                 const std::vector<std::pair<Coord, Coord>>& spans_pos,
                 const std::vector<std::pair<Coord, Coord>>& spans_neg,
                 std::vector<DirSeg>& out) {
  std::map<Coord, int> delta;
  for (const auto& [lo, hi] : spans_pos) {
    delta[lo] += 1;
    delta[hi] -= 1;
  }
  for (const auto& [lo, hi] : spans_neg) {
    delta[lo] -= 1;
    delta[hi] += 1;
  }
  int acc = 0;
  Coord start = 0;
  for (const auto& [c, d] : delta) {
    const int prev = acc;
    acc += d;
    if (prev == 0 && acc != 0) {
      start = c;
    } else if (prev != 0 && acc == 0) {
      emit_seg(line, horizontal, start, c, prev > 0 ? 1 : -1, out);
    } else if (prev != 0 && acc != 0 && ((prev > 0) != (acc > 0))) {
      emit_seg(line, horizontal, start, c, prev > 0 ? 1 : -1, out);
      start = c;
    }
  }
  assert(acc == 0);
}

// Traces the merged boundary of a canonical rect set into closed contours.
// Outer contours come out counter-clockwise, holes clockwise.
std::vector<std::vector<Point>> trace_contours(const std::vector<Rect>& rects) {
  std::map<Coord, std::pair<std::vector<std::pair<Coord, Coord>>,
                            std::vector<std::pair<Coord, Coord>>>>
      hlines, vlines;
  for (const Rect& r : rects) {
    hlines[r.lo.y].first.emplace_back(r.lo.x, r.hi.x);   // bottom, rightward
    hlines[r.hi.y].second.emplace_back(r.lo.x, r.hi.x);  // top, leftward
    vlines[r.hi.x].first.emplace_back(r.lo.y, r.hi.y);   // right, upward
    vlines[r.lo.x].second.emplace_back(r.lo.y, r.hi.y);  // left, downward
  }

  std::vector<DirSeg> segs;
  for (const auto& [y, spans] : hlines) {
    cancel_line(y, true, spans.first, spans.second, segs);
  }
  for (const auto& [x, spans] : vlines) {
    cancel_line(x, false, spans.first, spans.second, segs);
  }

  std::unordered_map<Point, std::vector<std::size_t>> outgoing;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    outgoing[segs[i].a].push_back(i);
  }
  std::vector<bool> used(segs.size(), false);

  auto dir_of = [](const DirSeg& s) -> int {
    if (s.b.x > s.a.x) return 0;  // E
    if (s.b.y > s.a.y) return 1;  // N
    if (s.b.x < s.a.x) return 2;  // W
    return 3;                     // S
  };

  std::vector<std::vector<Point>> loops;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (used[i]) continue;
    std::vector<Point> loop;
    std::size_t cur = i;
    while (true) {
      used[cur] = true;
      loop.push_back(segs[cur].a);
      const Point endpoint = segs[cur].b;
      if (endpoint == segs[i].a) break;  // contour closed
      auto it = outgoing.find(endpoint);
      assert(it != outgoing.end() && "region boundary must be closed");
      // Prefer the sharpest left turn so contours touching at a point stay
      // separated and winding stays consistent.
      const int din = dir_of(segs[cur]);
      std::size_t best = segs.size();
      int best_rank = -1;
      for (std::size_t cand : it->second) {
        if (used[cand]) continue;
        const int turn = (dir_of(segs[cand]) - din + 4) % 4;
        const int rank = (turn == 1) ? 3 : (turn == 0) ? 2 : (turn == 3) ? 1 : -1;
        if (rank > best_rank) {
          best_rank = rank;
          best = cand;
        }
      }
      if (best == segs.size()) break;  // defensive: dangling boundary
      cur = best;
    }
    if (loop.size() >= 4) loops.push_back(std::move(loop));
  }
  return loops;
}

Area loop_signed_area(const std::vector<Point>& pts) {
  Area acc = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point a = pts[i];
    const Point b = pts[(i + 1) % pts.size()];
    acc += static_cast<Area>(a.x) * b.y - static_cast<Area>(b.x) * a.y;
  }
  return acc / 2;
}

}  // namespace

std::vector<Polygon> Region::to_polygons() const {
  normalize();
  if (raw_.empty()) return {};

  std::vector<std::vector<Point>> loops = trace_contours(raw_);
  bool has_hole = false;
  for (const auto& loop : loops) {
    if (loop_signed_area(loop) < 0) {
      has_hole = true;
      break;
    }
  }
  if (!has_hole) {
    std::vector<Polygon> out;
    out.reserve(loops.size());
    for (auto& loop : loops) out.emplace_back(std::move(loop));
    return out;
  }

  // Components with holes fall back to their rect decomposition (a valid,
  // hole-free cover of the same point set — what GDSII output needs).
  std::vector<Polygon> out;
  for (const Region& comp : components()) {
    std::vector<std::vector<Point>> cl = trace_contours(comp.raw_);
    bool comp_hole = false;
    for (const auto& loop : cl) {
      if (loop_signed_area(loop) < 0) comp_hole = true;
    }
    if (!comp_hole && cl.size() == 1) {
      out.emplace_back(std::move(cl.front()));
    } else {
      for (const Rect& r : comp.rects()) out.emplace_back(r);
    }
  }
  return out;
}

}  // namespace dfm

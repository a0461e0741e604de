// Scanline Boolean engine over rectangle sets.
//
// Vertical edges of every input rect become events at their x coordinate
// carrying a (+1/-1, which-operand) delta over a y interval. Sweeping x in
// sorted order, coverage counts per operand are maintained in an ordered
// map keyed by y. Between consecutive event x's the predicate intervals
// are constant; runs of slabs with identical interval sets are merged so
// the output decomposition is canonical (a pure function of the point set).
#include "geometry/region.h"

#include <algorithm>
#include <array>
#include <map>
#include <vector>

namespace dfm {
namespace {

struct Event {
  Coord x;
  Coord ylo, yhi;
  int delta;     // +1 opening edge, -1 closing edge
  int operand;   // 0 = a, 1 = b
};

bool predicate(BoolOp op, bool ina, bool inb) {
  switch (op) {
    case BoolOp::kOr: return ina || inb;
    case BoolOp::kAnd: return ina && inb;
    case BoolOp::kSub: return ina && !inb;
    case BoolOp::kXor: return ina != inb;
  }
  return false;
}

struct Interval {
  Coord lo, hi;
  friend bool operator==(const Interval&, const Interval&) = default;
};

// Appends [lo, hi) to a slab's interval list (sorted by lo), merging it
// into its predecessor when the two touch or overlap.
void append_interval(std::vector<Interval>& cur, Coord lo, Coord hi) {
  if (!cur.empty() && lo <= cur.back().hi) {
    cur.back().hi = std::max(cur.back().hi, hi);
  } else {
    cur.push_back({lo, hi});
  }
}

// The banding step every sweep shares. `open_` holds the previous slab's
// bands (interval -> x where the band opened), sorted by lo. At the slab
// boundary `x`, given the new slab's maximal intervals `cur` (sorted,
// disjoint), a band whose interval reappears unchanged continues; every
// other band closes into the rect [start, x) x interval, and each new
// interval opens a band at `x`. Continuing only identical intervals makes
// the emitted rects a pure function of the point set: the canonical form.
class SlabBands {
 public:
  void advance(Coord x, const std::vector<Interval>& cur,
               std::vector<Rect>& out) {
    next_.clear();
    std::size_t oi = 0;
    const auto close = [&] {
      out.push_back(
          Rect{open_[oi].second, open_[oi].first.lo, x, open_[oi].first.hi});
      ++oi;
    };
    for (const Interval& iv : cur) {
      while (oi < open_.size() && open_[oi].first.lo < iv.lo) close();
      if (oi < open_.size() && open_[oi].first == iv) {
        next_.emplace_back(iv, open_[oi].second);
        ++oi;
      } else {
        next_.emplace_back(iv, x);
      }
    }
    while (oi < open_.size()) close();
    open_.swap(next_);
  }

  bool empty() const { return open_.empty(); }

 private:
  std::vector<std::pair<Interval, Coord>> open_, next_;
};

}  // namespace

std::vector<Rect> sweep_boolean(const std::vector<Rect>& a,
                                const std::vector<Rect>& b, BoolOp op) {
  std::vector<Event> events;
  events.reserve(2 * (a.size() + b.size()));
  auto emit = [&events](const std::vector<Rect>& rs, int operand) {
    for (const Rect& r : rs) {
      if (r.is_empty()) continue;
      events.push_back({r.lo.x, r.lo.y, r.hi.y, +1, operand});
      events.push_back({r.hi.x, r.lo.y, r.hi.y, -1, operand});
    }
  };
  emit(a, 0);
  emit(b, 1);
  if (events.empty()) return {};
  std::sort(events.begin(), events.end(),
            [](const Event& l, const Event& r) { return l.x < r.x; });

  // Coverage deltas per y boundary, per operand.
  std::map<Coord, std::array<int, 2>> deltas;

  SlabBands bands;
  std::vector<Rect> out;
  std::vector<Interval> cur;

  std::size_t i = 0;
  while (i < events.size()) {
    const Coord x = events[i].x;
    // Apply all events at this x.
    for (; i < events.size() && events[i].x == x; ++i) {
      const Event& e = events[i];
      auto apply = [&](Coord y, int d) {
        auto it = deltas.try_emplace(y, std::array<int, 2>{0, 0}).first;
        it->second[static_cast<std::size_t>(e.operand)] += d;
        if (it->second[0] == 0 && it->second[1] == 0) deltas.erase(it);
      };
      apply(e.ylo, e.delta);
      apply(e.yhi, -e.delta);
    }
    // Recompute predicate intervals for the slab starting at x.
    cur.clear();
    int ca = 0, cb = 0;
    bool inside = false;
    Coord start = 0;
    for (const auto& [y, d] : deltas) {
      ca += d[0];
      cb += d[1];
      const bool now = predicate(op, ca > 0, cb > 0);
      if (now && !inside) {
        inside = true;
        start = y;
      } else if (!now && inside) {
        inside = false;
        append_interval(cur, start, y);
      }
    }
    bands.advance(x, cur, out);
  }
  // All rect right edges generate closing events, so the bands drain by
  // the final event; flush defensively anyway.
  if (!bands.empty()) bands.advance(events.back().x, {}, out);
  std::sort(out.begin(), out.end());
  return out;
}

Region covered_at_least(const std::vector<Rect>& rects, int k) {
  struct VEvent {
    Coord x, ylo, yhi;
    int delta;
  };
  std::vector<VEvent> events;
  events.reserve(rects.size() * 2);
  for (const Rect& r : rects) {
    if (r.is_empty()) continue;
    events.push_back({r.lo.x, r.lo.y, r.hi.y, +1});
    events.push_back({r.hi.x, r.lo.y, r.hi.y, -1});
  }
  std::sort(events.begin(), events.end(),
            [](const VEvent& a, const VEvent& b) { return a.x < b.x; });

  std::map<Coord, int> deltas;
  SlabBands bands;
  std::vector<Rect> out;
  std::vector<Interval> cur;
  std::size_t i = 0;
  while (i < events.size()) {
    const Coord x = events[i].x;
    for (; i < events.size() && events[i].x == x; ++i) {
      const VEvent& e = events[i];
      deltas[e.ylo] += e.delta;
      if (deltas[e.ylo] == 0) deltas.erase(e.ylo);
      deltas[e.yhi] -= e.delta;
      if (deltas[e.yhi] == 0) deltas.erase(e.yhi);
    }
    cur.clear();
    int c = 0;
    bool inside = false;
    Coord start = 0;
    for (const auto& [y, d] : deltas) {
      c += d;
      const bool now = c >= k;
      if (now && !inside) {
        inside = true;
        start = y;
      } else if (!now && inside) {
        inside = false;
        append_interval(cur, start, y);
      }
    }
    bands.advance(x, cur, out);
  }
  std::sort(out.begin(), out.end());
  // Same banding and order as sweep_boolean: `out` is already canonical.
  Region reg;
  reg.raw_ = std::move(out);
  reg.normalized_ = true;
  return reg;
}

Region grid_region(const Rect& window, Coord px, const ColumnRuns& columns) {
  // Column i is one slab, [lo.x + i*px, lo.x + (i+1)*px) clipped to the
  // window; its runs are the slab's intervals, so the sweep's banding
  // step applies column by column with no event sort and no coverage map.
  SlabBands bands;
  std::vector<Rect> out;
  std::vector<Interval> cur;
  Coord x = window.lo.x;
  for (std::size_t i = 0; i < columns.columns(); ++i) {
    if (x >= window.hi.x) break;
    cur.clear();
    for (const PixelRun* run = columns.begin(i); run != columns.end(i); ++run) {
      const Coord lo = window.lo.y + run->lo * px;
      const Coord hi = std::min(window.lo.y + run->hi * px, window.hi.y);
      if (lo < hi) append_interval(cur, lo, hi);
    }
    bands.advance(x, cur, out);
    x += px;
  }
  bands.advance(std::min(x, window.hi.x), {}, out);
  std::sort(out.begin(), out.end());
  Region reg;
  reg.raw_ = std::move(out);
  reg.normalized_ = true;
  return reg;
}

Region boolean_op(const Region& a, const Region& b, BoolOp op) {
  Region r;
  r.raw_ = sweep_boolean(a.raw_, b.raw_, op);
  r.normalized_ = true;
  return r;
}

std::vector<Rect> decompose(const Polygon& p) {
  if (p.empty()) return {};
  if (p.is_rect()) return {p.bbox()};
  // Build events directly from the polygon's vertical edges: an upward
  // edge (interior to its left in CCW winding) closes coverage, a downward
  // edge opens it — sweeping left to right with winding counts is
  // equivalent to treating the polygon as a union of signed slabs. It is
  // simpler and robust to reuse the union sweep: CCW rectilinear polygons
  // decompose correctly because coverage counts handle any winding.
  struct VEdge {
    Coord x, ylo, yhi;
    int delta;
  };
  std::vector<VEdge> vedges;
  const auto& pts = p.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point u = pts[i];
    const Point v = pts[(i + 1) % pts.size()];
    if (u.x != v.x) continue;  // horizontal edge: no event
    if (v.y > u.y) {
      // Upward edge: interior on the left => coverage ends at this x.
      vedges.push_back({u.x, u.y, v.y, -1});
    } else {
      vedges.push_back({u.x, v.y, u.y, +1});
    }
  }
  std::sort(vedges.begin(), vedges.end(),
            [](const VEdge& a, const VEdge& b) { return a.x < b.x; });

  std::map<Coord, int> deltas;
  SlabBands bands;
  std::vector<Rect> out;
  std::vector<Interval> cur;
  std::size_t i = 0;
  while (i < vedges.size()) {
    const Coord x = vedges[i].x;
    for (; i < vedges.size() && vedges[i].x == x; ++i) {
      const VEdge& e = vedges[i];
      deltas[e.ylo] += e.delta;
      if (deltas[e.ylo] == 0) deltas.erase(e.ylo);
      deltas[e.yhi] -= e.delta;
      if (deltas[e.yhi] == 0) deltas.erase(e.yhi);
    }
    cur.clear();
    int c = 0;
    bool inside = false;
    Coord start = 0;
    for (const auto& [y, d] : deltas) {
      c += d;
      const bool now = c > 0;
      if (now && !inside) {
        inside = true;
        start = y;
      } else if (!now && inside) {
        inside = false;
        append_interval(cur, start, y);
      }
    }
    bands.advance(x, cur, out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dfm

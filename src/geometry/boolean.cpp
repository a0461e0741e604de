// Scanline Boolean engine over rectangle sets.
//
// Vertical edges of every input rect become events at their x coordinate
// carrying a (+1/-1, which-operand) delta over a y interval. Sweeping x in
// sorted order, coverage counts per operand are maintained in a flat
// table of y boundaries, sorted by y. Between consecutive event x's the
// predicate intervals are constant; runs of slabs with identical interval
// sets are merged so the output decomposition is canonical (a pure
// function of the point set).
#include "geometry/region.h"

#include <algorithm>
#include <array>
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

// Coverage deltas per y boundary and operand: crossing boundary y upward
// adds d[operand] to that operand's count. One flat vector sorted by y;
// an entry that returns to zero on every operand is erased, so a walk in
// y order meets only the live boundaries, as an ordered map would.
template <std::size_t N>
class DeltaTable {
 public:
  struct Entry {
    Coord y;
    std::array<int, N> d;
  };

  void add(Coord y, int operand, int delta) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), y,
        [](const Entry& e, Coord v) { return e.y < v; });
    if (it == entries_.end() || it->y != y) {
      it = entries_.insert(it, Entry{y, {}});
    }
    it->d[static_cast<std::size_t>(operand)] += delta;
    if (it->d == std::array<int, N>{}) entries_.erase(it);
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// Sweeps `events` (N operands) in x and emits the canonical bands of the
// points where `inside(counts)` holds, sorted.
template <std::size_t N, class Inside>
std::vector<Rect> sweep(std::vector<Event>& events, Inside inside) {
  if (events.empty()) return {};
  std::sort(events.begin(), events.end(),
            [](const Event& l, const Event& r) { return l.x < r.x; });
  DeltaTable<N> deltas;
  SlabBands bands;
  std::vector<Rect> out;
  std::vector<Interval> cur;
  std::size_t i = 0;
  while (i < events.size()) {
    const Coord x = events[i].x;
    // Apply all events at this x.
    for (; i < events.size() && events[i].x == x; ++i) {
      const Event& e = events[i];
      deltas.add(e.ylo, e.operand, e.delta);
      deltas.add(e.yhi, e.operand, -e.delta);
    }
    // Recompute predicate intervals for the slab starting at x.
    cur.clear();
    std::array<int, N> counts{};
    bool in = false;
    Coord start = 0;
    for (const auto& [y, d] : deltas.entries()) {
      for (std::size_t k = 0; k < N; ++k) counts[k] += d[k];
      const bool now = inside(counts);
      if (now && !in) {
        in = true;
        start = y;
      } else if (!now && in) {
        in = false;
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

void push_events(const std::vector<Rect>& rs, int operand,
                 std::vector<Event>& events) {
  for (const Rect& r : rs) {
    if (r.is_empty()) continue;
    events.push_back({r.lo.x, r.lo.y, r.hi.y, +1, operand});
    events.push_back({r.hi.x, r.lo.y, r.hi.y, -1, operand});
  }
}

}  // namespace

std::vector<Rect> sweep_boolean(const std::vector<Rect>& a,
                                const std::vector<Rect>& b, BoolOp op) {
  std::vector<Event> events;
  events.reserve(2 * (a.size() + b.size()));
  push_events(a, 0, events);
  push_events(b, 1, events);
  return sweep<2>(events, [op](const std::array<int, 2>& c) {
    return predicate(op, c[0] > 0, c[1] > 0);
  });
}

Region covered_at_least(const std::vector<Rect>& rects, int k) {
  std::vector<Event> events;
  events.reserve(rects.size() * 2);
  push_events(rects, 0, events);
  // Same banding and order as sweep_boolean: the result is canonical.
  Region reg;
  reg.raw_ = sweep<1>(events,
                      [k](const std::array<int, 1>& c) { return c[0] >= k; });
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

Region union_of_apart(const std::vector<const Region*>& parts) {
  std::vector<Rect> out;
  for (const Region* p : parts) {
    const std::vector<Rect>& rs = p->rects();
    out.insert(out.end(), rs.begin(), rs.end());
  }
  std::sort(out.begin(), out.end());
  Region reg;
  reg.raw_ = std::move(out);
  reg.normalized_ = true;
  return reg;
}

RegionEdit edit_region(const Region& base, const Region& removed,
                       const Region& added) {
  // The shapes as added: the same closed point set as the canonical
  // rects, read without normalizing the caller's regions.
  std::vector<Rect> edit = removed.raw_;
  edit.insert(edit.end(), added.raw_.begin(), added.raw_.end());
  const Rect reach = bounding_box(edit);
  const auto touches_edit = [&](const Rect& r) {
    if (!r.touches(reach)) return false;
    for (const Rect& e : edit) {
      if (r.touches(e)) return true;
    }
    return false;
  };
  RegionEdit out;
  std::vector<Rect> far;
  far.reserve(base.rects().size());
  for (const Rect& r : base.rects()) {
    (touches_edit(r) ? out.replaced : far).push_back(r);
  }
  // The replaced rects are bands of `base`, so they cover their point set
  // without overlap and the sweep reads them as they are.
  out.local =
      sweep_boolean(sweep_boolean(out.replaced, removed.raw_, BoolOp::kSub),
                    added.raw_, BoolOp::kOr);
  // What remains of the edited layer beyond the far bands is exactly the
  // local region, and its bands are the result's other bands.
  out.result.raw_.resize(far.size() + out.local.size());
  std::merge(far.begin(), far.end(), out.local.begin(), out.local.end(),
             out.result.raw_.begin());
  out.result.normalized_ = true;
  return out;
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
  // equivalent to treating the polygon as a union of signed slabs, so the
  // union sweep decomposes any winding correctly.
  std::vector<Event> events;
  const auto& pts = p.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point u = pts[i];
    const Point v = pts[(i + 1) % pts.size()];
    if (u.x != v.x) continue;  // horizontal edge: no event
    if (v.y > u.y) {
      // Upward edge: interior on the left => coverage ends at this x.
      events.push_back({u.x, u.y, v.y, -1, 0});
    } else {
      events.push_back({u.x, v.y, u.y, +1, 0});
    }
  }
  return sweep<1>(events, [](const std::array<int, 1>& c) { return c[0] > 0; });
}

}  // namespace dfm

// Region::clipped keeps a canonical region canonical: clipping a
// normalized region must give, rect for rect, the canonical form the
// sweep builds from the clipped rects, already stored in raw() so that no
// query re-sweeps it. A region that is not normalized keeps the lazy
// path: its clip holds the clipped shapes as added.
#include "geometry/region.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace dfm {
namespace {

// The canonical form of `r`'s rects clipped to `window`, by the sweep.
std::vector<Rect> swept_clip(const Region& r, const Rect& window) {
  std::vector<Rect> clipped;
  for (const Rect& x : r.rects()) {
    const Rect c = x.intersect(window);
    if (!c.is_empty()) clipped.push_back(c);
  }
  return sweep_boolean(clipped, {}, BoolOp::kOr);
}

// Checks the clip of normalized `r` against the sweep, and that the
// stored shapes are the canonical rects before any query runs.
void expect_canonical_clip(const Region& r, const Rect& window) {
  r.rects();  // normalized input
  const Region c = r.clipped(window);
  const std::vector<Rect> stored = c.raw();
  EXPECT_EQ(stored, swept_clip(r, window)) << "window " << to_string(window);
  EXPECT_EQ(c.rects(), stored) << "window " << to_string(window);
}

Region random_region(std::mt19937_64& rng, int n, Coord extent) {
  std::uniform_int_distribution<Coord> pos(0, extent - 1);
  std::uniform_int_distribution<Coord> len(1, extent / 3 + 1);
  Region r;
  for (int i = 0; i < n; ++i) {
    const Coord x = pos(rng), y = pos(rng);
    r.add(Rect{x, y, x + len(rng), y + len(rng)});
  }
  return r;
}

TEST(RegionClip, CutBandsWithTheSameIntervalMerge) {
  Region r;
  r.add(Rect{0, 0, 10, 50});
  r.add(Rect{10, 0, 20, 100});
  ASSERT_EQ(r.rect_count(), 2u);
  const Region c = r.clipped(Rect{0, 0, 20, 50});
  EXPECT_EQ(c.raw(), (std::vector<Rect>{{0, 0, 20, 50}}));
  expect_canonical_clip(r, Rect{0, 0, 20, 50});
  // Cut by the lower edge instead: the bands meet on [50, 100) only
  // past x = 10, so nothing merges.
  expect_canonical_clip(r, Rect{0, 50, 20, 100});
  // A chain of three bands cut to one interval merges into one rect.
  Region chain;
  chain.add(Rect{0, 0, 10, 30});
  chain.add(Rect{10, 0, 20, 60});
  chain.add(Rect{20, 0, 30, 40});
  ASSERT_EQ(chain.rect_count(), 3u);
  const Region cc = chain.clipped(Rect{-5, 10, 35, 25});
  EXPECT_EQ(cc.raw(), (std::vector<Rect>{{0, 10, 30, 25}}));
}

TEST(RegionClip, WindowsOnRectEdges) {
  std::mt19937_64 rng(17);
  const Region r = random_region(rng, 20, 60);
  const std::vector<Rect> rs = r.rects();
  std::vector<Coord> xs, ys;
  for (const Rect& x : rs) {
    xs.insert(xs.end(), {x.lo.x, x.hi.x});
    ys.insert(ys.end(), {x.lo.y, x.hi.y});
  }
  std::uniform_int_distribution<std::size_t> pick(0, xs.size() - 1);
  for (int i = 0; i < 200; ++i) {
    Coord x0 = xs[pick(rng)], x1 = xs[pick(rng)];
    Coord y0 = ys[pick(rng)], y1 = ys[pick(rng)];
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    expect_canonical_clip(r, Rect{x0, y0, x1, y1});
  }
  for (const Rect& x : rs) expect_canonical_clip(r, x);
}

TEST(RegionClip, EmptyDegenerateAndDisjointWindows) {
  std::mt19937_64 rng(5);
  const Region r = random_region(rng, 15, 50);
  for (const Rect& w : {Rect::empty(), Rect{10, 10, 10, 40},
                        Rect{10, 10, 40, 10}, Rect{30, 30, 20, 20},
                        Rect{200, 200, 300, 300}, Rect{-50, -50, 0, 0}}) {
    const Region c = r.clipped(w);
    EXPECT_TRUE(c.raw().empty()) << to_string(w);
    EXPECT_TRUE(c.empty()) << to_string(w);
  }
  EXPECT_TRUE(Region().clipped(Rect{0, 0, 10, 10}).empty());
  // A window around the whole region returns it unchanged.
  EXPECT_EQ(r.clipped(Rect{-1, -1, 100, 100}).raw(), r.rects());
}

TEST(RegionClip, OneRectRegions) {
  const Region r{Rect{0, 0, 10, 20}};
  EXPECT_EQ(r.clipped(Rect{5, 5, 50, 50}).raw(),
            (std::vector<Rect>{{5, 5, 10, 20}}));
  EXPECT_TRUE(r.clipped(Rect{10, 0, 20, 20}).empty());
  expect_canonical_clip(r, Rect{-3, 4, 7, 30});
}

TEST(RegionClip, NonNormalizedInputKeepsTheLazyPath) {
  Region r;
  r.add(Rect{0, 0, 10, 10});
  r.add(Rect{5, 0, 15, 10});  // overlaps: the region is not canonical
  const Region c = r.clipped(Rect{2, 0, 12, 8});
  // The clipped shapes as added, in input order, merged on first query.
  EXPECT_EQ(c.raw(), (std::vector<Rect>{{2, 0, 10, 8}, {5, 0, 12, 8}}));
  EXPECT_EQ(c.rects(), (std::vector<Rect>{{2, 0, 12, 8}}));
}

class RegionClipProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RegionClipProperty, ClipOfCanonicalMatchesSweep) {
  std::mt19937_64 rng(GetParam());
  const Coord extent = 80;
  const Region a = random_region(rng, 25, extent);
  const Region b = random_region(rng, 25, extent);
  // Regions from the lazy normalizer and from each Boolean operator.
  const Region inputs[] = {a, a | b, a & b, a - b, a ^ b,
                           (a ^ b).translated({-7, 3}), (a - b).scaled(3)};
  std::uniform_int_distribution<Coord> pos(-10, extent + 40);
  for (const Region& r : inputs) {
    for (int i = 0; i < 40; ++i) {
      Coord x0 = pos(rng), x1 = pos(rng), y0 = pos(rng), y1 = pos(rng);
      if (x0 > x1) std::swap(x0, x1);
      if (y0 > y1) std::swap(y0, y1);
      expect_canonical_clip(r, Rect{x0, y0, x1, y1});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionClipProperty, ::testing::Range(1u, 21u));

}  // namespace
}  // namespace dfm

// Direct tests for covered_at_least, grid_region and Region::scaled —
// load-bearing pieces of the spacing, critical-area and litho engines
// that the rest of the suite only exercises indirectly.
#include "geometry/region.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace dfm {
namespace {

TEST(CoveredAtLeast, DisjointRectsNeverDoubleCover) {
  const std::vector<Rect> rects = {{0, 0, 10, 10}, {20, 0, 30, 10}};
  EXPECT_TRUE(covered_at_least(rects, 2).empty());
  EXPECT_EQ(covered_at_least(rects, 1).area(), 200);
}

TEST(CoveredAtLeast, OverlapIsExact) {
  const std::vector<Rect> rects = {{0, 0, 10, 10}, {5, 5, 15, 15}};
  const Region twice = covered_at_least(rects, 2);
  EXPECT_EQ(twice, Region(Rect{5, 5, 10, 10}));
  EXPECT_TRUE(covered_at_least(rects, 3).empty());
}

TEST(CoveredAtLeast, TouchingDoesNotCount) {
  // Half-open semantics: shared edges are not double coverage.
  const std::vector<Rect> rects = {{0, 0, 10, 10}, {10, 0, 20, 10}};
  EXPECT_TRUE(covered_at_least(rects, 2).empty());
}

TEST(CoveredAtLeast, MultiplicityCounts) {
  // The same area three times over.
  const std::vector<Rect> rects = {{0, 0, 10, 10}, {0, 0, 10, 10}, {0, 0, 10, 10}};
  EXPECT_EQ(covered_at_least(rects, 3).area(), 100);
  EXPECT_TRUE(covered_at_least(rects, 4).empty());
}

TEST(CoveredAtLeast, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(covered_at_least({}, 1).empty());
  EXPECT_TRUE(covered_at_least({Rect::empty()}, 1).empty());
  EXPECT_TRUE(covered_at_least({Rect{5, 5, 5, 10}}, 1).empty());
}

class CoverageProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CoverageProperty, MatchesBruteForceBitmap) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<Coord> pos(0, 30);
  std::uniform_int_distribution<Coord> len(1, 15);
  std::vector<Rect> rects;
  for (int i = 0; i < 10; ++i) {
    const Coord x = pos(rng), y = pos(rng);
    rects.push_back(Rect{x, y, x + len(rng), y + len(rng)});
  }
  const Coord extent = 50;
  std::vector<int> counts(static_cast<std::size_t>(extent * extent), 0);
  for (const Rect& r : rects) {
    for (Coord y = r.lo.y; y < std::min(extent, r.hi.y); ++y) {
      for (Coord x = r.lo.x; x < std::min(extent, r.hi.x); ++x) {
        ++counts[static_cast<std::size_t>(y * extent + x)];
      }
    }
  }
  for (const int k : {1, 2, 3}) {
    const Region cov = covered_at_least(rects, k);
    for (Coord y = 0; y < extent; ++y) {
      for (Coord x = 0; x < extent; ++x) {
        const bool want =
            counts[static_cast<std::size_t>(y * extent + x)] >= k;
        ASSERT_EQ(cov.contains({x, y}), want)
            << "k=" << k << " at (" << x << "," << y << ")";
      }
    }
  }
}

TEST_P(CoverageProperty, ReturnsCanonicalBands) {
  // The sweep's bands are already canonical: re-normalizing them must
  // change neither the rects nor the area.
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<Coord> pos(-200, 200);
  std::uniform_int_distribution<Coord> len(1, 120);
  std::vector<Rect> rects;
  for (int i = 0; i < 60; ++i) {
    const Coord x = pos(rng), y = pos(rng);
    rects.push_back(Rect{x, y, x + len(rng), y + len(rng)});
  }
  for (const int k : {1, 2, 3}) {
    const Region cov = covered_at_least(rects, k);
    const std::vector<Rect>& out = cov.rects();
    EXPECT_EQ(out, sweep_boolean(out, {}, BoolOp::kOr)) << "k=" << k;
    EXPECT_EQ(cov.area(), Region(out).area()) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageProperty, ::testing::Range(1u, 9u));

class GridRegionProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(GridRegionProperty, EqualsNormalizedUnionOfPixels) {
  // Random pixel runs on a grid whose window clips the last column and
  // row; runs may touch or overlap. The builder must return exactly the
  // canonical form of the union of the clipped pixel rects.
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> count(0, 3);
  std::uniform_int_distribution<int> row(0, 11);
  const Coord px = 5;
  const Rect window{-7, 3, -7 + 9 * px - 2, 3 + 12 * px - 4};
  std::vector<std::vector<PixelRun>> columns(9);
  Region pixels;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    for (int n = count(rng); n > 0; --n) {
      const int a = row(rng), b = row(rng);
      columns[i].push_back({std::min(a, b), std::max(a, b) + 1});
    }
    std::sort(columns[i].begin(), columns[i].end(),
              [](const PixelRun& l, const PixelRun& r) { return l.lo < r.lo; });
    const Coord x0 = window.lo.x + static_cast<Coord>(i) * px;
    for (const PixelRun& run : columns[i]) {
      pixels.add(Rect{x0, window.lo.y + run.lo * px,
                      std::min(x0 + px, window.hi.x),
                      std::min(window.lo.y + run.hi * px, window.hi.y)});
    }
  }
  const Region grid = grid_region(window, px, columns);
  EXPECT_EQ(grid.rects(), pixels.rects());
  EXPECT_EQ(grid.rects(), sweep_boolean(grid.rects(), {}, BoolOp::kOr));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridRegionProperty, ::testing::Range(1u, 17u));

TEST(RegionScaled, ScalesAreasQuadratically) {
  Region r;
  r.add(Rect{-5, -5, 5, 5});
  r.add(Rect{20, 0, 30, 10});
  const Region s = r.scaled(3);
  EXPECT_EQ(s.area(), r.area() * 9);
  EXPECT_EQ(s.bbox(), (Rect{-15, -15, 90, 30}));
  EXPECT_EQ(s.components().size(), r.components().size());
}

TEST(RegionScaled, ScaledMorphologyMatchesHalvedRadii) {
  // The 2x-grid trick the DRC engine relies on: bloat by 2d at 2x equals
  // bloat by d at 1x, scaled.
  Region r;
  r.add(Rect{0, 0, 40, 40});
  r.add(Rect{100, 0, 140, 40});
  EXPECT_EQ(r.scaled(2).bloated(14), r.bloated(7).scaled(2));
  EXPECT_EQ(r.scaled(2).shrunk(10), r.shrunk(5).scaled(2));
}

TEST(RegionDistanceCap, CapIsRespected) {
  const Region a{Rect{0, 0, 10, 10}};
  const Region b{Rect{1000, 0, 1010, 10}};
  EXPECT_EQ(region_distance(a, b, 50), 50);
  EXPECT_EQ(region_distance(a, b, 5000), 990);
}

}  // namespace
}  // namespace dfm

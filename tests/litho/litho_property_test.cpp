// Property sweeps for the litho model: symmetry, monotonicity, and
// conservation behaviours that must hold for any sane optical model.
#include "litho/litho.h"

#include "gen/rng.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dfm {
namespace {

OpticalModel model() {
  OpticalModel m;
  m.sigma = 25;
  m.px = 5;
  return m;
}

class LithoProperty : public ::testing::TestWithParam<unsigned> {};

Region random_mask(Rng& rng, const Rect& within, int shapes) {
  Region r;
  for (int i = 0; i < shapes; ++i) {
    const Coord x = rng.uniform(within.lo.x, within.hi.x - 60);
    const Coord y = rng.uniform(within.lo.y, within.hi.y - 60);
    r.add(Rect{x, y, x + rng.uniform(60, 200), y + rng.uniform(60, 200)});
  }
  return r;
}

TEST_P(LithoProperty, MirrorSymmetry) {
  Rng rng(GetParam());
  const Rect box{0, 0, 600, 600};
  const Region mask = random_mask(rng, box, 5);
  const Rect window{100, 100, 500, 500};

  const Raster img = aerial_image(mask, window, model());
  // Mirror the mask about x = 600 and sample mirrored points.
  const Transform mirror{Orient::kMXR180, {600, 0}};  // x -> 600 - x
  const Region mmask = mask.transformed(mirror);
  const Raster mimg = aerial_image(mmask, mirror.apply(window), model());
  for (int i = 0; i < 30; ++i) {
    const Point p{rng.uniform(120, 480), rng.uniform(120, 480)};
    const Point mp = mirror.apply(p);
    EXPECT_NEAR(img.sample(p), mimg.sample(mp), 1e-4) << to_string(p);
  }
}

TEST_P(LithoProperty, IntensityMonotoneInMaskArea) {
  Rng rng(GetParam() * 3 + 1);
  const Rect box{0, 0, 600, 600};
  const Region small = random_mask(rng, box, 3);
  const Region big = small | random_mask(rng, box, 3);
  const Rect window{100, 100, 500, 500};
  const Raster a = aerial_image(small, window, model());
  const Raster b = aerial_image(big, window, model());
  for (int i = 0; i < 50; ++i) {
    const Point p{rng.uniform(120, 480), rng.uniform(120, 480)};
    EXPECT_LE(a.sample(p), b.sample(p) + 1e-5);
  }
}

TEST_P(LithoProperty, PrintedRegionMonotoneInDose) {
  Rng rng(GetParam() * 7 + 2);
  const Rect box{0, 0, 600, 600};
  const Region mask = random_mask(rng, box, 4);
  const Rect window{50, 50, 550, 550};
  const Raster img = aerial_image(mask, window, model());
  const Region lo = printed_region(img, model(), {0.9, 0});
  const Region hi = printed_region(img, model(), {1.1, 0});
  EXPECT_TRUE((lo - hi).empty()) << "higher dose must print a superset";
}

TEST_P(LithoProperty, DefocusNeverSharpens) {
  Rng rng(GetParam() * 11 + 3);
  const Rect box{0, 0, 600, 600};
  const Region mask = random_mask(rng, box, 4);
  const Rect window{50, 50, 550, 550};
  // Peak intensity can only drop (or hold) with defocus for these masks.
  const Raster f0 = aerial_image(mask, window, model(), 0);
  const Raster f1 = aerial_image(mask, window, model(), 80);
  float max0 = 0, max1 = 0;
  for (const float v : f0.values) max0 = std::max(max0, v);
  for (const float v : f1.values) max1 = std::max(max1, v);
  EXPECT_LE(max1, max0 + 1e-4);
}

TEST_P(LithoProperty, HotspotsOnlyWhereGeometryIs) {
  Rng rng(GetParam() * 13 + 4);
  const Rect box{0, 0, 800, 800};
  const Region mask = random_mask(rng, box, 5);
  const auto spots = litho_hotspots(mask, box.expanded(100), model(), 12);
  for (const Hotspot& h : spots) {
    EXPECT_TRUE(h.marker.overlaps(mask.bbox().expanded(100)));
    EXPECT_GT(h.severity, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LithoProperty, ::testing::Range(1u, 9u));

TEST(LithoBossung, CdRespondsSmoothlyToDefocus) {
  // Pins the sigma_at_nm fix: the old integer-rounded sigma_at mapped
  // defoci 0 and 6 to the same 25nm sigma, so the Bossung curve had flat
  // steps. With the unrounded sigma every defocus step must blur a
  // sub-sigma line strictly further, shrinking its printed CD
  // monotonically. (A wide line would not do: at the 0.5 threshold its
  // edge sits at the mask edge for any blur, so its CD is defocus-flat.)
  const OpticalModel m = model();
  Region mask;
  mask.add(Rect{-600, -20, 600, 20});  // 40nm line, gauge across it
  const Rect window{-800, -400, 800, 400};
  const Gauge g{{0, -300}, {0, 300}, "across"};
  const std::vector<BossungPoint> pts =
      bossung(mask, window, m, g, {1.0}, {0, 6, 12, 18, 24});
  ASSERT_EQ(pts.size(), 5u);
  for (const BossungPoint& p : pts) {
    ASSERT_GT(p.cd, 0) << "defocus " << p.cond.defocus;
  }
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i].cd, pts[i - 1].cd)
        << "CD must strictly shrink from defocus " << pts[i - 1].cond.defocus
        << " to " << pts[i].cond.defocus;
  }
}

TEST(LithoBossung, UnroundedSigmaGrowsInQuadrature) {
  const OpticalModel m = model();
  EXPECT_DOUBLE_EQ(m.sigma_at_nm(0), 25.0);  // best focus is untouched
  EXPECT_NEAR(m.sigma_at_nm(6), std::sqrt(625.0 + 9.0), 1e-12);
  EXPECT_NEAR(m.sigma_at_nm(40), std::sqrt(625.0 + 400.0), 1e-12);
}

}  // namespace
}  // namespace dfm

#include "dpt/dpt.h"

#include "core/parallel.h"
#include "core/snapshot.h"
#include "gen/generators.h"
#include "gen/rng.h"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>

namespace dfm {
namespace {

const Tech& tech() { return Tech::standard(); }  // dpt_space = 80

TEST(RegionDistance, BasicAndCap) {
  const Region a{Rect{0, 0, 10, 10}};
  const Region b{Rect{25, 0, 35, 10}};
  EXPECT_EQ(region_distance(a, b, 100), 15);
  EXPECT_EQ(region_distance(a, b, 5), 5);  // capped
  EXPECT_EQ(region_distance(a, a, 100), 0);
}

TEST(ConflictGraph, EdgesOnlyBelowDptSpace) {
  Region layer;
  layer.add(Rect{0, 0, 100, 100});
  layer.add(Rect{160, 0, 260, 100});   // gap 60 < 80: conflict
  layer.add(Rect{400, 0, 500, 100});   // gap 140: no conflict
  const ConflictGraph g = build_conflict_graph(layer, tech().dpt_space);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.edges.size(), 1u);
}

TEST(ConflictGraph, TouchingShapesAreOneNode) {
  Region layer;
  layer.add(Rect{0, 0, 100, 100});
  layer.add(Rect{100, 0, 200, 100});
  const ConflictGraph g = build_conflict_graph(layer, tech().dpt_space);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.edges.empty());
}

TEST(TwoColor, ChainIsBipartite) {
  Region layer;
  for (int i = 0; i < 6; ++i) {
    layer.add(Rect{i * 160, 0, i * 160 + 100, 100});  // gaps 60: a chain
  }
  const ConflictGraph g = build_conflict_graph(layer, tech().dpt_space);
  const ColoringResult col = two_color(g);
  EXPECT_TRUE(col.bipartite);
  for (const auto& [u, v] : g.edges) {
    EXPECT_NE(col.color[u], col.color[v]);
  }
  // Alternating colors along the chain.
  int zeros = 0;
  for (const int c : col.color) zeros += (c == 0);
  EXPECT_EQ(zeros, 3);
}

TEST(TwoColor, TriangleIsOdd) {
  Cell c{"c"};
  inject_odd_cycle(c, tech(), {0, 0});
  const Region layer = c.local_region(layers::kMetal1);
  const ConflictGraph g = build_conflict_graph(layer, tech().dpt_space);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.edges.size(), 3u);
  const ColoringResult col = two_color(g);
  EXPECT_FALSE(col.bipartite);
  ASSERT_FALSE(col.odd_cycles.empty());
  EXPECT_GE(col.odd_cycles.front().size(), 3u);
}

TEST(Decompose, BipartiteNeedsNoStitches) {
  Region layer;
  for (int i = 0; i < 4; ++i) {
    layer.add(Rect{i * 160, 0, i * 160 + 100, 400});
  }
  const Decomposition d = decompose_dpt(layer, tech());
  EXPECT_TRUE(d.compliant);
  EXPECT_TRUE(d.stitches.empty());
  EXPECT_EQ((d.mask_a | d.mask_b), layer);
  EXPECT_TRUE((d.mask_a & d.mask_b).empty());
}

TEST(Decompose, MaskSpacingIsLegal) {
  Region layer;
  for (int i = 0; i < 6; ++i) {
    layer.add(Rect{i * 160, 0, i * 160 + 100, 400});
  }
  const Decomposition d = decompose_dpt(layer, tech());
  const DptScore s = score_decomposition(d, tech());
  EXPECT_DOUBLE_EQ(s.spacing_score, 1.0);
  EXPECT_GT(s.composite, 0.8);
}

TEST(Decompose, OddCycleResolvedWithStitch) {
  Cell c{"c"};
  inject_odd_cycle(c, tech(), {0, 0});
  const Region layer = c.local_region(layers::kMetal1);
  const Decomposition d = decompose_dpt(layer, tech());
  EXPECT_TRUE(d.compliant) << "the stitcher must break a simple triangle";
  EXPECT_GE(d.stitches.size(), 1u);
  // Union of masks still covers the layer (stitch overlap is extra).
  EXPECT_TRUE((layer - (d.mask_a | d.mask_b)).empty());
  // The overlap is exactly the stitch area.
  EXPECT_FALSE((d.mask_a & d.mask_b).empty());
}

TEST(Decompose, EmptyLayer) {
  const Decomposition d = decompose_dpt(Region{}, tech());
  EXPECT_TRUE(d.compliant);
  EXPECT_TRUE(d.mask_a.empty());
  EXPECT_TRUE(d.mask_b.empty());
  EXPECT_EQ(d.nodes, 0);
}

TEST(Decompose, DenseCellRowsDecompose) {
  // Metal-1 of a generated design at DPT-critical pitch.
  DesignParams p;
  p.seed = 31;
  p.rows = 1;
  p.cells_per_row = 4;
  p.routes = 0;
  p.via_fields = 0;
  const Library lib = generate_design(p);
  const Region m1 = lib.flatten(lib.top_cells()[0], layers::kMetal1);
  const Decomposition d = decompose_dpt(m1, p.tech);
  EXPECT_GT(d.nodes, 0);
  // Standard-cell M1 at this pitch has conflicts but no odd cycles.
  EXPECT_TRUE(d.compliant);
}

TEST(Score, PerfectDecompositionScoresHigh) {
  Decomposition d;
  d.mask_a = Region{Rect{0, 0, 100, 100}};
  d.mask_b = Region{Rect{500, 0, 600, 100}};
  d.nodes = 2;
  d.compliant = true;
  const DptScore s = score_decomposition(d, tech());
  EXPECT_DOUBLE_EQ(s.density_balance, 1.0);
  EXPECT_DOUBLE_EQ(s.stitch_score, 1.0);
  EXPECT_DOUBLE_EQ(s.overlay_score, 1.0);
  EXPECT_DOUBLE_EQ(s.spacing_score, 1.0);
  EXPECT_DOUBLE_EQ(s.composite, 1.0);
}

TEST(Score, ImbalancedMasksScoreLower) {
  Decomposition balanced;
  balanced.mask_a = Region{Rect{0, 0, 100, 100}};
  balanced.mask_b = Region{Rect{500, 0, 600, 100}};
  balanced.nodes = 2;
  Decomposition skewed = balanced;
  skewed.mask_a = Region{Rect{0, 0, 300, 300}};
  EXPECT_LT(score_decomposition(skewed, tech()).density_balance,
            score_decomposition(balanced, tech()).density_balance);
}

TEST(Score, SameMaskViolationTanksSpacingScore) {
  Decomposition d;
  d.mask_a.add(Rect{0, 0, 100, 100});
  d.mask_a.add(Rect{130, 0, 230, 100});  // 30 < dpt_space on one mask
  d.mask_b = Region{Rect{1000, 0, 1100, 100}};
  d.nodes = 3;
  const DptScore s = score_decomposition(d, tech());
  EXPECT_DOUBLE_EQ(s.spacing_score, 0.5);
  EXPECT_LT(s.composite, 1.0);
}

TEST(Rebalance, EqualizesMaskAreas) {
  // Four independent conflict pairs of very different sizes: the naive
  // coloring puts all big shapes on mask A.
  Decomposition d;
  d.nodes = 8;
  d.compliant = true;
  for (int i = 0; i < 4; ++i) {
    const Coord y = i * 5000;
    const Coord big = 400 + 300 * i;
    d.mask_a.add(Rect{0, y, big, y + big});          // growing squares
    d.mask_b.add(Rect{big + 60, y, big + 160, y + 100});  // small partners
  }
  const DptScore before = score_decomposition(d, tech());
  const Decomposition balanced = rebalance_masks(d, tech());
  const DptScore after = score_decomposition(balanced, tech());
  EXPECT_GT(after.density_balance, before.density_balance);
  // Legality and coverage are untouched.
  EXPECT_EQ(balanced.mask_a | balanced.mask_b, d.mask_a | d.mask_b);
  EXPECT_DOUBLE_EQ(after.spacing_score, 1.0);
  EXPECT_GT(after.composite, before.composite);
}

TEST(Rebalance, ConflictPairsNeverSplit) {
  // A conflicting pair must flip together or not at all.
  Decomposition d;
  d.nodes = 2;
  d.compliant = true;
  d.mask_a.add(Rect{0, 0, 1000, 1000});   // huge
  d.mask_b.add(Rect{1060, 0, 1160, 100}); // small, within dpt conflict range
  const Decomposition balanced = rebalance_masks(d, tech());
  // Whatever the assignment, the two shapes stay on opposite masks.
  const bool big_on_a = balanced.mask_a.contains({500, 500});
  const Region& small_mask = big_on_a ? balanced.mask_b : balanced.mask_a;
  EXPECT_TRUE(small_mask.contains({1100, 50}));
}

TEST(Rebalance, AlreadyBalancedIsStable) {
  Decomposition d;
  d.nodes = 2;
  d.mask_a = Region{Rect{0, 0, 100, 100}};
  d.mask_b = Region{Rect{5000, 0, 5100, 100}};
  const Decomposition balanced = rebalance_masks(d, tech());
  EXPECT_EQ(score_decomposition(balanced, tech()).density_balance, 1.0);
}

// bench_f5's defect design: a routed block with labelled pathologies
// (odd cycles among them) in a strip below the core.
Library defect_design(std::uint64_t seed) {
  DesignParams p;
  p.seed = seed;
  p.rows = 2;
  p.cells_per_row = 8;
  p.routes = 16;
  Library lib = generate_design(p);
  const std::uint32_t top = lib.top_cells()[0];
  Rng rng(seed ^ 0xD0D0);
  const Rect core = lib.bbox(top);
  inject_pathologies(lib.cell(top), rng, p.tech,
                     Rect{core.lo.x, core.lo.y - 60000, core.hi.x + 60000,
                          core.lo.y - 4000},
                     10);
  return lib;
}

Library plain_design(std::uint64_t seed) {
  DesignParams p;
  p.seed = seed;
  p.rows = 3;
  p.cells_per_row = 8;
  p.routes = 24;
  return generate_design(p);
}

// Units decomposed in any order on any number of threads assemble into
// the layer's decomposition, and the sum of their score partials
// finishes into the score of the whole masks (whose spacing check runs
// over both whole masks). The sorted merge of the units' masks is their
// Boolean union.
TEST(DptUnits, UnionEqualsWholeLayer) {
  const Tech& t = tech();
  bool defects = true;  // the first design has odd cycles and stitches
  for (const Library& lib : {defect_design(7), plain_design(11)}) {
    const LayoutSnapshot snap(lib, lib.top_cells()[0]);
    const LayerComponents& comps = snap.components(layers::kMetal1);
    const std::vector<std::vector<std::uint32_t>> units =
        dpt_units(comps, t.dpt_space);
    ASSERT_GT(units.size(), 1u);
    const Decomposition whole = decompose_dpt(snap, layers::kMetal1, t);
    const DptScore whole_score = score_decomposition(whole, t);
    if (std::exchange(defects, false)) {
      EXPECT_FALSE(whole.stitches.empty());
      EXPECT_GT(whole.unresolved, 0);
    }

    std::vector<std::size_t> order(units.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng rng(20261018);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform(0, static_cast<Coord>(i) - 1))]);
    }
    for (const unsigned threads : {1u, 8u}) {
      ThreadPool pool(threads);
      const std::vector<DptUnitResult> shuffled =
          parallel_map(&pool, order.size(), [&](std::size_t k) {
            Decomposition d = decompose_dpt_unit(comps, units[order[k]], t);
            const DptPartial partial = dpt_partial(d, t);
            return DptUnitResult{std::move(d), partial};
          });
      std::vector<const DptUnitResult*> by_unit(units.size());
      for (std::size_t k = 0; k < order.size(); ++k) {
        by_unit[order[k]] = &shuffled[k];
      }
      std::vector<const Decomposition*> parts;
      DptPartial sum;
      Region a, b;
      for (const DptUnitResult* r : by_unit) {
        parts.push_back(&r->decomposition);
        sum += r->partial;
        a.add(r->decomposition.mask_a);
        b.add(r->decomposition.mask_b);
      }
      const Decomposition assembled = assemble_dpt(parts);
      EXPECT_EQ(assembled, whole) << threads << " threads";
      EXPECT_EQ(finish(sum, t), whole_score) << threads << " threads";
      EXPECT_EQ(assembled.mask_a.rects(), (a | Region{}).rects());
      EXPECT_EQ(assembled.mask_b.rects(), (b | Region{}).rects());
    }
  }
}

// Corner-touching components share a unit (distance 0 links), so their
// same-mask spacing is checked within one unit; far ones do not.
TEST(DptUnits, CornerTouchingComponentsShareAUnit) {
  Region layer;
  layer.add(Rect{0, 0, 100, 100});
  layer.add(Rect{100, 100, 200, 200});  // corner contact only
  layer.add(Rect{1000, 0, 1100, 100});  // far away
  const LayerComponents comps = LayerComponents::of(layer);
  ASSERT_EQ(comps.regions.size(), 3u);
  const std::vector<std::vector<std::uint32_t>> units =
      dpt_units(comps, tech().dpt_space);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(units[1], (std::vector<std::uint32_t>{2}));
  const Decomposition d = decompose_dpt(layer, tech());
  EXPECT_EQ(score_decomposition(d, tech()), finish(dpt_partial(d, tech()), tech()));
}

// An odd cycle no cut can break stops only its own unit: a later unit's
// cycle still gets its stitch.
TEST(DptUnits, UnsplittableCycleStopsOnlyItsUnit) {
  Cell c{"c"};
  // Three 50-dbu squares pairwise 60 apart: every conflict zone covers a
  // whole square, so no cut separates two of them.
  c.add(layers::kMetal1, Rect{0, 0, 50, 50});
  c.add(layers::kMetal1, Rect{110, 0, 160, 50});
  c.add(layers::kMetal1, Rect{55, 110, 105, 160});
  inject_odd_cycle(c, tech(), {5000, 0});
  const Region layer = c.local_region(layers::kMetal1);
  const LayerComponents comps = LayerComponents::of(layer);
  const std::vector<std::vector<std::uint32_t>> units =
      dpt_units(comps, tech().dpt_space);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].size(), 3u);

  const Decomposition first = decompose_dpt_unit(comps, units[0], tech());
  EXPECT_FALSE(first.compliant);
  EXPECT_TRUE(first.stitches.empty());
  const Decomposition second = decompose_dpt_unit(comps, units[1], tech());
  EXPECT_TRUE(second.compliant);
  ASSERT_FALSE(second.stitches.empty());

  const Decomposition d = decompose_dpt(layer, tech());
  EXPECT_FALSE(d.compliant);
  EXPECT_EQ(d.unresolved, first.unresolved);
  EXPECT_EQ(d.stitches, second.stitches);
  for (const Stitch& st : d.stitches) EXPECT_GE(st.cut.lo.x, 4000);
}

}  // namespace
}  // namespace dfm

#include "layout/connectivity.h"

#include "core/snapshot.h"

#include "gen/generators.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace dfm {
namespace {

LayerMap stack_map(const Cell& c) {
  LayerMap m;
  for (const LayerKey k : {layers::kMetal1, layers::kVia1, layers::kMetal2}) {
    m.emplace(k, c.local_region(k));
  }
  return m;
}

TEST(Connectivity, TwoMetalsJoinedByVia) {
  Cell c{"c"};
  c.add(layers::kMetal1, Rect{0, 0, 1000, 60});
  c.add(layers::kMetal2, Rect{0, -500, 60, 500});
  c.add(layers::kVia1, Rect{5, 5, 55, 55});  // overlaps both
  const Netlist nets = extract_nets(LayoutSnapshot(stack_map(c)), standard_stack());
  ASSERT_EQ(nets.size(), 1u);
  EXPECT_NE(nets.nets[0].on(layers::kMetal1), nullptr);
  EXPECT_NE(nets.nets[0].on(layers::kMetal2), nullptr);
  EXPECT_NE(nets.nets[0].on(layers::kVia1), nullptr);
}

TEST(Connectivity, CrossingWithoutViaStaysSeparate) {
  Cell c{"c"};
  c.add(layers::kMetal1, Rect{0, 0, 1000, 60});
  c.add(layers::kMetal2, Rect{0, -500, 60, 500});  // crosses above, no via
  const Netlist nets = extract_nets(LayoutSnapshot(stack_map(c)), standard_stack());
  EXPECT_EQ(nets.size(), 2u);
}

TEST(Connectivity, ViaChainMergesManyShapes) {
  Cell c{"c"};
  // M1 bus, three stubs on M2, all strapped through vias onto the bus.
  c.add(layers::kMetal1, Rect{0, 0, 3000, 60});
  for (int i = 0; i < 3; ++i) {
    const Coord x = 200 + i * 1000;
    c.add(layers::kMetal2, Rect{x, -400, x + 60, 400});
    c.add(layers::kVia1, Rect{x + 5, 5, x + 55, 55});
  }
  const Netlist nets = extract_nets(LayoutSnapshot(stack_map(c)), standard_stack());
  ASSERT_EQ(nets.size(), 1u);
  EXPECT_EQ(nets.nets[0].on(layers::kMetal2)->components().size(), 3u);
}

TEST(Connectivity, SeparateNetsStaySeparate) {
  Cell c{"c"};
  for (int i = 0; i < 4; ++i) {
    const Coord y = i * 300;
    c.add(layers::kMetal1, Rect{0, y, 800, y + 60});
    c.add(layers::kMetal2, Rect{100, y, 160, y + 60});
    c.add(layers::kVia1, Rect{105, y + 5, 155, y + 55});
  }
  EXPECT_EQ(extract_nets(LayoutSnapshot(stack_map(c)), standard_stack()).size(), 4u);
}

TEST(Connectivity, GeneratedViaFieldNetCount) {
  Cell c{"v"};
  Rng rng(3);
  add_via_field(c, rng, Tech::standard(), {0, 0}, 30);
  // Every via has its own pads: 30 separate nets.
  EXPECT_EQ(extract_nets(LayoutSnapshot(stack_map(c)), standard_stack()).size(), 30u);
}

// Net order depends on the nets alone: re-slicing every layer into other
// rect decompositions, in shuffled order, yields the same nets in the
// same order, and that order is first-vertex order (the lowest stack
// layer first, then labelling order).
TEST(Connectivity, NetOrderIsCanonical) {
  DesignParams p;
  p.seed = 5;
  p.rows = 2;
  p.cells_per_row = 6;
  p.routes = 12;
  p.via_fields = 1;
  p.vias_per_field = 16;
  const Library lib = generate_design(p);
  const std::vector<StackLayer> stack = standard_stack();
  LayerMap m;
  for (const StackLayer& s : stack) {
    m.emplace(s.key, lib.flatten(lib.top_cells()[0], s.key));
  }
  NetKeys keys;
  const Netlist nets = extract_nets(LayoutSnapshot(LayerMap(m)), stack, &keys);
  ASSERT_GT(nets.size(), 10u);
  ASSERT_EQ(keys.size(), nets.size());

  for (const Coord slice : {7, 33, 120}) {
    SCOPED_TRACE("slice " + std::to_string(slice));
    Rng rng(static_cast<std::uint64_t>(slice));
    LayerMap sliced;
    for (const auto& [key, region] : m) {
      std::vector<Rect> pieces;
      for (const Rect& r : region.rects()) {
        // Vertical strips of width `slice`, each cut once horizontally.
        for (Coord x = r.lo.x; x < r.hi.x; x += slice) {
          const Coord x1 = std::min(x + slice, r.hi.x);
          const Coord ym = r.lo.y + (r.hi.y - r.lo.y) / 3;
          pieces.push_back(Rect{x, r.lo.y, x1, ym});
          pieces.push_back(Rect{x, ym, x1, r.hi.y});
        }
      }
      for (std::size_t i = pieces.size(); i > 1; --i) {
        std::swap(pieces[i - 1], pieces[rng.index(i)]);
      }
      sliced.emplace(key, Region(std::move(pieces)));
    }
    EXPECT_EQ(extract_nets(LayoutSnapshot(std::move(sliced)), stack), nets);
  }

  for (std::size_t i = 0; i < nets.size(); ++i) {
    const auto& [key, lowest] = nets.nets[i].pieces.front();
    std::size_t layer = 0;
    while (stack[layer].key != key) ++layer;
    EXPECT_EQ(keys[i]->layer, layer);
    EXPECT_EQ(keys[i]->vertex, lowest.components().front());
    if (i > 0) {
      EXPECT_TRUE(*keys[i - 1] < *keys[i]) << "net " << i;
    }
  }
}

TEST(FloatingCuts, FullyLandedViaIsClean) {
  Cell c{"c"};
  add_via(c, Tech::standard(), {0, 0}, ViaStyle::kSymmetric);
  EXPECT_TRUE(find_floating_cuts(LayoutSnapshot(stack_map(c)), standard_stack()).empty());
}

TEST(FloatingCuts, ViaOffThePadIsFlagged) {
  Cell c{"c"};
  c.add(layers::kMetal1, Rect{0, 0, 100, 100});
  c.add(layers::kMetal2, Rect{0, 0, 100, 100});
  c.add(layers::kVia1, Rect{80, 25, 130, 75});  // hangs off both pads
  const auto floating = find_floating_cuts(LayoutSnapshot(stack_map(c)), standard_stack());
  ASSERT_EQ(floating.size(), 1u);
  EXPECT_TRUE(floating[0].missing_below);
  EXPECT_TRUE(floating[0].missing_above);
}

TEST(FloatingCuts, ViaMissingOnlyTopMetal) {
  Cell c{"c"};
  c.add(layers::kMetal1, Rect{0, 0, 200, 200});
  c.add(layers::kVia1, Rect{50, 50, 100, 100});  // no M2 at all
  const auto floating = find_floating_cuts(LayoutSnapshot(stack_map(c)), standard_stack());
  ASSERT_EQ(floating.size(), 1u);
  EXPECT_FALSE(floating[0].missing_below);
  EXPECT_TRUE(floating[0].missing_above);
}

TEST(Net, AreaAccounting) {
  Cell c{"c"};
  c.add(layers::kMetal1, Rect{0, 0, 100, 100});
  c.add(layers::kMetal2, Rect{0, 0, 50, 50});
  c.add(layers::kVia1, Rect{10, 10, 40, 40});
  const Netlist nets = extract_nets(LayoutSnapshot(stack_map(c)), standard_stack());
  ASSERT_EQ(nets.size(), 1u);
  EXPECT_EQ(nets.nets[0].total_area(), 10000 + 2500 + 900);
  EXPECT_EQ(nets.nets[0].on(LayerKey{99, 0}), nullptr);
}

}  // namespace
}  // namespace dfm

// LayoutSnapshot: the shared analysis substrate. The contract under test:
// (a) layers are normalized by construction and identical to a fresh
// flatten, (b) every memoized derived product is bit-identical to the
// same computation done from scratch, (c) concurrent first access from
// many threads is race-free and returns one shared object, with exact
// cache accounting, and (d) the flow run over a snapshot reproduces the
// Library-path flow field for field.
#include "core/snapshot.h"

#include "core/delta.h"

#include "core/dfm_flow.h"
#include "core/parallel.h"
#include "core/telemetry.h"
#include "gen/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dfm {
namespace {

Library small_design(std::uint64_t seed) {
  DesignParams p;
  p.seed = seed;
  p.rows = 2;
  p.cells_per_row = 6;
  p.routes = 12;
  return generate_design(p);
}

TEST(LayoutSnapshot, LayersMatchFreshFlattenAndAreNormalized) {
  const Library lib = small_design(501);
  const auto top = lib.top_cells().front();
  const LayoutSnapshot snap(lib, top);

  // keys_ is recorded in layer-map (sorted) order; compare as a set.
  std::vector<LayerKey> expected = LayoutSnapshot::standard_flow_layers();
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(snap.layer_keys(), expected);
  Rect joined = Rect::empty();
  for (const LayerKey k : snap.layer_keys()) {
    ASSERT_TRUE(snap.has(k)) << to_string(k);
    const Region fresh = lib.flatten(top, k);
    EXPECT_TRUE(snap.layer(k).region() == fresh) << to_string(k);
    // Canonical form: identical rect lists, not just equal coverage.
    EXPECT_EQ(snap.layer(k).rects(), fresh.rects()) << to_string(k);
    joined = joined.join(snap.layer(k).bbox());
  }
  EXPECT_EQ(snap.bbox(), joined);
}

TEST(LayoutSnapshot, AbsentLayerIsEmptyViewAndDerivedAccessThrows) {
  const Library lib = small_design(502);
  const LayoutSnapshot snap(lib, lib.top_cells().front(),
                            {layers::kMetal1});
  EXPECT_FALSE(snap.has(layers::kMetal2));
  EXPECT_TRUE(snap.layer(layers::kMetal2).empty());
  EXPECT_THROW(snap.rtree(layers::kMetal2), std::out_of_range);
  EXPECT_THROW(snap.edges(layers::kMetal2), std::out_of_range);
  EXPECT_THROW(snap.density(layers::kMetal2, 2000), std::out_of_range);
}

TEST(LayoutSnapshot, DerivedProductsAreBitIdenticalToFreshComputation) {
  const Library lib = small_design(503);
  const auto top = lib.top_cells().front();
  const LayoutSnapshot snap(lib, top);

  for (const LayerKey k : snap.layer_keys()) {
    SCOPED_TRACE(to_string(k));
    const Region& layer = snap.layer(k);

    // R-tree: same query answers as a tree built from scratch.
    const RTree fresh_tree(layer.rects());
    const RTree& memo_tree = snap.rtree(k);
    ASSERT_EQ(memo_tree.size(), fresh_tree.size());
    const Rect chip = snap.bbox();
    const std::vector<Rect> windows = {
        chip, Rect{chip.lo.x, chip.lo.y, chip.lo.x + 3000, chip.lo.y + 3000},
        Rect{(chip.lo.x + chip.hi.x) / 2, (chip.lo.y + chip.hi.y) / 2,
             chip.hi.x, chip.hi.y},
        Rect{chip.hi.x + 100, chip.hi.y + 100, chip.hi.x + 200,
             chip.hi.y + 200}};
    for (const Rect& w : windows) {
      EXPECT_EQ(memo_tree.query(w), fresh_tree.query(w));
    }

    // Boundary edges: identical list, same order.
    const auto fresh_edges = boundary_edges(layer);
    const auto& memo_edges = snap.edges(k);
    ASSERT_EQ(memo_edges.size(), fresh_edges.size());
    for (std::size_t i = 0; i < memo_edges.size(); ++i) {
      EXPECT_EQ(memo_edges[i].seg, fresh_edges[i].seg);
      EXPECT_EQ(memo_edges[i].inside, fresh_edges[i].inside);
    }

    // Density grid: identical values over the snapshot bbox.
    for (const Coord tile : {2000, 5000}) {
      const DensityMap fresh_map = density_map(layer, snap.bbox(), tile);
      const DensityMap& memo_map = snap.density(k, tile);
      EXPECT_EQ(memo_map.window, fresh_map.window);
      EXPECT_EQ(memo_map.nx, fresh_map.nx);
      EXPECT_EQ(memo_map.ny, fresh_map.ny);
      EXPECT_EQ(memo_map.values, fresh_map.values);
    }
  }
}

// The memoized labelling is Region::components() byte for byte, and its
// 2x-grid users (spacing, CAA shorts) get exactly the components of the
// scaled layer by scaling each component.
TEST(LayoutSnapshot, ComponentsMemoMatchesRegionComponents) {
  const Library lib = small_design(77);
  const LayoutSnapshot snap(lib, lib.top_cells().front());
  for (const LayerKey k : {layers::kMetal1, layers::kMetal2, layers::kVia1}) {
    const Region& layer = snap.layer(k).region();
    const LayerComponents& memo = snap.components(k);
    const std::vector<Region> direct = layer.components();
    const std::vector<Region> direct2x = layer.scaled(2).components();
    ASSERT_EQ(memo.regions.size(), direct.size());
    ASSERT_EQ(direct2x.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(memo.regions[i].rects(), direct[i].rects());
      EXPECT_EQ(memo.boxes[i], direct[i].bbox());
      EXPECT_EQ(memo.regions[i].scaled(2).rects(), direct2x[i].rects());
    }
    EXPECT_EQ(&snap.components(k), &memo);  // built once
  }
  EXPECT_TRUE(snap.components(layers::kMetal2).regions.size() > 0);
  EXPECT_TRUE(snap.components(LayerKey{99, 0}).regions.empty());  // absent
}

// Components are charged to the budget, shared by clean layers of an
// IncrementalSnapshot and rebuilt for dirty ones.
TEST(LayoutSnapshot, ComponentsShareCleanLayersAndRebuildDirtyOnes) {
  const Library lib = small_design(78);
  const LayoutSnapshot base(lib, lib.top_cells().front());
  const std::size_t before = base.budget().current();
  const LayerComponents& m1 = base.components(layers::kMetal1);
  const LayerComponents& m2 = base.components(layers::kMetal2);
  EXPECT_GT(base.budget().current(), before);
  const Rect bb = base.bbox();
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{bb.lo.x + 10, bb.lo.y + 10, bb.lo.x + 60,
                              bb.lo.y + 60});
  const IncrementalSnapshot inc(base, d);
  EXPECT_EQ(&inc.components(layers::kMetal2), &m2);
  EXPECT_NE(&inc.components(layers::kMetal1), &m1);
  EXPECT_EQ(inc.components(layers::kMetal1).regions,
            inc.layer(layers::kMetal1).region().components());
}

TEST(LayoutSnapshot, CacheStatsCountEveryReadAndBuildOnce) {
  const Library lib = small_design(504);
  const LayoutSnapshot snap(lib, lib.top_cells().front(),
                            {layers::kMetal1, layers::kMetal2});
  EXPECT_EQ(snap.cache_stats().reads(), 0u);
  EXPECT_EQ(snap.cache_stats().builds(), 0u);

  snap.rtree(layers::kMetal1);
  snap.rtree(layers::kMetal1);
  snap.rtree(layers::kMetal2);
  snap.edges(layers::kMetal1);
  snap.edges(layers::kMetal1);
  snap.density(layers::kMetal1, 2000);
  snap.density(layers::kMetal1, 2000);  // hit: same (layer, tile)
  snap.density(layers::kMetal1, 4000);  // miss: new tile size

  const SnapshotCacheStats s = snap.cache_stats();
  EXPECT_EQ(s.rtree_reads, 3u);
  EXPECT_EQ(s.rtree_builds, 2u);
  EXPECT_EQ(s.edge_reads, 2u);
  EXPECT_EQ(s.edge_builds, 1u);
  EXPECT_EQ(s.density_reads, 3u);
  EXPECT_EQ(s.density_builds, 2u);
  EXPECT_EQ(s.hits(), s.reads() - s.builds());
}

TEST(LayoutSnapshot, ConcurrentFirstAccessYieldsOneSharedObject) {
  const Library lib = small_design(505);
  const LayoutSnapshot snap(lib, lib.top_cells().front());
  const LayerKey k = layers::kMetal1;

  constexpr int kThreads = 8;
  std::vector<const RTree*> trees(kThreads, nullptr);
  std::vector<const std::vector<BoundaryEdge>*> edges(kThreads, nullptr);
  std::vector<const DensityMap*> grids(kThreads, nullptr);
  {
    std::vector<std::thread> pack;
    pack.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      pack.emplace_back([&, i] {
        trees[static_cast<std::size_t>(i)] = &snap.rtree(k);
        edges[static_cast<std::size_t>(i)] = &snap.edges(k);
        grids[static_cast<std::size_t>(i)] = &snap.density(k, 3000);
      });
    }
    for (std::thread& t : pack) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(trees[static_cast<std::size_t>(i)], trees[0]);
    EXPECT_EQ(edges[static_cast<std::size_t>(i)], edges[0]);
    EXPECT_EQ(grids[static_cast<std::size_t>(i)], grids[0]);
  }

  // Exactly one build per product no matter how many racers.
  const SnapshotCacheStats s = snap.cache_stats();
  EXPECT_EQ(s.rtree_builds, 1u);
  EXPECT_EQ(s.edge_builds, 1u);
  EXPECT_EQ(s.density_builds, 1u);
  EXPECT_EQ(s.rtree_reads, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.edge_reads, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.density_reads, static_cast<std::uint64_t>(kThreads));
}

// A derived snapshot shares each clean layer's slot with its base, so
// readers racing through both reach one memo per product: one hydration
// of the source-backed geometry, one build of each product, one object.
TEST(LayoutSnapshot, ConcurrentFirstAccessThroughSharedSlot) {
  const Library lib = small_design(507);
  const LayoutSnapshot base(
      std::make_shared<LibrarySource>(std::make_shared<Library>(lib),
                                      lib.top_cells().front()),
      LayoutSnapshot::standard_flow_layers());
  const Rect bb = base.bbox();
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{bb.lo.x + 10, bb.lo.y + 10, bb.lo.x + 60,
                              bb.lo.y + 60});
  const IncrementalSnapshot inc(base, d);
  ASSERT_FALSE(inc.layer_dirty(layers::kMetal2));
  ASSERT_FALSE(inc.bbox_changed());
  const std::uint64_t hydrations = base.budget().hydrations();

  const LayerKey k = layers::kMetal2;
  constexpr int kThreads = 8;
  struct Seen {
    const Region* region = nullptr;
    const RTree* tree = nullptr;
    const std::vector<BoundaryEdge>* edges = nullptr;
    const DensityMap* grid = nullptr;
    const LayerComponents* components = nullptr;
  };
  std::vector<Seen> seen(kThreads);
  std::atomic<int> ready{0};
  {
    std::vector<std::thread> pack;
    pack.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      pack.emplace_back([&, i] {
        const LayoutSnapshot& snap = i % 2 == 0 ? base : inc;
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        Seen& s = seen[static_cast<std::size_t>(i)];
        s.region = &snap.layer(k).region();
        s.tree = &snap.rtree(k);
        s.edges = &snap.edges(k);
        s.grid = &snap.density(k, 3000);
        s.components = &snap.components(k);
      });
    }
    for (std::thread& t : pack) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    const Seen& s = seen[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.region, seen[0].region);
    EXPECT_EQ(s.tree, seen[0].tree);
    EXPECT_EQ(s.edges, seen[0].edges);
    EXPECT_EQ(s.grid, seen[0].grid);
    EXPECT_EQ(s.components, seen[0].components);
  }
  EXPECT_EQ(base.budget().hydrations(), hydrations + 1);
  EXPECT_EQ(base.budget().rehydrations(), 0u);
  const SnapshotCacheStats a = base.cache_stats();
  const SnapshotCacheStats b = inc.cache_stats();
  EXPECT_EQ(a.rtree_builds + b.rtree_builds, 1u);
  EXPECT_EQ(a.edge_builds + b.edge_builds, 1u);
  EXPECT_EQ(a.density_builds + b.density_builds, 1u);
  EXPECT_EQ(a.reads() + b.reads(), 3u * kThreads);
  EXPECT_EQ(seen[0].components->regions, seen[0].region->components());
}

TEST(LayoutSnapshot, LayerMapConstructorsMatchLibraryConstructor) {
  const Library lib = small_design(506);
  const auto top = lib.top_cells().front();
  LayerMap copy;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    copy.emplace(k, lib.flatten(top, k));
  }
  const LayoutSnapshot from_lib(lib, top);
  const LayoutSnapshot from_copy(copy);
  const LayoutSnapshot from_move(std::move(copy));
  EXPECT_EQ(from_copy.bbox(), from_lib.bbox());
  EXPECT_EQ(from_move.bbox(), from_lib.bbox());
  for (const LayerKey k : from_lib.layer_keys()) {
    EXPECT_TRUE(from_copy.layer(k).region() == from_lib.layer(k).region());
    EXPECT_TRUE(from_move.layer(k).region() == from_lib.layer(k).region());
  }
}

// ---- SnapshotSplice ---------------------------------------------------------
//
// An edited layer is spliced: its geometry is the base's rects away from
// the edit merged with a local re-sweep (edit_region), and its labelling
// keeps the base's components away from the edit and relabels the rest
// (LayerComponents::spliced). Both must equal the whole-layer results
// exactly, whatever the edit does to the canonical bands around it.

void expect_same_labelling(const LayerComponents& got,
                           const LayerComponents& want) {
  ASSERT_EQ(got.regions.size(), want.regions.size());
  for (std::size_t i = 0; i < want.regions.size(); ++i) {
    ASSERT_EQ(got.regions[i].rects(), want.regions[i].rects()) << i;
  }
  EXPECT_EQ(got.boxes, want.boxes);
  EXPECT_EQ(got.index.size(), want.index.size());
  EXPECT_EQ(got.index.memory_bytes(), want.index.memory_bytes());
  for (const Rect& box : want.boxes) {
    EXPECT_EQ(got.index.query(box), want.index.query(box));
  }
}

/// Splices the edit into `base` (whose labelling is `labels`), checks
/// the geometry and the labelling against the whole-layer results, and
/// returns the edited layer and its labelling for the next edit.
std::pair<Region, LayerComponents> expect_exact_splice(
    const Region& base, const LayerComponents& labels, const Region& removed,
    const Region& added) {
  const Region whole = (base - removed) | added;
  RegionEdit edit = edit_region(base, removed, added);
  EXPECT_EQ(edit.result.rects(), whole.rects());
  // The replaced rects are the base rects touching the edit, and the
  // local rects are the rest of the result.
  std::vector<Rect> kept;
  std::set_difference(base.rects().begin(), base.rects().end(),
                      edit.replaced.begin(), edit.replaced.end(),
                      std::back_inserter(kept));
  std::vector<Rect> rest;
  std::set_difference(whole.rects().begin(), whole.rects().end(),
                      kept.begin(), kept.end(), std::back_inserter(rest));
  EXPECT_EQ(edit.local, rest);
  LayerComponents spliced =
      LayerComponents::spliced(labels, edit.replaced, edit.local);
  expect_same_labelling(spliced, LayerComponents::of(whole));
  return {whole, std::move(spliced)};
}

Rect random_rect(std::mt19937_64& rng, const Rect& within, Coord max_side) {
  std::uniform_int_distribution<Coord> x(within.lo.x, within.hi.x);
  std::uniform_int_distribution<Coord> y(within.lo.y, within.hi.y);
  std::uniform_int_distribution<Coord> side(1, max_side);
  const Coord x0 = x(rng), y0 = y(rng);
  return Rect{x0, y0, x0 + side(rng), y0 + side(rng)};
}

const Rect& random_band(std::mt19937_64& rng, const Region& layer) {
  std::uniform_int_distribution<std::size_t> pick(0, layer.rects().size() - 1);
  return layer.rects()[pick(rng)];
}

// Every kind of edit, at random places of generated designs, chained so
// that later edits splice from spliced labellings.
TEST(SnapshotSplice, RandomEditsMatchTheWholeLayer) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const Library lib = small_design(seed);
    const LayoutSnapshot snap(lib, lib.top_cells().front());
    std::mt19937_64 rng(seed);
    for (const LayerKey k :
         {layers::kMetal1, layers::kMetal2, layers::kVia1}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + to_string(k));
      Region layer = snap.layer(k).region();
      LayerComponents labels = LayerComponents::of(layer);
      const Rect bb = layer.bbox();
      std::uniform_int_distribution<int> kind(0, 5);
      for (int step = 0; step < 24 && !layer.empty(); ++step) {
        const Rect& r = random_band(rng, layer);
        const Coord w = 1 + static_cast<Coord>(rng() % 200);
        const Coord h = 1 + static_cast<Coord>(rng() % 200);
        Region removed, added;
        switch (kind(rng)) {
          case 0:  // plain adds
            added.add(random_rect(rng, bb, 300));
            added.add(random_rect(rng, bb, 300));
            break;
          case 1:  // a vertical and a horizontal cut through a band
            if (r.width() > 2) {
              const Coord x =
                  r.lo.x + 1 + static_cast<Coord>(
                                   rng() % static_cast<std::uint64_t>(
                                               r.width() - 2));
              removed.add(Rect{x, r.lo.y - 5, x + 1, r.hi.y + 5});
            }
            if (r.height() > 2) {
              const Coord y =
                  r.lo.y + 1 + static_cast<Coord>(
                                   rng() % static_cast<std::uint64_t>(
                                               r.height() - 2));
              removed.add(Rect{r.lo.x, y, r.hi.x, y + 1});
            }
            break;
          case 2:  // touches a band at its corner only
            added.add(Rect{r.hi.x, r.hi.y, r.hi.x + w, r.hi.y + h});
            break;
          case 3:  // abuts a band with its y-interval: the bands may fuse
            added.add(Rect{r.hi.x, r.lo.y, r.hi.x + w, r.hi.y});
            break;
          case 4:  // removes a corner beside a band
            removed.add(Rect{r.hi.x, r.hi.y - h, r.hi.x + w, r.hi.y + h});
            break;
          default:  // removes a whole band and adds part of it back
            removed.add(r);
            added.add(Rect{r.lo.x, r.lo.y, r.lo.x + (r.width() + 1) / 2,
                           r.hi.y});
            break;
        }
        if (removed.empty() && added.empty()) continue;
        auto next = expect_exact_splice(layer, labels, removed, added);
        layer = std::move(next.first);
        labels = std::move(next.second);
      }
    }
  }
}

// Hand-made cases where the edit changes bands it does not overlap.
TEST(SnapshotSplice, BandsFuseAndSplitAroundTheEdit) {
  const Region far(Rect{0, 500, 40, 540});
  {  // an abutting add with the same y-interval fuses into one band
    Region base = far;
    base.add(Rect{0, 0, 10, 10});
    const Region added(Rect{10, 0, 20, 10});
    expect_exact_splice(base, LayerComponents::of(base), Region{}, added);
    EXPECT_EQ(((base - Region{}) | added).rect_count(), 2u);
  }
  {  // a remove leaves an interval equal to its x-neighbour's: they fuse
    Region base = far;
    base.add(Rect{0, 0, 10, 10});
    base.add(Rect{10, 0, 20, 20});
    const Region removed(Rect{10, 10, 20, 20});
    ASSERT_EQ(base.rect_count(), 3u);
    expect_exact_splice(base, LayerComponents::of(base), removed, Region{});
    EXPECT_EQ((base - removed).rect_count(), 2u);
  }
  {  // a remove splits one band, and its component, in two
    Region base = far;
    base.add(Rect{0, 0, 30, 10});
    const Region removed(Rect{10, 0, 20, 10});
    const auto next =
        expect_exact_splice(base, LayerComponents::of(base), removed, Region{});
    EXPECT_EQ(next.second.regions.size(), 3u);
  }
  {  // a corner-touching add stays its own component
    Region base = far;
    base.add(Rect{0, 0, 10, 10});
    const Region added(Rect{10, 10, 20, 20});
    const auto next =
        expect_exact_splice(base, LayerComponents::of(base), Region{}, added);
    EXPECT_EQ(next.second.regions.size(), 3u);
  }
  {  // an add bridging two components merges them
    Region base = far;
    base.add(Rect{0, 0, 10, 10});
    base.add(Rect{20, 0, 30, 10});
    const Region added(Rect{10, 2, 20, 8});
    const auto next =
        expect_exact_splice(base, LayerComponents::of(base), Region{}, added);
    EXPECT_EQ(next.second.regions.size(), 2u);
  }
  // an edit of an empty layer
  expect_exact_splice(Region{}, LayerComponents{}, Region(Rect{0, 0, 5, 5}),
                      Region(Rect{3, 3, 9, 9}));
}

/// How many labellings `read` spliced rather than built whole.
template <class Read>
std::size_t splices_during(Read&& read) {
  namespace telem = ::dfm::telemetry;
  telem::set_enabled(false);
  telem::clear();
  telem::set_enabled(true);
  read();
  telem::set_enabled(false);
  std::size_t n = 0;
  for (const telem::ThreadTrace& t : telem::drain().threads) {
    for (const telem::SpanEvent& e : t.events) {
      if (std::string(e.name) == "snapshot/components_splice") ++n;
    }
  }
  telem::clear();
  return n;
}

// Through the snapshot: the derived layer and its labelling equal the
// whole-layer results for edits that move the bbox and edits of a layer
// the base lacks, and the splice path runs only when the base holds its
// labelling.
TEST(SnapshotSplice, DerivedLayersMatchTheWholeLayer) {
  const Library lib = small_design(21);
  const LayoutSnapshot base(lib, lib.top_cells().front());
  const LayerKey absent{99, 0};
  ASSERT_FALSE(base.has(absent));
  const Rect bb = base.bbox();
  base.components(layers::kMetal1);
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{bb.hi.x - 50, bb.hi.y - 50, bb.hi.x + 300,
                              bb.hi.y + 20});  // moves the bbox
  d.remove(layers::kMetal1, Rect{bb.lo.x, bb.lo.y, bb.lo.x + 400,
                                 bb.lo.y + 400});
  d.remove(layers::kMetal2, Rect{bb.lo.x, bb.lo.y, bb.lo.x + 400,
                                 bb.lo.y + 400});  // labelling not built
  d.add(absent, Rect{0, 0, 100, 100});
  const IncrementalSnapshot inc(base, d);
  ASSERT_TRUE(inc.bbox_changed());
  for (const LayerKey k : {layers::kMetal1, layers::kMetal2, absent}) {
    SCOPED_TRACE(to_string(k));
    const LayerDelta& e = *d.find(k);
    const Region whole = (base.layer(k).region() - e.removed) | e.added;
    EXPECT_EQ(inc.layer(k).rects(), whole.rects());
    const std::size_t splices = splices_during([&] {
      expect_same_labelling(inc.components(k), LayerComponents::of(whole));
    });
    EXPECT_EQ(splices, k == layers::kMetal1 ? 1u : 0u);
  }
}

// The splice never rehydrates the base's labelling: evicted there, the
// dirty slot builds whole, with the same result.
TEST(SnapshotSplice, EvictedBaseLabellingBuildsWhole) {
  const Library lib = small_design(22);
  const LayoutSnapshot base(
      std::make_shared<LibrarySource>(std::make_shared<Library>(lib),
                                      lib.top_cells().front()),
      LayoutSnapshot::standard_flow_layers());
  const LayerKey k = layers::kMetal1;
  const Rect bb = base.bbox();
  LayoutDelta d;
  d.add(k, Rect{bb.lo.x + 10, bb.lo.y + 10, bb.lo.x + 260, bb.lo.y + 60});
  base.components(k);
  const IncrementalSnapshot evicted(base, d);
  base.budget().set_limit(1);
  base.evict_to_budget({});  // drops the base's labelling and geometry
  ASSERT_EQ(base.budget().rehydrations(), 0u);
  base.budget().set_limit(0);
  const LayerComponents want =
      LayerComponents::of(evicted.layer(k).region());
  EXPECT_EQ(splices_during([&] { expect_same_labelling(evicted.components(k),
                                                       want); }),
            0u);
  EXPECT_EQ(base.budget().rehydrations(), 0u);
  // Derived after the eviction: no splice is kept at all.
  const IncrementalSnapshot later(base, d);
  const std::uint64_t geometry_only = base.budget().rehydrations();
  EXPECT_EQ(splices_during([&] { expect_same_labelling(later.components(k),
                                                       want); }),
            0u);
  EXPECT_EQ(base.budget().rehydrations(), geometry_only);

  // With the labelling resident again, a fresh derive splices.
  base.components(k);
  const IncrementalSnapshot again(base, d);
  EXPECT_EQ(splices_during([&] { expect_same_labelling(again.components(k),
                                                       want); }),
            1u);
}

// Eight pool threads race to the first read of a spliced labelling: one
// splice runs, and every reader gets the one object it built.
TEST(SnapshotSplice, ConcurrentFirstAccessSplicesOnce) {
  const Library lib = small_design(23);
  const LayoutSnapshot base(lib, lib.top_cells().front());
  const LayerKey k = layers::kMetal1;
  const Rect bb = base.bbox();
  base.components(k);
  LayoutDelta d;
  d.add(k, Rect{bb.lo.x + 10, bb.lo.y + 10, bb.lo.x + 260, bb.lo.y + 60});
  const IncrementalSnapshot inc(base, d);

  constexpr unsigned kThreads = 8;
  ThreadPool pool(kThreads);
  std::vector<const LayerComponents*> seen(kThreads, nullptr);
  const std::size_t splices = splices_during([&] {
    pool.parallel_for(kThreads,
                      [&](std::size_t i) { seen[i] = &inc.components(k); });
  });
  EXPECT_EQ(splices, 1u);
  for (const LayerComponents* c : seen) EXPECT_EQ(c, seen[0]);
  expect_same_labelling(*seen[0],
                        LayerComponents::of(inc.layer(k).region()));
}

// ---- Flow over a snapshot -------------------------------------------------

DfmFlowOptions flow_options(unsigned threads) {
  DfmFlowOptions opt;
  opt.tech = Tech::standard();
  opt.model.sigma = 25;
  opt.model.px = 5;
  opt.litho_tile = 4000;
  opt.threads = threads;
  return opt;
}

void expect_same_report(const DfmFlowReport& a, const DfmFlowReport& b) {
  ASSERT_EQ(a.scorecard.metrics.size(), b.scorecard.metrics.size());
  for (std::size_t i = 0; i < a.scorecard.metrics.size(); ++i) {
    EXPECT_EQ(a.scorecard.metrics[i].name, b.scorecard.metrics[i].name);
    EXPECT_EQ(a.scorecard.metrics[i].value, b.scorecard.metrics[i].value)
        << a.scorecard.metrics[i].name;
    EXPECT_EQ(a.scorecard.metrics[i].detail, b.scorecard.metrics[i].detail)
        << a.scorecard.metrics[i].name;
  }
  EXPECT_EQ(a.scorecard.composite(), b.scorecard.composite());
  EXPECT_EQ(a.drcplus.drc.violations.size(), b.drcplus.drc.violations.size());
  EXPECT_EQ(a.drcplus.pattern_match_count(), b.drcplus.pattern_match_count());
  EXPECT_EQ(a.hotspots.size(), b.hotspots.size());
  EXPECT_EQ(a.nets.size(), b.nets.size());
  EXPECT_EQ(a.floating_cuts.size(), b.floating_cuts.size());
  EXPECT_EQ(a.lambda_shorts, b.lambda_shorts);
  EXPECT_EQ(a.lambda_opens, b.lambda_opens);
  EXPECT_EQ(a.defect_yield, b.defect_yield);
  EXPECT_EQ(a.via_yield_before, b.via_yield_before);
  EXPECT_EQ(a.via_yield_after, b.via_yield_after);
}

TEST(FlowOverSnapshot, MatchesLibraryPathAtEveryThreadCount) {
  const Library lib = small_design(507);
  const auto top = lib.top_cells().front();
  const DfmFlowReport via_lib = run_dfm_flow(lib, top, flow_options(1));
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const LayoutSnapshot snap(lib, top, &pool);
    const DfmFlowReport via_snap = run_dfm_flow(snap, flow_options(threads));
    expect_same_report(via_lib, via_snap);
  }
}

TEST(FlowTraceTest, AccountsForEveryPassAndCacheActivity) {
  const Library lib = small_design(508);
  const DfmFlowReport rep =
      run_dfm_flow(lib, lib.top_cells().front(), flow_options(2));
  const FlowTrace& trace = rep.trace;

  ASSERT_FALSE(trace.passes.empty());
  for (const char* name : {"snapshot", "drc_plus", "recommended", "dpt",
                           "via_doubling", "connectivity", "caa_yield"}) {
    EXPECT_NE(trace.find(name), nullptr) << name;
  }
  EXPECT_GT(trace.total_ms, 0.0);
  // Passes nest inside the total; allow scheduling jitter headroom.
  EXPECT_LE(trace.passes_ms(), trace.total_ms * 1.10);

  // The shared substrate paid off: more reads than builds. Skip the
  // hits check under a budget (DFMKIT_SNAPSHOT_BUDGET, e.g. the CI
  // memory-budget job): a budgeted flow captures patterns through the
  // streamed window path and never re-reads a derived product, so zero
  // hits is the expected accounting there, not a caching break.
  EXPECT_GT(trace.cache.builds(), 0u);
  if (resolved_memory_budget(flow_options(2)) == 0) {
    EXPECT_GT(trace.cache.hits(), 0u);
  }
  EXPECT_EQ(trace.cache.reads(), trace.cache.hits() + trace.cache.builds());

  // The JSON emitter covers every pass and stays parseable-by-eye.
  const std::string json = flow_trace_json(rep);
  EXPECT_NE(json.find("\"total_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"drc_plus\""), std::string::npos);
  EXPECT_NE(json.find("\"scorecard\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
}

}  // namespace
}  // namespace dfm

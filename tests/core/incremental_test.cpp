// Incremental re-analysis: LayoutDelta / IncrementalSnapshot semantics
// and the hard flow guarantee — a DfmFlowSession report after any edit
// sequence is bit-identical to a cold run over the edited layout, at
// every thread count.
#include "core/incremental.h"

#include "splice_streams.h"
#include "gen/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dfm {
namespace {

LayerMap flow_layers(const Library& lib, std::uint32_t top) {
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, lib.flatten(top, k));
  }
  return m;
}

LayerMap small_design(std::uint64_t seed) {
  DesignParams p;
  p.seed = seed;
  p.rows = 2;
  p.cells_per_row = 4;
  p.routes = 8;
  p.via_fields = 1;
  p.vias_per_field = 16;
  const Library lib = generate_design(p);
  return flow_layers(lib, lib.top_cells()[0]);
}

DfmFlowOptions fast_options(unsigned threads, bool litho = false) {
  DfmFlowOptions o;
  o.threads = threads;
  o.tech = Tech::standard();
  o.model.sigma = 20;
  o.model.px = 10;  // coarse raster: litho correctness, not resolution
  o.litho_tile = 6000;
  o.run_litho = litho;
  return o;
}

/// Shrinks `bb` towards its centre, by at most `d` per side but never
/// past a quarter of the extent, so the result stays a valid rect even
/// on small designs.
Rect interior(const Rect& bb, Coord d = 1500) {
  const Coord dx = std::min(d, (bb.hi.x - bb.lo.x) / 4);
  const Coord dy = std::min(d, (bb.hi.y - bb.lo.y) / 4);
  return Rect{bb.lo.x + dx, bb.lo.y + dy, bb.hi.x - dx, bb.hi.y - dy};
}

/// A 40-400 dbu patch on `layer` strictly inside `core`, added or (30%)
/// removed.
LayoutDelta patch_on(Rng& rng, const Rect& core, LayerKey layer) {
  const Coord w = rng.uniform(40, 400);
  const Coord h = rng.uniform(40, 400);
  const Coord x = rng.uniform(core.lo.x, core.hi.x - w);
  const Coord y = rng.uniform(core.lo.y, core.hi.y - h);
  LayoutDelta d;
  if (rng.chance(0.3)) {
    d.remove(layer, Rect{x, y, x + w, y + h});
  } else {
    d.add(layer, Rect{x, y, x + w, y + h});
  }
  return d;
}

/// A random edit strictly inside `core` (so the joint bbox is stable and
/// the incremental path never falls back to a full re-run).
LayoutDelta random_edit(Rng& rng, const Rect& core) {
  static const std::vector<LayerKey> kEditable = {
      layers::kMetal1, layers::kMetal2, layers::kVia1};
  const LayerKey layer = rng.pick(kEditable);
  return patch_on(rng, core, layer);
}

TEST(LayoutDelta, ApplyMatchesSetAlgebra) {
  LayerMap m;
  m.emplace(layers::kMetal1, Region{Rect{0, 0, 100, 100}});
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{50, 0, 150, 100});
  d.remove(layers::kMetal1, Rect{0, 0, 20, 100});
  d.add(layers::kMetal2, Rect{0, 0, 10, 10});  // creates the layer
  d.apply(m);
  const Region want_m1 = (Region{Rect{0, 0, 100, 100}} -
                          Region{Rect{0, 0, 20, 100}}) |
                         Region{Rect{50, 0, 150, 100}};
  const Region want_m2{Rect{0, 0, 10, 10}};
  EXPECT_EQ(m.at(layers::kMetal1), want_m1);
  EXPECT_EQ(m.at(layers::kMetal2), want_m2);
}

TEST(LayoutDelta, EmptyEditsDirtyNothing) {
  LayoutDelta d;
  d.add(layers::kMetal1, Region{});
  d.remove(layers::kMetal2, Rect::empty());
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.dirties(layers::kMetal1));
}

TEST(IncrementalSnapshot, CleanLayersShareDerivedProducts) {
  LayerMap m = small_design(3);
  const LayoutSnapshot base(std::move(m));
  // Build the base's M2 R-tree, then derive with an M1-only edit: the
  // M2 tree must be a cache hit under the derived snapshot too.
  (void)base.rtree(layers::kMetal2);
  LayoutDelta d;
  const Rect inside = base.bbox().expanded(-1000);
  d.add(layers::kMetal1, Rect{inside.lo.x, inside.lo.y, inside.lo.x + 100,
                              inside.lo.y + 100});
  const IncrementalSnapshot inc(base, d);
  EXPECT_TRUE(inc.layer_dirty(layers::kMetal1));
  EXPECT_FALSE(inc.layer_dirty(layers::kMetal2));
  EXPECT_FALSE(inc.bbox_changed());
  const auto before = inc.cache_stats();
  (void)inc.rtree(layers::kMetal2);
  const auto after = inc.cache_stats();
  EXPECT_EQ(after.builds() - before.builds(), 0u)
      << "clean layer must reuse the base's memoized R-tree";
}

// A clean layer is the base's slot itself: the same region object, not a
// copy, charged to the budget once. Only the dirty layer is new state.
TEST(IncrementalSnapshot, CleanLayersShareTheSlot) {
  const LayoutSnapshot base(small_design(5));
  const std::size_t bytes = base.budget().current();
  const std::uint64_t hydrations = base.budget().hydrations();
  LayoutDelta d;
  const Rect inside = base.bbox().expanded(-1000);
  d.add(layers::kMetal1, Rect{inside.lo.x, inside.lo.y, inside.lo.x + 100,
                              inside.lo.y + 100});
  const IncrementalSnapshot inc(base, d);
  ASSERT_FALSE(inc.bbox_changed());
  for (const LayerKey k : base.layer_keys()) {
    if (inc.layer_dirty(k)) continue;
    EXPECT_EQ(&inc.layer(k).region(), &base.layer(k).region())
        << to_string(k);
  }
  EXPECT_NE(&inc.layer(layers::kMetal1).region(),
            &base.layer(layers::kMetal1).region());
  EXPECT_EQ(base.budget().current() - bytes,
            inc.layer(layers::kMetal1).rects().size() * sizeof(Rect))
      << "only the dirty layer is charged";
  EXPECT_EQ(base.budget().hydrations() - hydrations, 1u);
}

TEST(IncrementalSnapshot, DirtyLayerEqualsColdNormalization) {
  LayerMap m = small_design(4);
  const Rect inside = interior(Region(m.at(layers::kMetal1)).bbox(), 2000);
  LayoutDelta d;
  d.add(layers::kMetal1,
        Rect{inside.lo.x, inside.lo.y, inside.lo.x + 500, inside.lo.y + 60});
  d.remove(layers::kMetal1, Rect{inside.hi.x - 400, inside.hi.y - 400,
                                 inside.hi.x, inside.hi.y});

  const LayoutSnapshot base(m);
  const IncrementalSnapshot inc(base, d);
  d.apply(m);
  const LayoutSnapshot cold(std::move(m));
  EXPECT_EQ(inc.layer(layers::kMetal1).region(),
            cold.layer(layers::kMetal1).region());
  EXPECT_EQ(inc.layer(layers::kMetal1).rects(),
            cold.layer(layers::kMetal1).rects())
      << "canonical decomposition must match a from-scratch normalize";
}

TEST(IncrementalSnapshot, BboxMovingEditReportsIt) {
  LayerMap m;
  m.emplace(layers::kMetal1, Region{Rect{0, 0, 1000, 1000}});
  const LayoutSnapshot base(std::move(m));
  LayoutDelta grow;
  grow.add(layers::kMetal1, Rect{2000, 0, 3000, 1000});
  EXPECT_TRUE(IncrementalSnapshot(base, grow).bbox_changed());
  LayoutDelta inner;
  inner.add(layers::kMetal1, Rect{100, 100, 200, 200});
  EXPECT_FALSE(IncrementalSnapshot(base, inner).bbox_changed());
}

TEST(CanonicalFlowPass, ResolvesAliases) {
  EXPECT_EQ(canonical_flow_pass("drc"), "drc_plus");
  EXPECT_EQ(canonical_flow_pass("vias"), "via_doubling");
  EXPECT_EQ(canonical_flow_pass("caa"), "caa_yield");
  EXPECT_EQ(canonical_flow_pass("nets"), "connectivity");
  EXPECT_EQ(canonical_flow_pass("litho"), "litho");
  EXPECT_EQ(canonical_flow_pass("bogus"), "");
}

TEST(DfmFlow, PassSubsetRunsOnlyRequestedPasses) {
  LayerMap m = small_design(5);
  DfmFlowOptions opt = fast_options(1);
  opt.passes = {"drc", "vias"};
  const DfmFlowReport rep = run_dfm_flow(LayoutSnapshot(std::move(m)), opt);
  EXPECT_NE(rep.trace.find("drc_plus"), nullptr);
  EXPECT_NE(rep.trace.find("via_doubling"), nullptr);
  EXPECT_EQ(rep.trace.find("dpt"), nullptr);
  EXPECT_EQ(rep.trace.find("connectivity"), nullptr);
  EXPECT_TRUE(rep.nets.nets.empty());
}

TEST(DfmFlow, CaaPullsInConnectivity) {
  LayerMap m = small_design(5);
  DfmFlowOptions opt = fast_options(1);
  opt.passes = {"caa"};
  const DfmFlowReport rep = run_dfm_flow(LayoutSnapshot(std::move(m)), opt);
  EXPECT_NE(rep.trace.find("connectivity"), nullptr);
  EXPECT_NE(rep.trace.find("caa_yield"), nullptr);
  EXPECT_GT(rep.defect_yield, 0.0);
}

TEST(ReportsEquivalent, DetectsDifferences) {
  LayerMap m = small_design(6);
  const DfmFlowReport a =
      run_dfm_flow(LayoutSnapshot(LayerMap(m)), fast_options(1));
  DfmFlowReport b = run_dfm_flow(LayoutSnapshot(std::move(m)), fast_options(1));
  EXPECT_TRUE(reports_equivalent(a, b));
  b.defect_yield += 1e-9;
  EXPECT_FALSE(reports_equivalent(a, b));
}

TEST(DfmFlowSession, EmptyDeltaReusesEverything) {
  const LayerMap m = small_design(7);
  DfmFlowSession session(m, fast_options(2));
  const DfmFlowReport cold = session.report();
  const DfmFlowReport& warm = session.apply(LayoutDelta{});
  EXPECT_TRUE(reports_equivalent(cold, warm));
  for (const PassTrace& p : warm.trace.passes) {
    EXPECT_EQ(p.dirty_units, 0u) << p.name;
    EXPECT_TRUE(p.incremental) << p.name;
    if (p.total_units > 0) {
      EXPECT_DOUBLE_EQ(p.reuse_ratio(), 1.0) << p.name;
    }
  }
}

TEST(DfmFlowSession, TraceRecordsPartialDamage) {
  const LayerMap m = small_design(8);
  DfmFlowSession session(m, fast_options(1));
  const Rect inside =
      interior(Region(m.at(layers::kMetal1)).bbox(), 2000);
  LayoutDelta d;
  d.add(layers::kMetal2,
        Rect{inside.lo.x, inside.lo.y, inside.lo.x + 300, inside.lo.y + 60});
  const DfmFlowReport& rep = session.apply(d);
  const PassTrace* drc = rep.trace.find("drc_plus");
  ASSERT_NE(drc, nullptr);
  EXPECT_TRUE(drc->incremental);
  EXPECT_GT(drc->total_units, 0u);
  EXPECT_LT(drc->dirty_units, drc->total_units)
      << "an M2-only edit must not recheck every unit";
  // M1-only dpt must be spliced wholesale.
  const PassTrace* dpt = rep.trace.find("dpt");
  ASSERT_NE(dpt, nullptr);
  EXPECT_EQ(dpt->dirty_units, 0u);
}

// The tentpole property: 100 random edits, sessions at 1/2/8 threads,
// every report bit-identical across thread counts, and identical to a
// cold run over the shadow layout at checkpoints.
TEST(DfmFlowSession, HundredRandomEditsMatchColdAtEveryThreadCount) {
  const LayerMap base = small_design(11);
  LayerMap shadow = base;
  DfmFlowSession s1(base, fast_options(1));
  DfmFlowSession s2(base, fast_options(2));
  DfmFlowSession s8(base, fast_options(8));
  ASSERT_TRUE(reports_equivalent(s1.report(), s2.report()));
  ASSERT_TRUE(reports_equivalent(s1.report(), s8.report()));
  {
    const DfmFlowReport cold =
        run_dfm_flow(LayoutSnapshot(LayerMap(shadow)), fast_options(1));
    ASSERT_TRUE(reports_equivalent(s1.report(), cold));
  }

  Rng rng(20260806);
  const Rect core = interior(s1.snapshot().bbox());
  for (int i = 0; i < 100; ++i) {
    const LayoutDelta d = random_edit(rng, core);
    d.apply(shadow);
    const DfmFlowReport& r1 = s1.apply(d);
    const DfmFlowReport& r2 = s2.apply(d);
    const DfmFlowReport& r8 = s8.apply(d);
    ASSERT_TRUE(reports_equivalent(r1, r2)) << "edit " << i;
    ASSERT_TRUE(reports_equivalent(r1, r8)) << "edit " << i;
    if (i % 10 == 9) {
      const DfmFlowReport cold =
          run_dfm_flow(LayoutSnapshot(LayerMap(shadow)), fast_options(1));
      ASSERT_TRUE(reports_equivalent(r1, cold)) << "after edit " << i;
    }
  }
}

// Same property with the litho pass on: per-tile splicing must stay
// bit-identical to the cold tiled simulation. Fewer edits — every cold
// checkpoint re-simulates the whole layout.
TEST(DfmFlowSession, LithoTileSplicingMatchesCold) {
  const LayerMap base = small_design(12);
  LayerMap shadow = base;
  DfmFlowSession s1(base, fast_options(1, /*litho=*/true));
  DfmFlowSession s2(base, fast_options(2, /*litho=*/true));
  Rng rng(77);
  const Rect core = interior(s1.snapshot().bbox());
  for (int i = 0; i < 9; ++i) {
    LayoutDelta d = random_edit(rng, core);
    // Bias towards M1 so the litho pass sees real damage. The stripe
    // spans core's full height and steps across its width, wrapping so
    // it never escapes the joint bbox.
    if (i % 3 == 0) {
      d = LayoutDelta{};
      const Coord span = core.hi.x - core.lo.x - 200;
      const Coord x = core.lo.x + (i * 800) % span;
      d.add(layers::kMetal1, Rect{x, core.lo.y, x + 200, core.hi.y});
    }
    d.apply(shadow);
    const DfmFlowReport& r1 = s1.apply(d);
    const DfmFlowReport& r2 = s2.apply(d);
    ASSERT_TRUE(reports_equivalent(r1, r2)) << "edit " << i;
    if (i % 3 == 2) {
      const DfmFlowReport cold = run_dfm_flow(
          LayoutSnapshot(LayerMap(shadow)), fast_options(1, /*litho=*/true));
      ASSERT_TRUE(reports_equivalent(r1, cold)) << "after edit " << i;
    }
  }
  const PassTrace* litho = s1.report().trace.find("litho");
  ASSERT_NE(litho, nullptr);
  EXPECT_TRUE(litho->incremental);
}

TEST(DfmFlowSession, BboxMovingEditFallsBackToFullRun) {
  const LayerMap base = small_design(13);
  LayerMap shadow = base;
  DfmFlowSession session(base, fast_options(2));
  LayoutDelta d;
  const Rect bb = session.snapshot().bbox();
  d.add(layers::kMetal1, Rect{bb.hi.x + 5000, bb.lo.y, bb.hi.x + 5400,
                              bb.lo.y + 2000});
  d.apply(shadow);
  const DfmFlowReport& rep = session.apply(d);
  const DfmFlowReport cold =
      run_dfm_flow(LayoutSnapshot(std::move(shadow)), fast_options(1));
  EXPECT_TRUE(reports_equivalent(rep, cold));
  const PassTrace* drc = rep.trace.find("drc_plus");
  ASSERT_NE(drc, nullptr);
  EXPECT_EQ(drc->dirty_units, drc->total_units)
      << "a bbox-moving edit must degrade to a full re-run";
}

// caa_yield splices the M1 layer-local shorts term per grid tile (m1),
// the M2 net-aware shorts term per grid tile (keyed on the nets the
// connectivity splice changed), and M2 opens (m2) as one unit. One edit
// per layer, in sequence on one session, so each run sums terms cached
// by earlier runs with the ones it recomputes; every report must equal a
// cold flow with the CAA doubles bit-equal, and the trace must show
// which units ran.
class CaaSplice : public ::testing::TestWithParam<unsigned> {};

std::size_t caa_dirty_units(const DfmFlowReport& rep, std::size_t tiles) {
  const PassTrace* caa = rep.trace.find("caa_yield");
  EXPECT_NE(caa, nullptr);
  if (caa == nullptr) return 0;
  EXPECT_EQ(caa->total_units, 2 * tiles + 1);
  return caa->dirty_units;
}

/// The M1 tiles an M1 edit `patch` makes stale, counted the way the
/// pass defines them: cells the patch grown by the largest defect's
/// half-width (rounded up) touches, and cells under any edited component
/// touching the patch, grown the same way.
std::size_t m1_tiles_reached(const LayerMap& edited, const Rect& patch,
                             const DfmFlowOptions& opt) {
  const LayoutSnapshot snap{LayerMap(edited)};
  const TileGrid grid(snap.bbox(), opt.tech.density_tile);
  const Coord reach = (opt.defects.xmax + 1) / 2;
  std::vector<char> hit(grid.size(), 0);
  std::vector<Rect> reached = {patch.expanded(reach)};
  const LayerComponents& comps = snap.components(layers::kMetal1);
  for (std::size_t i = 0; i < comps.regions.size(); ++i) {
    for (const Rect& r : comps.regions[i].rects()) {
      if (r.touches(patch)) {
        reached.push_back(comps.boxes[i].expanded(reach));
        break;
      }
    }
  }
  for (std::size_t t = 0; t < grid.size(); ++t) {
    for (const Rect& r : reached) {
      if (grid.cell(t).touches(r)) hit[t] = 1;
    }
  }
  return static_cast<std::size_t>(std::count(hit.begin(), hit.end(), 1));
}

/// The M2 net-aware tiles an edit `patch` (before -> after) makes stale,
/// counted the way the pass defines them: cells within half the largest
/// of the term's 16 defect sizes (rounded up) of the M2 bbox of a net the
/// edit changes. Those are the old nets with a piece touching the patch
/// (they dissolve) and the new nets that are not one of the old nets
/// left alone (they are re-extracted).
std::size_t m2_tiles_reached(const LayerMap& before, const LayerMap& after,
                             const Rect& patch, const DfmFlowOptions& opt) {
  const LayoutSnapshot old_snap{LayerMap(before)};
  const LayoutSnapshot new_snap{LayerMap(after)};
  const TileGrid grid(new_snap.bbox(), opt.tech.density_tile);
  const std::vector<Coord> sizes = defect_size_grid(opt.defects, 16);
  const Coord reach = (*std::max_element(sizes.begin(), sizes.end()) + 1) / 2;
  std::vector<Rect> reached;
  const auto reach_m2 = [&](const Net& net) {
    if (const Region* m2 = net.on(layers::kMetal2)) {
      reached.push_back(m2->bbox().expanded(reach));
    }
  };
  std::vector<Net> untouched;
  for (const Net& net : extract_nets(old_snap, standard_stack()).nets) {
    bool touched = false;
    for (const auto& [key, piece] : net.pieces) {
      for (const Rect& r : piece.rects()) touched = touched || r.touches(patch);
    }
    if (touched) {
      reach_m2(net);
    } else {
      untouched.push_back(net);
    }
  }
  for (const Net& net : extract_nets(new_snap, standard_stack()).nets) {
    if (std::find(untouched.begin(), untouched.end(), net) == untouched.end()) {
      reach_m2(net);
    }
  }
  std::size_t n = 0;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    for (const Rect& r : reached) {
      if (grid.cell(t).touches(r)) {
        ++n;
        break;
      }
    }
  }
  return n;
}

void expect_matches_cold(const DfmFlowReport& warm, const LayerMap& shadow,
                         const DfmFlowOptions& opt) {
  const DfmFlowReport cold =
      run_dfm_flow(LayoutSnapshot(LayerMap(shadow)), opt);
  EXPECT_TRUE(reports_equivalent(warm, cold));
  EXPECT_EQ(warm.lambda_shorts, cold.lambda_shorts);
  EXPECT_EQ(warm.lambda_opens, cold.lambda_opens);
  EXPECT_EQ(warm.defect_yield, cold.defect_yield);
}

TEST_P(CaaSplice, EachUnitRecomputesOnlyOnItsOwnLayers) {
  const DfmFlowOptions opt = fast_options(GetParam());
  const LayerMap base = small_design(31);
  LayerMap shadow = base;
  DfmFlowSession session(base, opt);
  const Rect core = interior(session.snapshot().bbox());
  const std::size_t tiles =
      TileGrid(session.snapshot().bbox(), opt.tech.density_tile).size();

  // Via1: a cut where M1 and M2 overlap inside the core, so it can
  // merge nets and move the net-aware M2 term.
  const Region landing =
      (base.at(layers::kMetal1) & base.at(layers::kMetal2)).clipped(core);
  ASSERT_FALSE(landing.empty());
  const Rect pad = landing.rects().front();
  const Coord via = Tech::standard().via_size;
  struct Step {
    const char* what;
    LayerKey layer;
    Rect rect;
  };
  const std::vector<Step> steps = {
      {"m1", layers::kMetal1,
       Rect{core.lo.x, core.lo.y, core.lo.x + 300, core.lo.y + 60}},
      {"m2", layers::kMetal2,
       Rect{core.hi.x - 300, core.hi.y - 60, core.hi.x, core.hi.y}},
      {"via1", layers::kVia1,
       Rect{pad.lo.x, pad.lo.y, pad.lo.x + via, pad.lo.y + via}},
  };
  for (const Step& s : steps) {
    SCOPED_TRACE(s.what);
    LayoutDelta d;
    d.add(s.layer, s.rect);
    const LayerMap before = shadow;
    d.apply(shadow);
    const DfmFlowReport& warm = session.apply(d);
    // The M1 tiles an M1 edit reaches, the M2 tiles of the nets the edit
    // changed, and M2 opens on an M2 edit.
    const std::size_t m2_tiles = m2_tiles_reached(before, shadow, s.rect, opt);
    if (s.layer == layers::kVia1) {
      EXPECT_GT(m2_tiles, 0u);
    }
    EXPECT_EQ(caa_dirty_units(warm, tiles),
              (s.layer == layers::kMetal1
                   ? m1_tiles_reached(shadow, s.rect, opt)
                   : 0) +
                  m2_tiles + (s.layer == layers::kMetal2 ? 1 : 0));
    expect_matches_cold(warm, shadow, opt);
  }

  const DfmFlowReport& idle = session.apply(LayoutDelta{});
  EXPECT_EQ(caa_dirty_units(idle, tiles), 0u);
  expect_matches_cold(idle, shadow, opt);

  const Rect bb = session.snapshot().bbox();
  LayoutDelta grow;
  grow.add(layers::kMetal2,
           Rect{bb.hi.x + 4000, bb.lo.y, bb.hi.x + 4060, bb.lo.y + 3000});
  grow.apply(shadow);
  const DfmFlowReport& full = session.apply(grow);
  const std::size_t grown =
      TileGrid(session.snapshot().bbox(), opt.tech.density_tile).size();
  EXPECT_EQ(caa_dirty_units(full, grown), 2 * grown + 1);
  expect_matches_cold(full, shadow, opt);
}

// The M1 shorts term per (tile x defect size): integer areas summed in
// tile order reproduce the cold double bit for bit after every step of
// the edit streams (isolated, merging, splitting, seam-straddling,
// extent-edge and bbox-moving edits).
TEST_P(CaaSplice, M1TileStreamsMatchColdFlow) {
  splice_streams::run_streams(GetParam(), "caa_yield");
}

TEST(CaaSplice, TightBudgetStreamMatchesColdFlow) {
  splice_streams::run_budgeted_stream("caa_yield");
}

// The M1 halo is exact: a patch one unit inside half the largest defect
// size from a seam still reaches the neighbouring tile's coverage (its
// bloat meets a wire's there), so that tile must recompute.
TEST_P(CaaSplice, EditJustInsideTheHaloRechecksTheNeighbourTile) {
  DfmFlowOptions opt;
  opt.threads = GetParam();
  opt.passes = {"caa_yield"};
  const Coord tile = opt.tech.density_tile;
  const Coord reach = (opt.defects.xmax + 1) / 2;
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, Region{});
  }
  Region& m1 = m.at(layers::kMetal1);
  m1.add(Rect{0, 0, 100, 100});                      // bbox corners: two
  m1.add(Rect{2 * tile - 100, 0, 2 * tile, 100});    // cells side by side
  m1.add(Rect{tile - 1000, 1000, tile - 10, 1100});  // wire near the seam
  DfmFlowSession session(m, opt);
  const Rect patch{tile + reach - 1, 1000, tile + reach + 99, 1100};
  LayoutDelta d;
  d.add(layers::kMetal1, patch);
  d.apply(m);
  const DfmFlowReport& warm = session.apply(d);
  expect_matches_cold(warm, m, opt);
  // The patch's own cell and the neighbour; the design has no M2, so no
  // net-aware tile reruns.
  EXPECT_EQ(caa_dirty_units(warm, 2), 2u);
}

// Net identity is global: a U-shaped net whose base lies outside a
// tile's window shows that tile two separate arms, which must still count
// as one net (no short between them) when the tile recomputes.
TEST_P(CaaSplice, NetLeavingTheTileWindowKeepsItsLabel) {
  DfmFlowOptions opt;
  opt.threads = GetParam();
  opt.passes = {"caa_yield"};
  const Coord tile = opt.tech.density_tile;
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, Region{});
  }
  Region& m1 = m.at(layers::kMetal1);
  m1.add(Rect{0, 0, 100, 100});
  m1.add(Rect{2 * tile - 100, 1900, 2 * tile, 2000});
  m1.add(Rect{tile / 2, 1000, tile + 3000, 1100});  // lower arm
  m1.add(Rect{tile / 2, 1500, tile + 3000, 1600});  // upper arm
  m1.add(Rect{tile / 2, 1000, tile / 2 + 100, 1600});  // base, far left
  DfmFlowSession session(m, opt);
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{tile + 4000, 300, tile + 4100, 350});
  d.apply(m);
  expect_matches_cold(session.apply(d), m, opt);
}

// The M2 net-aware tiles follow the nets: every net edit case (a via
// joining two nets, a via cut splitting one, an M2 bridge, a floating
// via, a pad edit), added then removed, must leave the CAA doubles
// bit-equal to a cold flow, and some steps must recheck only part of the
// units.
TEST_P(CaaSplice, M2NetStreamsMatchColdFlow) {
  const DfmFlowOptions opt =
      splice_streams::splice_options(GetParam(), "caa_yield");
  std::size_t partial = 0;
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const LayerMap m = splice_streams::design_layers(seed, 3, 8);
    DfmFlowSession session(m, opt);
    LayerMap shadow = m;
    const std::size_t tiles =
        TileGrid(session.snapshot().bbox(), opt.tech.density_tile).size();
    for (const splice_streams::Edit& e :
         splice_streams::net_edit_cases(session.snapshot())) {
      for (const bool add : {true, false}) {
        SCOPED_TRACE(std::string(e.what) + (add ? " add" : " remove"));
        LayoutDelta d;
        if (add) {
          d.add(e.layer, e.rect);
        } else {
          d.remove(e.layer, e.rect);
        }
        d.apply(shadow);
        const DfmFlowReport& warm = session.apply(d);
        if (caa_dirty_units(warm, tiles) < 2 * tiles + 1) ++partial;
        expect_matches_cold(warm, shadow, opt);
      }
    }
  }
  EXPECT_GT(partial, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, CaaSplice, ::testing::Values(1u, 2u, 8u));

// Concurrent delta application over one shared base: each thread derives
// its own IncrementalSnapshot and runs real passes on it. Clean layers
// share the base's lazily built derived products across threads, which
// is exactly the surface the TSan suite must exercise.
TEST(DfmFlowSession, ConcurrentDeltaApplicationIsRaceFree) {
  LayerMap m = small_design(14);
  const LayoutSnapshot base(std::move(m));
  const Rect core = interior(base.bbox());
  const Tech& t = Tech::standard();

  std::vector<std::vector<Violation>> serial(8);
  std::vector<std::vector<Violation>> threaded(8);
  Rule rule;
  rule.name = "M1.S.1";
  rule.kind = RuleKind::kMinSpacing;
  rule.layer = layers::kMetal1;
  rule.value = t.m1_space;
  const auto delta_for = [&](int i) {
    LayoutDelta d;
    const Coord x = core.lo.x + i * 600;
    d.add(layers::kMetal1, Rect{x, core.lo.y, x + 80, core.lo.y + 900});
    return d;
  };
  for (int i = 0; i < 8; ++i) {
    const IncrementalSnapshot inc(base, delta_for(i));
    serial[static_cast<std::size_t>(i)] = DrcEngine::run_rule(inc, rule);
  }
  std::vector<std::thread> workers;
  workers.reserve(8);
  for (int i = 0; i < 8; ++i) {
    workers.emplace_back([&, i] {
      const IncrementalSnapshot inc(base, delta_for(i));
      (void)inc.rtree(layers::kMetal2);   // shared slot, built once
      (void)inc.edges(layers::kMetal1);   // fresh slot per delta
      threaded[static_cast<std::size_t>(i)] = DrcEngine::run_rule(inc, rule);
    });
  }
  for (std::thread& w : workers) w.join();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(threaded[static_cast<std::size_t>(i)],
              serial[static_cast<std::size_t>(i)])
        << "delta " << i;
  }
}

// ---- SessionRollback ---------------------------------------------------
// rollback() undoes the last apply without running a pass. After it the
// session must be indistinguishable from one that never saw the undone
// edit: the same snapshot object and report, and unit caches that make
// every later apply report exactly what the other session reports: the
// same canonical bytes, whose trace carries every pass's unit counts.

/// Two sessions over `m` take the same seeded patch stream, rotating M1,
/// M2 and Via1. Before each step the first also applies a decoy patch
/// and rolls it back. Both must report the same bytes after every
/// rollback and after every step.
void expect_decoys_leave_no_trace(const LayerMap& m, const DfmFlowOptions& opt,
                                  int steps) {
  static const LayerKey kLayers[] = {layers::kMetal1, layers::kMetal2,
                                     layers::kVia1};
  DfmFlowSession tried(m, opt);
  DfmFlowSession plain(m, opt);
  Rng rng(20261018);
  const Rect core = interior(plain.snapshot().bbox());
  for (int i = 0; i < steps; ++i) {
    const LayoutDelta decoy = patch_on(rng, core, kLayers[(i + 1) % 3]);
    const LayoutDelta step = patch_on(rng, core, kLayers[i % 3]);
    tried.apply(decoy);
    tried.rollback();
    ASSERT_EQ(flow_report_canonical_json(tried.report()),
              flow_report_canonical_json(plain.report()))
        << "after decoy " << i;
    const DfmFlowReport& a = tried.apply(step);
    const DfmFlowReport& b = plain.apply(step);
    ASSERT_EQ(flow_report_canonical_json(a), flow_report_canonical_json(b))
        << "step " << i;
    ASSERT_TRUE(reports_equivalent(a, b)) << "step " << i;
  }
}

/// Each edit of `edits`, added and then removed, first as a decoy that
/// one session applies and rolls back, then for real on both sessions.
void expect_edits_roll_back(const LayerMap& m, const DfmFlowOptions& opt,
                            const std::vector<splice_streams::Edit>& edits) {
  DfmFlowSession tried(m, opt);
  DfmFlowSession plain(m, opt);
  for (const splice_streams::Edit& e : edits) {
    for (const bool add : {true, false}) {
      SCOPED_TRACE(std::string(e.what) + (add ? " add" : " remove"));
      LayoutDelta d;
      if (add) {
        d.add(e.layer, e.rect);
      } else {
        d.remove(e.layer, e.rect);
      }
      tried.apply(d);
      tried.rollback();
      ASSERT_EQ(flow_report_canonical_json(tried.report()),
                flow_report_canonical_json(plain.report()));
      const DfmFlowReport& a = tried.apply(d);
      const DfmFlowReport& b = plain.apply(d);
      ASSERT_EQ(flow_report_canonical_json(a), flow_report_canonical_json(b));
      ASSERT_TRUE(reports_equivalent(a, b));
    }
  }
}

TEST(SessionRollback, RestoresTheSnapshotAndTheReportExactly) {
  const LayerMap m = small_design(15);
  DfmFlowSession session(m, fast_options(2, /*litho=*/true));
  const Rect core = interior(session.snapshot().bbox());
  LayoutDelta first;
  first.add(layers::kMetal2,
            Rect{core.lo.x, core.lo.y, core.lo.x + 300, core.lo.y + 60});
  session.apply(first);  // so the report carries an incremental trace

  const LayoutSnapshot* snap = &session.snapshot();
  std::map<LayerKey, std::vector<Rect>> layers_before;
  for (const LayerKey k : snap->layer_keys()) {
    layers_before[k] = snap->layer(k).rects();
  }
  const DfmFlowReport before = session.report();
  const std::string trace = flow_trace_json(before);  // timings included
  const std::string canonical = flow_report_canonical_json(before);

  LayoutDelta d;
  d.add(layers::kMetal1, Rect{core.lo.x + 500, core.lo.y + 500,
                              core.lo.x + 900, core.lo.y + 560});
  d.remove(layers::kVia1, core);
  const DfmFlowReport& edited = session.apply(d);
  ASSERT_NE(flow_report_canonical_json(edited), canonical)
      << "the edit must show";
  session.rollback();

  EXPECT_EQ(&session.snapshot(), snap);
  EXPECT_EQ(flow_trace_json(session.report()), trace);
  EXPECT_EQ(flow_report_canonical_json(session.report()), canonical);
  EXPECT_TRUE(reports_equivalent(session.report(), before));
  for (const auto& [k, rects] : layers_before) {
    EXPECT_EQ(session.snapshot().layer(k).rects(), rects) << to_string(k);
  }
}

TEST(SessionRollback, ThrowsWithoutAnApplyToUndo) {
  const LayerMap m = small_design(7);
  DfmFlowSession session(m, fast_options(1));
  EXPECT_THROW(session.rollback(), std::logic_error);
  const Rect core = interior(session.snapshot().bbox());
  LayoutDelta d;
  d.add(layers::kMetal1,
        Rect{core.lo.x, core.lo.y, core.lo.x + 200, core.lo.y + 200});
  session.apply(d);
  session.rollback();
  EXPECT_THROW(session.rollback(), std::logic_error);
  // The session stays usable, and the next apply is undoable again.
  session.apply(d);
  EXPECT_NO_THROW(session.rollback());
}

class SessionRollbackStream : public ::testing::TestWithParam<unsigned> {};

TEST_P(SessionRollbackStream, DecoyPatchesLeaveNoTrace) {
  expect_decoys_leave_no_trace(small_design(16), fast_options(GetParam()), 24);
}

INSTANTIATE_TEST_SUITE_P(Threads, SessionRollbackStream,
                         ::testing::Values(1u, 2u, 8u));

TEST(SessionRollback, DecoyPatchesLeaveNoTraceUnderATightBudget) {
  DfmFlowOptions opt = fast_options(2);
  opt.memory_budget = std::size_t{64} << 10;
  expect_decoys_leave_no_trace(small_design(16), opt, 12);
}

// Litho on: an M1 decoy re-renders stale tiles into their cached prints,
// and the rollback must put the old prints and risk state back.
TEST(SessionRollback, DecoyPatchesLeaveNoTraceWithLitho) {
  expect_decoys_leave_no_trace(small_design(17),
                               fast_options(2, /*litho=*/true), 9);
}

// A stale litho tile re-renders into its cached print only the pixels
// an edit reaches. A small M1 patch inside the spot of a rolled-back
// decoy therefore needs the print from before the decoy back, or the
// decoy's printed metal around the patch shows up as a bridge.
TEST(SessionRollback, StaleLithoTilesGetTheirOldPrintsBack) {
  const LayerMap m = small_design(17);
  const DfmFlowOptions opt = fast_options(2, /*litho=*/true);
  DfmFlowSession tried(m, opt);
  DfmFlowSession plain(m, opt);
  Rng rng(23);
  const Rect core = interior(plain.snapshot().bbox());
  for (int i = 0; i < 4; ++i) {
    const Coord x = rng.uniform(core.lo.x, core.hi.x - 400);
    const Coord y = rng.uniform(core.lo.y, core.hi.y - 400);
    LayoutDelta decoy;
    decoy.add(layers::kMetal1, Rect{x, y, x + 400, y + 400});
    LayoutDelta step;
    step.add(layers::kMetal1, Rect{x + 170, y + 170, x + 230, y + 230});
    tried.apply(decoy);
    tried.rollback();
    ASSERT_EQ(flow_report_canonical_json(tried.apply(step)),
              flow_report_canonical_json(plain.apply(step)))
        << "spot " << i;
  }
  // A decoy that adds a hotspot changes its tile's risk state, which
  // every later run assembles the hotspots from, even one that leaves
  // M1 clean.
  const Coord x = core.lo.x + 1000;
  const Coord y = core.lo.y + 1000;
  LayoutDelta sliver;  // too narrow to print: a pinch
  sliver.add(layers::kMetal1, Rect{x, y, x + 30, y + 800});
  ASSERT_NE(tried.apply(sliver).hotspots, plain.report().hotspots);
  tried.rollback();
  LayoutDelta m2;
  m2.add(layers::kMetal2, Rect{x + 2000, y, x + 2200, y + 60});
  EXPECT_EQ(flow_report_canonical_json(tried.apply(m2)),
            flow_report_canonical_json(plain.apply(m2)));
  EXPECT_EQ(tried.report().hotspots, plain.report().hotspots);
}

// A bbox-moving decoy runs with full damage and reuses no cache: the
// rollback must bring the whole cache set back for the next apply to
// splice against.
TEST(SessionRollback, BboxMovingDecoyRestoresTheWholeCacheSet) {
  const LayerMap m = small_design(18);
  DfmFlowSession tried(m, fast_options(2));
  DfmFlowSession plain(m, fast_options(2));
  const Rect bb = plain.snapshot().bbox();
  LayoutDelta grow;
  grow.add(layers::kMetal1,
           Rect{bb.hi.x + 5000, bb.lo.y, bb.hi.x + 5400, bb.lo.y + 2000});
  const PassTrace* drc = tried.apply(grow).trace.find("drc_plus");
  ASSERT_NE(drc, nullptr);
  ASSERT_EQ(drc->dirty_units, drc->total_units) << "not a full-damage run";
  tried.rollback();
  EXPECT_EQ(flow_report_canonical_json(tried.report()),
            flow_report_canonical_json(plain.report()));
  const Rect core = interior(bb);
  Rng rng(5);
  for (const LayerKey k :
       {layers::kMetal1, layers::kMetal2, layers::kVia1}) {
    const LayoutDelta d = patch_on(rng, core, k);
    EXPECT_EQ(flow_report_canonical_json(tried.apply(d)),
              flow_report_canonical_json(plain.apply(d)));
  }
}

// The edit cases that create, merge, split or dissolve nets and via
// clusters, plus a bbox-moving one.
TEST(SessionRollback, NetAndViaClusterEditsRollBack) {
  const LayerMap m = splice_streams::design_layers(11, 3, 8);
  expect_edits_roll_back(m, fast_options(2), splice_streams::edit_cases(m));
}

// The edit cases that create a conflict edge, close a triangle, grow a
// unit and cut an odd cycle, on the design that has conflict edges.
TEST(SessionRollback, DptUnitEditsRollBack) {
  const LayerMap m = splice_streams::defect_layers();
  expect_edits_roll_back(
      m, fast_options(2),
      splice_streams::dpt_edit_cases(LayoutSnapshot{LayerMap(m)}));
}

// ---- SessionLithoRestart -----------------------------------------------
// A run that skips litho because M1 is empty leaves no simulation, so
// the run that brings M1 back simulates cold and the one after it
// splices again. Both M1 edits stay incremental: the design's bbox is
// pinned by M2 squares at its corners.

/// The report's content as canonical bytes: the trace keeps each pass's
/// name and item count, not its unit counts, which differ between a
/// warm session and a cold run by design.
std::string content_json(DfmFlowReport rep) {
  for (PassTrace& p : rep.trace.passes) {
    p.total_units = 0;
    p.dirty_units = 0;
    p.incremental = false;
  }
  return flow_report_canonical_json(rep);
}

TEST(SessionLithoRestart, EmptyM1SkipsLithoAndTheNextRunSimulatesCold) {
  LayerMap m = small_design(19);
  const Rect bb = LayoutSnapshot(LayerMap(m)).bbox();
  m[layers::kMetal2].add(Rect{bb.lo.x, bb.lo.y, bb.lo.x + 50, bb.lo.y + 50});
  m[layers::kMetal2].add(Rect{bb.hi.x - 50, bb.hi.y - 50, bb.hi.x, bb.hi.y});
  const Region m1 = m.at(layers::kMetal1);
  const DfmFlowOptions opt = fast_options(2, /*litho=*/true);
  DfmFlowSession session(m, opt);
  LayerMap shadow = m;

  const auto expect_cold = [&](const LayoutDelta& d, const char* what) {
    SCOPED_TRACE(what);
    d.apply(shadow);
    const DfmFlowReport& rep = session.apply(d);
    const DfmFlowReport cold =
        run_dfm_flow(LayoutSnapshot(LayerMap(shadow)), fast_options(1, true));
    EXPECT_EQ(content_json(rep), content_json(cold));
    EXPECT_TRUE(reports_equivalent(rep, cold));
    const PassTrace* drc = rep.trace.find("drc_plus");
    EXPECT_TRUE(drc != nullptr && drc->incremental &&
                drc->dirty_units < drc->total_units)
        << "the edit must not move the bbox";
    return rep.trace.find("litho");
  };

  LayoutDelta clear;
  clear.remove(layers::kMetal1, m1);
  EXPECT_EQ(expect_cold(clear, "M1 deleted"), nullptr)
      << "litho must skip an empty M1";

  LayoutDelta restore;
  restore.add(layers::kMetal1, m1);
  const PassTrace* litho = expect_cold(restore, "M1 restored");
  ASSERT_NE(litho, nullptr);
  EXPECT_FALSE(litho->incremental) << "no simulation to splice into";
  EXPECT_EQ(litho->dirty_units, litho->total_units);

  const Rect core = interior(bb);
  LayoutDelta patch;
  patch.add(layers::kMetal1, Rect{core.lo.x, core.lo.y, core.lo.x + 200,
                                  core.lo.y + 60});
  litho = expect_cold(patch, "M1 patch");
  ASSERT_NE(litho, nullptr);
  EXPECT_TRUE(litho->incremental);
}

}  // namespace
}  // namespace dfm

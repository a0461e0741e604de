// Damage-local splicing of the spatial (rule x tile) units of DRC and
// the recommended rules, of the windowed hotspot compare, of the per-net
// connectivity units and of the per-cluster via doubling units (the
// critical-area tiles run the same streams in CaaSplice). After every
// step of an add/remove edit stream a warm session's report must equal a
// cold flow over the edited layout, at threads 1/2/8 (splice_streams.h
// lists the edit cases). LithoSeam pins the seam completion, and
// SpliceTelemetry the unit accounting and the pattern-site reuse.
#include "splice_streams.h"

#include "core/hotspot_flow.h"
#include "core/incremental.h"
#include "core/telemetry.h"
#include "gen/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace dfm {
namespace {

using namespace splice_streams;

// The streams are not vacuous: every design gets every edit case.
TEST(DrcSplice, EveryDesignHasEveryEditCase) {
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    std::vector<std::string> names;
    for (const Edit& e : edit_cases(design_layers(seed, 3, 8))) {
      names.emplace_back(e.what);
    }
    for (const char* want :
         {"isolated", "merge", "split", "seam", "edge", "grow", "via join",
          "via cut", "M2 bridge", "floating via", "pad edit"}) {
      EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
          << "seed " << seed << " lacks " << want;
    }
  }
}

class DrcSplice : public ::testing::TestWithParam<unsigned> {};

// The unit identity the splice rests on: for every tiled rule, the tile
// units partition the whole-rule violations by owner, byte for byte.
TEST(DrcSplice, TileUnitsPartitionWholeRule) {
  for (const std::uint64_t seed : {3u, 11u}) {
    LayerMap m = design_layers(seed, 3, 8);
    for (const Edit& e : edit_cases(m)) {
      LayoutDelta d;
      d.add(e.layer, e.rect);
      d.apply(m);
    }
    // A wide M2 plate across the first vertical seam with an intruder on
    // every side, so a wide component has several wide-spacing
    // violations, owned by one tile and emitted in one order.
    const Tech& tech = Tech::standard();
    {
      const Rect bb = LayoutSnapshot{LayerMap(m)}.bbox();
      const Coord x = bb.lo.x + tech.density_tile;
      const Coord y = (bb.lo.y + bb.hi.y) / 2 + 1500;
      const Coord g = tech.wide_space / 2;
      const Rect plate{x - 400, y, x + 400, y + 800};
      LayoutDelta d;
      d.add(layers::kMetal2, plate);
      d.add(layers::kMetal2, Rect{plate.lo.x - g - 60, y + 300, plate.lo.x - g,
                                  y + 360});
      d.add(layers::kMetal2, Rect{plate.hi.x + g, y + 100, plate.hi.x + g + 60,
                                  y + 160});
      d.add(layers::kMetal2, Rect{x - 200, plate.lo.y - g - 60, x - 140,
                                  plate.lo.y - g});
      d.add(layers::kMetal2, Rect{x + 100, plate.hi.y + g, x + 160,
                                  plate.hi.y + g + 60});
      d.apply(m);
    }
    const LayoutSnapshot snap{std::move(m)};
    const TileGrid grid(snap.bbox(), tech.density_tile);
    std::vector<Rule> rules = RuleDeck::standard(tech).rules;
    for (const RecommendedRule& rr : standard_recommended_rules(tech)) {
      rules.push_back(rr.rule);
    }
    for (const Rule& rule : rules) {
      if (!rule_tiled(rule)) continue;
      const std::vector<KeyedViolation> whole =
          DrcEngine::run_rule_keyed(snap, rule);
      if (rule.kind == RuleKind::kWideSpacing) {
        EXPECT_GE(whole.size(), 4u);
      }
      for (std::size_t t = 0; t < grid.size(); ++t) {
        SCOPED_TRACE(rule.name + " tile " + std::to_string(t));
        std::vector<KeyedViolation> owned;
        for (const KeyedViolation& kv : whole) {
          if (grid.owner(kv.anchor) == t) owned.push_back(kv);
        }
        std::vector<KeyedViolation> got = run_rule_tile(snap, rule, grid, t);
        ASSERT_EQ(got.size(), owned.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].v, owned[i].v)
              << to_string(got[i].v.marker) << " vs "
              << to_string(owned[i].v.marker);
          EXPECT_EQ(got[i].key, owned[i].key);
          EXPECT_EQ(got[i].extent, owned[i].extent);
          EXPECT_EQ(got[i].anchor, owned[i].anchor);
        }
      }
    }
  }
}

// A cold flow computes every tiled rule as the all-stale case of its
// tile units. Its DRC-Plus result and recommended counts must equal the
// whole-layer engines' over the same snapshot, on plain designs and on
// designs with pathologies injected over many tile rows plus every edit
// case (so rules report in many tiles, across seams).
TEST(DrcSplice, ColdFlowMatchesWholeLayerEngines) {
  const Tech& tech = Tech::standard();
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    DesignParams p;
    p.seed = seed;
    p.rows = 3;
    p.cells_per_row = 8;
    p.routes = 24;
    Library lib = generate_design(p);
    const std::uint32_t top = lib.top_cells()[0];
    const auto layers_of = [&] {
      LayerMap m;
      for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
        m.emplace(k, lib.flatten(top, k));
      }
      return m;
    };
    const LayerMap plain = layers_of();
    // A strip below the core, many tile rows tall (bench_f5's layout).
    const Rect core = lib.bbox(top);
    Rng rng(seed);
    inject_pathologies(lib.cell(top), rng, p.tech,
                       Rect{core.lo.x, core.lo.y - 60000, core.hi.x + 60000,
                            core.lo.y - 4000},
                       40);
    LayerMap defects = layers_of();
    for (const Edit& e : edit_cases(plain)) {
      LayoutDelta d;
      d.add(e.layer, e.rect);
      d.apply(defects);
    }
    for (const LayerMap* m : {&plain, &std::as_const(defects)}) {
      const LayoutSnapshot snap{LayerMap(*m)};
      const DrcPlusResult drc =
          DrcPlusEngine(DrcPlusDeck::standard(tech)).run(snap);
      const RecommendedResult rec =
          check_recommended(snap, standard_recommended_rules(tech));
      ASSERT_FALSE(drc.drc.violations.empty());
      for (const unsigned threads : {1u, 8u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) +
                     (m == &plain ? " plain" : " defects") + ", threads " +
                     std::to_string(threads));
        DfmFlowOptions o;
        o.threads = threads;
        o.passes = {"drc_plus", "recommended"};
        o.run_litho = false;
        const DfmFlowReport rep = run_dfm_flow(snap, o);
        EXPECT_EQ(rep.drcplus.drc.violations, drc.drc.violations);
        EXPECT_EQ(rep.drcplus, drc);
        EXPECT_EQ(rep.recommended, rec);
      }
    }
  }
}

TEST_P(DrcSplice, EditStreamsMatchColdFlow) { run_streams(GetParam(), "drc_plus"); }

// Under a budget the (rule x tile) units and the pattern windows run in
// budget groups, and windows capture streamed off the source.
TEST(DrcSplice, TightBudgetStreamMatchesColdFlow) {
  run_budgeted_stream("drc_plus");
}

INSTANTIATE_TEST_SUITE_P(Threads, DrcSplice, ::testing::Values(1u, 2u, 8u));

class RecommendedSplice : public ::testing::TestWithParam<unsigned> {};

TEST_P(RecommendedSplice, EditStreamsMatchColdFlow) {
  run_streams(GetParam(), "recommended");
}

INSTANTIATE_TEST_SUITE_P(Threads, RecommendedSplice,
                         ::testing::Values(1u, 2u, 8u));

// Connectivity per net: a net whose pieces touch the damage dissolves
// and is re-extracted with the edited components there; the spliced
// netlist (in canonical order) and floating-cut list equal a cold run's.
class ConnectivitySplice : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConnectivitySplice, EditStreamsMatchColdFlow) {
  run_streams(GetParam(), "connectivity");
}

TEST(ConnectivitySplice, TightBudgetStreamMatchesColdFlow) {
  run_budgeted_stream("connectivity");
}

INSTANTIATE_TEST_SUITE_P(Threads, ConnectivitySplice,
                         ::testing::Values(1u, 2u, 8u));

// Via doubling per interaction cluster: a cluster no edit comes within
// via_reach of keeps its result, the rest re-run on the pool.
class ViaSplice : public ::testing::TestWithParam<unsigned> {};

TEST_P(ViaSplice, EditStreamsMatchColdFlow) {
  run_streams(GetParam(), "via_doubling");
}

TEST(ViaSplice, TightBudgetStreamMatchesColdFlow) {
  run_budgeted_stream("via_doubling");
}

INSTANTIATE_TEST_SUITE_P(Threads, ViaSplice, ::testing::Values(1u, 2u, 8u));

// DPT per conflict unit: a unit whose member boxes no M1 edit touches
// keeps its decomposition and score partial, the rest re-run on the
// pool. The defect design's odd cycles and the DPT edit cases (a new
// edge, a closed triangle, a corner contact, a removed cycle member)
// make the streams colour, split and stitch.
class DptSplice : public ::testing::TestWithParam<unsigned> {};

TEST_P(DptSplice, EditStreamsMatchColdFlow) { run_streams(GetParam(), "dpt"); }

TEST(DptSplice, TightBudgetStreamMatchesColdFlow) {
  run_budgeted_stream("dpt");
}

INSTANTIATE_TEST_SUITE_P(Threads, DptSplice, ::testing::Values(1u, 2u, 8u));

// The DPT streams are not vacuous: the defect design gets every DPT edit
// case, and the generated designs the two that need no conflict edge.
TEST(DptSplice, EveryDesignHasEveryDptEditCase) {
  const auto names = [](const LayerMap& m) {
    std::vector<std::string> out;
    for (const Edit& e : dpt_edit_cases(LayoutSnapshot{LayerMap(m)})) {
      out.emplace_back(e.what);
    }
    return out;
  };
  EXPECT_EQ(names(defect_layers()),
            (std::vector<std::string>{"dpt edge", "dpt triangle",
                                      "dpt corner", "dpt cycle cut"}));
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    EXPECT_EQ(names(design_layers(seed, 3, 8)),
              (std::vector<std::string>{"dpt edge", "dpt corner"}))
        << "seed " << seed;
  }
}

// The windowed hotspot compare: a stale litho tile recompares only
// around what the edit changed, and seam pieces re-merge across tiles.
class HotspotSplice : public ::testing::TestWithParam<unsigned> {};

TEST_P(HotspotSplice, EditStreamsMatchColdFlow) {
  run_streams(GetParam(), "litho");
}

// The flow keeps each litho tile's print, risk state and skip bit. After
// every edit each kept tile must equal the one a cold run computes, byte
// for byte, including tiles whose core the edit misses but whose 6-sigma
// window it reaches: their prints change even where no hotspot does.
TEST(HotspotSplice, KeptTilesMatchColdTileForTile) {
  const DfmFlowOptions opt = splice_options(2, "litho");
  const PassPool pool(opt);
  LayerMap shadow = design_layers(11, 3, 8);
  std::vector<Edit> edits = edit_cases(shadow);
  const Coord margin = 6 * opt.model.sigma;
  const TileGrid tiles(shadow.at(layers::kMetal1).bbox(), opt.litho_tile);
  for (std::size_t ti = 0; ti + 1 < tiles.size(); ti += 2) {
    const Rect core = tiles.core(ti);
    if (core.hi.x >= tiles.extent().hi.x) continue;
    edits.push_back({"halo ring", layers::kMetal1,
                     Rect{core.hi.x + margin / 2, core.lo.y + 800,
                          core.hi.x + margin / 2 + 60, core.lo.y + 1000}});
  }
  const auto run = [&](DfmFlowReport& rep, const DfmFlowReport* prev,
                       const FlowCaches& was, const LayoutSnapshot& snap) {
    return detail::run_flow(rep, opt, pool, prev, was,
                            [&]() -> const LayoutSnapshot& { return snap; });
  };
  std::shared_ptr<const LayoutSnapshot> snap =
      std::make_shared<LayoutSnapshot>(LayerMap(shadow));
  DfmFlowReport rep;
  FlowCaches caches = run(rep, nullptr, {}, *snap);
  const auto same_runs = [](const ColumnRuns& a, const ColumnRuns& b) {
    return a.start == b.start &&
           std::equal(a.runs.begin(), a.runs.end(), b.runs.begin(),
                      b.runs.end(), [](const PixelRun& x, const PixelRun& y) {
                        return x.lo == y.lo && x.hi == y.hi;
                      });
  };
  std::size_t ring_tiles = 0;
  for (const Edit& e : edits) {
    for (const bool add : {true, false}) {
      SCOPED_TRACE(std::string(e.what) + (add ? " add" : " remove"));
      LayoutDelta d;
      if (add) {
        d.add(e.layer, e.rect);
      } else {
        d.remove(e.layer, e.rect);
      }
      d.apply(shadow);
      auto next = std::make_shared<IncrementalSnapshot>(*snap, d);
      DfmFlowReport next_rep;
      FlowCaches next_caches = run(next_rep, &rep, caches, *next);
      const LayoutSnapshot cold_snap{LayerMap(shadow)};
      DfmFlowReport cold_rep;
      const FlowCaches cold = run(cold_rep, nullptr, {}, cold_snap);
      ASSERT_EQ(next_caches.litho.size(), cold.litho.size());
      for (std::size_t ti = 0; ti < cold.litho.size(); ++ti) {
        const LithoTile& warm = *next_caches.litho[ti].second;
        const LithoTile& want = *cold.litho[ti].second;
        EXPECT_TRUE(same_runs(warm.print, want.print)) << "tile " << ti;
        EXPECT_TRUE(warm.risk == want.risk) << "tile " << ti;
        EXPECT_EQ(warm.skipped, want.skipped) << "tile " << ti;
        if (std::string(e.what) == "halo ring" &&
            !tiles.core(ti).overlaps(e.rect) &&
            tiles.core(ti).expanded(margin).overlaps(e.rect) &&
            warm.print.columns() > 0) {
          ++ring_tiles;
        }
      }
      snap = std::move(next);
      rep = std::move(next_rep);
      caches = std::move(next_caches);
    }
  }
  EXPECT_GT(ring_tiles, 0u) << "some edit must reach a tile only by its halo";
}

// Under default litho options every tile that renders keeps its print,
// so an M1 patch re-renders only the pixels it reaches, not the tile.
// scaling_design(7, 2) (2 rows of 8 cells, 20 routes, 2 via fields of 64
// vias) fits in one default 20000-dbu tile.
TEST(HotspotSplice, DefaultOptionsKeepEveryRenderedPrint) {
  DesignParams p;
  p.seed = 7;
  p.rows = 2;
  p.cells_per_row = 8;
  p.routes = 20;
  p.via_fields = 2;
  p.vias_per_field = 64;
  const Library lib = generate_design(p);
  LayerMap shadow;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    shadow.emplace(k, lib.flatten(lib.top_cells()[0], k));
  }
  DfmFlowOptions opt;
  opt.threads = 2;
  opt.passes = {"litho"};
  const PassPool pool(opt);
  const auto run = [&](DfmFlowReport& rep, const DfmFlowReport* prev,
                       const FlowCaches& was, const LayoutSnapshot& snap) {
    return detail::run_flow(rep, opt, pool, prev, was,
                            [&]() -> const LayoutSnapshot& { return snap; });
  };
  const LayoutSnapshot snap{LayerMap(shadow)};
  DfmFlowReport rep;
  const FlowCaches caches = run(rep, nullptr, {}, snap);

  const NormalizedRegion m1 = snap.layer(layers::kMetal1);
  const TileGrid grid(m1.bbox(), opt.litho_tile);
  ASSERT_EQ(grid.size(), 1u);
  ASSERT_EQ(caches.litho.size(), 1u);
  const Rect window = grid.core(0).expanded(6 * opt.model.sigma);
  // Neither density-gated (its window holds M1) nor prefilter-skipped.
  ASSERT_FALSE(m1.clipped(window).empty());
  ASSERT_FALSE(caches.litho[0].second->skipped);
  EXPECT_NE(caches.litho[0].second->print.columns(), 0u);

  // One 200x200 M1 patch in empty space inside the bbox.
  const Rect bb = m1.bbox();
  Rect patch = Rect::empty();
  for (Coord y = bb.lo.y + 400; patch.is_empty() && y + 600 < bb.hi.y;
       y += 400) {
    for (Coord x = bb.lo.x + 400; x + 600 < bb.hi.x; x += 400) {
      const Rect r{x, y, x + 200, y + 200};
      if (m1.clipped(r.expanded(100)).empty()) {
        patch = r;
        break;
      }
    }
  }
  ASSERT_FALSE(patch.is_empty());
  LayoutDelta d;
  d.add(layers::kMetal1, patch);
  const IncrementalSnapshot next(snap, d);
  namespace telem = ::dfm::telemetry;
  telem::set_enabled(false);
  telem::clear();
  telem::set_enabled(true);
  DfmFlowReport next_rep;
  const FlowCaches next_caches = run(next_rep, &rep, caches, next);
  telem::set_enabled(false);
  std::vector<std::uint64_t> window_pixels;
  for (const telem::ThreadTrace& t : telem::drain().threads) {
    for (const telem::SpanEvent& e : t.events) {
      if (std::string(e.name) == "litho/window") window_pixels.push_back(e.arg);
    }
  }
  telem::clear();
  ASSERT_EQ(next_caches.litho_grid, grid);
  ASSERT_EQ(window_pixels.size(), 1u);
  const std::uint64_t whole =
      static_cast<std::uint64_t>((window.width() + opt.model.px - 1) /
                                 opt.model.px) *
      static_cast<std::uint64_t>((window.height() + opt.model.px - 1) /
                                 opt.model.px);
  EXPECT_GT(window_pixels.front(), 0u);
  EXPECT_LT(window_pixels.front(), whole);
  EXPECT_NE(next_caches.litho[0].second->print.columns(), 0u);
}

// Litho tiles splice through the same budget groups as every other pass.
TEST(HotspotSplice, TightBudgetStreamMatchesColdFlow) {
  run_budgeted_stream("litho");
}

INSTANTIATE_TEST_SUITE_P(Threads, HotspotSplice, ::testing::Values(1u, 2u, 8u));

// A pinch along a long sub-resolution line reaches far past the edit
// that lengthens it: the windowed compare must grow over the whole
// component, across tile seams, before it replaces the cached one.
TEST_P(HotspotSplice, LongPinchPastTheEditIsRecompared) {
  const DfmFlowOptions opt = splice_options(GetParam(), "litho");
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, Region{});
  }
  Region& m1 = m.at(layers::kMetal1);
  m1.add(Rect{0, 0, 200, 200});
  m1.add(Rect{9800, 3800, 10000, 4000});
  m1.add(Rect{500, 2000, 5500, 2026});  // pinches along its length
  DfmFlowSession session(m, opt);
  ASSERT_FALSE(session.report().hotspots.empty());
  for (const bool add : {true, false}) {
    LayoutDelta d;
    const Rect ext{5500, 2000, 5800, 2026};
    if (add) {
      d.add(layers::kMetal1, ext);
    } else {
      d.remove(layers::kMetal1, ext);
    }
    d.apply(m);
    const DfmFlowReport& warm = session.apply(d);
    const DfmFlowReport cold = run_dfm_flow(LayoutSnapshot(LayerMap(m)), opt);
    EXPECT_EQ(warm.hotspots, cold.hotspots) << (add ? "add" : "remove");
  }
}

std::vector<Hotspot> sorted(std::vector<Hotspot> hs) {
  std::sort(hs.begin(), hs.end(), [](const Hotspot& a, const Hotspot& b) {
    return std::tie(a.kind, a.marker, a.severity) <
           std::tie(b.kind, b.marker, b.severity);
  });
  return hs;
}

// A hotspot is one risk component wherever the tile seams cut it: a thin
// wire across a seam pinches once, as it does inside one tile.
TEST(LithoSeam, WireAcrossSeamIsOneHotspot) {
  const Region wire{Rect{1850, 985, 2150, 1015}};
  const Rect extent{0, 0, 8000, 2000};
  const OpticalModel model;
  const std::vector<Hotspot> seamed =
      simulate_hotspots(wire, extent, model, 12, 2000);
  const std::vector<Hotspot> whole =
      simulate_hotspots(wire, extent, model, 12, 8000);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(seamed, whole);
}

// The hotspot multiset does not depend on the litho tile size.
TEST(LithoSeam, HotspotsAreTileInvariant) {
  for (const int scale : {2, 8}) {
    DesignParams p;
    p.seed = 7;
    p.rows = scale;
    p.cells_per_row = 4 * scale;
    p.routes = 10 * scale;
    p.via_fields = scale;
    p.vias_per_field = 64;
    const Library lib = generate_design(p);
    DfmFlowOptions o;
    o.threads = 4;
    o.passes = {"litho"};
    std::vector<Hotspot> first;
    for (const Coord tile : {5000, 10000, 20000, 40000}) {
      SCOPED_TRACE("scale " + std::to_string(scale) + " tile " +
                   std::to_string(tile));
      o.litho_tile = tile;
      const std::vector<Hotspot> hs =
          sorted(run_dfm_flow(lib, lib.top_cells()[0], o).hotspots);
      if (tile == 5000) {
        EXPECT_FALSE(hs.empty());
        first = hs;
      } else {
        EXPECT_EQ(hs, first);
      }
    }
  }
}

// One isolated M1 patch: the (rule x tile) and (term x tile) units the
// trace reports as recomputed are exactly the tiles the patch's halo
// reaches, computed here from the tile geometry alone.
TEST(SpliceTelemetry, M1PatchDirtiesTheTilesItsHaloReaches) {
  const LayerMap m = design_layers(11, 3, 8);
  DfmFlowOptions opt;
  opt.threads = 2;
  opt.run_litho = false;
  DfmFlowSession session(m, opt);
  const Edit iso = edit_cases(m).front();
  ASSERT_EQ(std::string(iso.what), "isolated");
  LayoutDelta d;
  d.add(layers::kMetal1, iso.rect);
  const DfmFlowReport& rep = session.apply(d);

  const Rect bb = session.snapshot().bbox();
  const Coord tile = opt.tech.density_tile;
  const auto reached = [&](Coord reach) {
    const Rect halo = iso.rect.expanded(reach);
    std::size_t n = 0;
    for (Coord y = bb.lo.y; y < bb.hi.y; y += tile) {
      for (Coord x = bb.lo.x; x < bb.hi.x; x += tile) {
        // Outer cells extend without bound: clamp the halo to the grid.
        const Rect cell{x == bb.lo.x ? halo.lo.x : x,
                        y == bb.lo.y ? halo.lo.y : y,
                        x + tile >= bb.hi.x ? halo.hi.x : x + tile,
                        y + tile >= bb.hi.y ? halo.hi.y : y + tile};
        if (cell.touches(halo)) ++n;
      }
    }
    return n;
  };
  const auto reads_m1 = [](const Rule& r) {
    const std::vector<LayerKey> on = rule_layers(r);
    return std::find(on.begin(), on.end(), layers::kMetal1) != on.end();
  };

  std::size_t drc = 0;
  for (const Rule& r : RuleDeck::standard(opt.tech).rules) {
    if (reads_m1(r)) drc += rule_tiled(r) ? reached(rule_reach(r)) : 1;
  }
  // Capture windows: new sites, and old ones the patch overlaps on a
  // capture layer.
  const LayoutSnapshot before{LayerMap(m)};
  LayerMap edited = m;
  d.apply(edited);
  const LayoutSnapshot after{std::move(edited)};
  for (const PatternRuleSet& set :
       DrcPlusDeck::standard(opt.tech).pattern_sets) {
    const bool captures_m1 =
        std::find(set.capture_layers.begin(), set.capture_layers.end(),
                  layers::kMetal1) != set.capture_layers.end();
    const std::vector<AnchorWindow> old_sites = anchor_windows(
        before.components(set.anchor_layer).regions, set.radius);
    for (const AnchorWindow& w : anchor_windows(
             after.components(set.anchor_layer).regions, set.radius)) {
      const bool known = std::find(old_sites.begin(), old_sites.end(), w) !=
                         old_sites.end();
      if (!known || (captures_m1 && iso.rect.overlaps(w.window))) ++drc;
    }
  }
  std::size_t rec = 0;
  for (const RecommendedRule& rr : standard_recommended_rules(opt.tech)) {
    if (reads_m1(rr.rule)) rec += reached(rule_reach(rr.rule));
  }
  // M1 shorts tiles; the patch's new net has no M2 piece and touches no
  // other net, so no net-aware M2 tile reruns.
  const std::size_t caa = reached((opt.defects.xmax + 1) / 2);

  ASSERT_NE(rep.trace.find("drc_plus"), nullptr);
  EXPECT_EQ(rep.trace.find("drc_plus")->dirty_units, drc);
  EXPECT_EQ(rep.trace.find("recommended")->dirty_units, rec);
  EXPECT_EQ(rep.trace.find("caa_yield")->dirty_units, caa);
  EXPECT_GT(rep.trace.find("drc_plus")->total_units, drc);
}

// An M1 edit recolours only the conflict units it reaches: those whose
// member boxes the edit touches, and those it formed (a key the last
// run did not have). Every other unit keeps its cached result.
TEST(SpliceTelemetry, M1EditRecolorsOnlyNearbyUnits) {
  const LayerMap m = defect_layers();
  const Coord space = Tech::standard().dpt_space;
  DfmFlowSession session(m, splice_options(2, "dpt"));
  const auto keys = [&](const LayoutSnapshot& snap) {
    const LayerComponents& c = snap.components(layers::kMetal1);
    std::vector<std::vector<Rect>> out;
    for (const std::vector<std::uint32_t>& unit : dpt_units(c, space)) {
      std::vector<Rect>& key = out.emplace_back();
      for (const std::uint32_t i : unit) key.push_back(c.boxes[i]);
    }
    return out;
  };
  LayerMap shadow = m;
  for (const Edit& e : dpt_edit_cases(LayoutSnapshot{LayerMap(m)})) {
    for (const bool add : {true, false}) {
      SCOPED_TRACE(std::string(e.what) + (add ? " add" : " remove"));
      const std::vector<std::vector<Rect>> before =
          keys(LayoutSnapshot{LayerMap(shadow)});
      LayoutDelta d;
      if (add) {
        d.add(e.layer, e.rect);
      } else {
        d.remove(e.layer, e.rect);
      }
      d.apply(shadow);
      const std::vector<std::vector<Rect>> after =
          keys(LayoutSnapshot{LayerMap(shadow)});
      // The dirty region is the edit's rect (added | removed).
      session.apply(d);
      std::size_t reached = 0;
      for (const std::vector<Rect>& key : after) {
        const bool known =
            std::find(before.begin(), before.end(), key) != before.end();
        const bool touched =
            std::any_of(key.begin(), key.end(),
                        [&](const Rect& box) { return box.touches(e.rect); });
        if (!known || touched) ++reached;
      }
      const PassTrace* row = session.report().trace.find("dpt");
      ASSERT_NE(row, nullptr);
      EXPECT_EQ(row->total_units, after.size());
      EXPECT_EQ(row->dirty_units, reached);
      EXPECT_LT(row->dirty_units, row->total_units);
    }
  }
}

/// Applies `d` to `session` with span recording on and returns, per
/// pattern set, how many windows the apply recomputed (its
/// "drc/pattern_window" spans carry the set index).
std::vector<std::size_t> windows_rescanned(DfmFlowSession& session,
                                           const LayoutDelta& d) {
  namespace telem = ::dfm::telemetry;
  telem::set_enabled(false);
  telem::clear();
  telem::set_enabled(true);
  session.apply(d);
  telem::set_enabled(false);
  std::vector<std::size_t> per_set(
      DrcPlusDeck::standard(session.options().tech).pattern_sets.size(), 0);
  for (const telem::ThreadTrace& t : telem::drain().threads) {
    for (const telem::SpanEvent& e : t.events) {
      if (std::string(e.name) == "drc/pattern_window") ++per_set.at(e.arg);
    }
  }
  telem::clear();
  return per_set;
}

// A Via1 edit leaves the M1-anchored pattern set's windows to the
// cache: no window of set 0 is rescanned, and the report equals a cold
// run.
TEST(SpliceTelemetry, CleanAnchorLayerReusesPatternSites) {
  const LayerMap m = design_layers(3, 3, 8);
  DfmFlowOptions opt;
  opt.threads = 2;
  opt.passes = {"drc_plus"};
  const PatternRuleSet m1_set =
      DrcPlusDeck::standard(opt.tech).pattern_sets.front();
  ASSERT_EQ(m1_set.anchor_layer, layers::kMetal1);
  ASSERT_EQ(m1_set.capture_layers, std::vector<LayerKey>{layers::kMetal1});
  DfmFlowSession session(m, opt);
  LayerMap shadow = m;
  const Rect bb = session.snapshot().bbox();
  const Coord x = (bb.lo.x + bb.hi.x) / 2, y = (bb.lo.y + bb.hi.y) / 2;
  LayoutDelta d;
  d.add(layers::kVia1, Rect{x, y, x + 50, y + 50});
  d.apply(shadow);

  const std::vector<std::size_t> rescanned = windows_rescanned(session, d);
  EXPECT_EQ(rescanned.at(0), 0u);
  // The via set scans the window the new via opens.
  EXPECT_GT(rescanned.at(1), 0u);
  EXPECT_TRUE(reports_equivalent(
      session.report(), run_dfm_flow(LayoutSnapshot(LayerMap(shadow)), opt)));
}

// An edit that keeps every window but changes what some of them clip
// rescans exactly those: an M2 patch on a via rescans the via set's
// windows it overlaps, and no M1 window.
TEST(SpliceTelemetry, EditInsideCachedWindowsRescansExactlyThem) {
  const LayerMap m = design_layers(3, 3, 8);
  DfmFlowOptions opt;
  opt.threads = 2;
  opt.passes = {"drc_plus"};
  const PatternRuleSet via_set =
      DrcPlusDeck::standard(opt.tech).pattern_sets.at(1);
  ASSERT_EQ(via_set.anchor_layer, layers::kVia1);
  DfmFlowSession session(m, opt);
  const std::vector<AnchorWindow> sites = anchor_windows(
      session.snapshot().components(layers::kVia1).regions, via_set.radius);
  ASSERT_FALSE(sites.empty());
  const Point c = sites.front().anchor;
  const Rect patch{c.x, c.y, c.x + 50, c.y + 50};
  std::size_t overlapped = 0;
  for (const AnchorWindow& w : sites) {
    if (patch.overlaps(w.window)) ++overlapped;
  }
  ASSERT_GE(overlapped, 1u);
  LayerMap shadow = m;
  LayoutDelta d;
  d.add(layers::kMetal2, patch);
  d.apply(shadow);

  const std::vector<std::size_t> rescanned = windows_rescanned(session, d);
  EXPECT_EQ(rescanned.at(0), 0u);
  EXPECT_EQ(rescanned.at(1), overlapped);
  EXPECT_TRUE(reports_equivalent(
      session.report(), run_dfm_flow(LayoutSnapshot(LayerMap(shadow)), opt)));
}

}  // namespace
}  // namespace dfm

// Distributed sharding: partition geometry, wire round-trips, routing
// rules, and the subsystem's headline guarantee — a flow run against a
// ShardBackend is byte-identical (flow_report_canonical_json) to the
// unsharded run at every shard count, cold and after any edit sequence.
// The boundary tests pin the cases sharding gets wrong when the halo or
// dedup rules are off by one: violations exactly on a shard border,
// hotspot clusters spanning shards, capture windows reaching across a
// border, and edits straddling two shards.
#include "shard/local_backend.h"

#include "core/incremental.h"
#include "core/parallel.h"
#include "core/stream_source.h"
#include "core/telemetry.h"
#include "gdsii/gdsii.h"
#include "gen/generators.h"
#include "shard/remote_backend.h"
#include "shard/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dfm {
namespace {

using shard::LocalShardBackend;
using shard::ShardPlan;

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

/// The worker-side mirror of `o` — exactly the fields shard_open ships.
shard::ShardWorkerConfig worker_config(const DfmFlowOptions& o) {
  shard::ShardWorkerConfig c;
  c.tech = o.tech;
  c.model = o.model;
  c.litho_tile = o.litho_tile;
  c.litho_edge_tolerance = o.litho_edge_tolerance;
  c.litho_fast = o.litho_fast;
  c.threads = 1;
  return c;
}

std::string cold_canonical(const LayerMap& m, const DfmFlowOptions& opt) {
  DfmFlowSession s(LayerMap(m), opt);
  return flow_report_canonical_json(s.report());
}

/// Canonical report of a cold sharded run; EXPECTs the backend stayed
/// healthy (no silent degrade — a degraded run is still byte-identical,
/// but then the test would not be exercising the shard path at all).
std::string sharded_canonical(const LayerMap& m, DfmFlowOptions opt,
                              int shards) {
  LocalShardBackend backend(m, shards, worker_config(opt));
  opt.shards = &backend;
  DfmFlowSession s(LayerMap(m), opt);
  EXPECT_FALSE(backend.degraded());
  return flow_report_canonical_json(s.report());
}

/// A random edit strictly inside `core` (stable joint bbox).
LayoutDelta random_edit(Rng& rng, const Rect& core) {
  static const std::vector<LayerKey> kEditable = {
      layers::kMetal1, layers::kMetal2, layers::kVia1};
  const LayerKey layer = rng.pick(kEditable);
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

Rect interior(const Rect& bb, Coord d = 1500) {
  const Coord dx = std::min(d, (bb.hi.x - bb.lo.x) / 4);
  const Coord dy = std::min(d, (bb.hi.y - bb.lo.y) / 4);
  return Rect{bb.lo.x + dx, bb.lo.y + dy, bb.hi.x - dx, bb.hi.y - dy};
}

// ---------------------------------------------------------------------------
// Partition geometry.

TEST(ShardPlan, CoresTileExtentDisjointly) {
  const Rect bb{0, 0, 10000, 6000};
  const ShardPlan plan = ShardPlan::make(bb, 6, 500);
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan.nx * plan.ny, 6);
  EXPECT_EQ(plan.extent, bb);
  Area total = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_TRUE(bb.contains(plan.cores[i]));
    EXPECT_EQ(plan.windows[i], plan.cores[i].expanded(500));
    total += plan.cores[i].area();
    for (std::size_t j = i + 1; j < plan.size(); ++j) {
      EXPECT_FALSE(plan.cores[i].overlaps(plan.cores[j]))
          << "cores " << i << " and " << j << " overlap";
    }
  }
  EXPECT_EQ(total, bb.area()) << "cores must cover the extent exactly";
}

TEST(ShardPlan, WideExtentGetsMoreColumns) {
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 40000, 10000}, 4, 100);
  EXPECT_GT(plan.nx, plan.ny);
}

TEST(ShardPlan, OwnerIsUniqueOnInternalBorders) {
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 8000}, 4, 100);
  // Every point — including points exactly on an internal core border —
  // has exactly one owner whose core half-open-contains it.
  const std::vector<Point> probes = {
      {0, 0},           {7999, 7999},      {4000, 4000},
      {4000, 100},      {100, 4000},       {3999, 3999},
      {4000, 7999},     {7999, 4000},
  };
  for (const Point& p : probes) {
    const int o = plan.owner(p);
    ASSERT_GE(o, 0) << to_string(p);
    int holders = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Rect& c = plan.cores[i];
      const bool in = p.x >= c.lo.x && p.x < c.hi.x &&  // half-open
                      p.y >= c.lo.y && p.y < c.hi.y;
      if (in) {
        ++holders;
        EXPECT_EQ(o, static_cast<int>(i)) << to_string(p);
      }
    }
    EXPECT_EQ(holders, 1) << to_string(p);
  }
  EXPECT_EQ(plan.owner(Point{-1, 0}), -1);
  EXPECT_EQ(plan.owner(Point{8000, 8000}), -1) << "hi edge is exclusive";
}

TEST(ShardPlan, SingleShardOwnsEverything) {
  const Rect bb{-500, -500, 2500, 1500};
  const ShardPlan plan = ShardPlan::make(bb, 1, 300);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.cores[0], bb);
  EXPECT_EQ(plan.owner(Point{0, 0}), 0);
}

TEST(ShardPlan, WindowsOverlappingFindsEditRecipients) {
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 4000}, 2, 500);
  ASSERT_EQ(plan.size(), 2u);
  const Coord bx = plan.cores[0].hi.x;
  // Deep inside shard 0, beyond shard 1's window reach.
  EXPECT_EQ(plan.windows_overlapping(Rect{100, 100, 200, 200}),
            (std::vector<std::size_t>{0}));
  // Straddling the border: both windows see it.
  EXPECT_EQ(plan.windows_overlapping(Rect{bx - 10, 100, bx + 10, 200}),
            (std::vector<std::size_t>{0, 1}));
  // Inside shard 1's core but within shard 0's halo: still both.
  EXPECT_EQ(plan.windows_overlapping(Rect{bx + 100, 100, bx + 200, 200}),
            (std::vector<std::size_t>{0, 1}));
}

TEST(ShardPlan, HaloCoversLithoAndDrcInfluence) {
  const Tech& t = Tech::standard();
  const Coord sigma = 25;
  const Coord halo = shard::shard_halo(t, 20000, sigma);
  // Litho: tile center to tile edge plus the 6-sigma optical apron.
  EXPECT_GT(halo, 20000 / 2 + 6 * sigma);
  // DRC + patterns: far smaller than the litho term at this tile size.
  EXPECT_GT(halo, t.wide_width);
  EXPECT_GT(halo, 8 * t.m1_width);
}

// ---------------------------------------------------------------------------
// Wire encoding: exact round-trips (the remote path adds serialization
// and nothing else, so exactness here is what carries local invariance
// over to the multi-process deployment).

TEST(ShardWire, GeometryRoundTripsExactly) {
  Region r;
  r.add(Rect{-5, -7, 100, 200});
  r.add(Rect{300, 0, 450, 90});
  EXPECT_EQ(shard::region_from_json(shard::region_to_json(r)), r);
  const Rect rect{-12345678, 4, 9999999, 1000000007};
  EXPECT_EQ(shard::rect_from_json(shard::rect_to_json(rect)), rect);
}

TEST(ShardWire, HotspotSeverityRoundTripsBitExactly) {
  Hotspot h;
  h.kind = HotspotKind::kBridge;
  h.marker = Rect{10, 20, 30, 40};
  h.severity = 0.12345678901234567;  // needs all 17 significant digits
  EXPECT_EQ(shard::hotspot_from_json(shard::hotspot_to_json(h)), h);
  h.kind = HotspotKind::kPinch;
  h.severity = 6400.0;
  EXPECT_EQ(shard::hotspot_from_json(shard::hotspot_to_json(h)), h);
}

TEST(ShardWire, RiskPieceRoundTripsWithItsBbox) {
  RiskPiece p;
  p.kind = HotspotKind::kBridge;
  p.region.add(Rect{-40, 0, 10, 30});
  p.region.add(Rect{10, 20, 90, 30});
  p.bbox = p.region.bbox();
  const RiskPiece back = shard::risk_piece_from_json(shard::risk_piece_to_json(p));
  EXPECT_EQ(back.kind, p.kind);
  EXPECT_EQ(back.region, p.region);
  EXPECT_EQ(back.bbox, p.bbox);
}

TEST(ShardWire, SiteAndMatchRoundTrip) {
  const AnchorWindow site{Point{150, -60}, Rect{-250, -460, 550, 340}};
  EXPECT_EQ(shard::site_from_json(shard::site_to_json(site)), site);
  PatternMatch m;
  m.rule_index = 3;
  m.window = Rect{0, 0, 400, 400};
  m.anchor = Point{200, 200};
  m.exact = false;
  EXPECT_EQ(shard::match_from_json(shard::match_to_json(m)), m);
}

TEST(ShardWire, TechModelRuleDeltaRoundTrip) {
  Tech t = Tech::standard();
  t.m1_width = 37;
  t.density_max = 0.625;
  const Tech t2 = shard::tech_from_json(shard::tech_to_json(t));
  EXPECT_EQ(t2.m1_width, 37);
  EXPECT_EQ(t2.density_max, 0.625);
  EXPECT_EQ(t2.via_enclosure_end, t.via_enclosure_end);

  OpticalModel m;
  m.sigma = 20;
  m.px = 10;
  const OpticalModel m2 = shard::model_from_json(shard::model_to_json(m));
  EXPECT_EQ(m2.sigma, m.sigma);
  EXPECT_EQ(m2.px, m.px);

  LayoutDelta d;
  d.add(layers::kMetal1, Rect{0, 0, 100, 100});
  d.remove(layers::kVia1, Rect{50, 50, 80, 80});
  const LayoutDelta d2 = shard::delta_from_json(shard::delta_to_json(d));
  LayerMap a, b;
  a.emplace(layers::kMetal1, Region{Rect{-50, -50, 60, 60}});
  b.emplace(layers::kMetal1, Region{Rect{-50, -50, 60, 60}});
  d.apply(a);
  d2.apply(b);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Routing rules.

TEST(ShardRouting, LithoTileGoesToCenterOwner) {
  // Generous halo: every tile's 6-sigma window fits its owner's window.
  const Coord sigma = 25;
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 4000}, 2,
                                         2000 + 6 * sigma + 64);
  ASSERT_EQ(plan.size(), 2u);
  const Coord bx = plan.cores[0].hi.x;
  // Tile centered left of the border: shard 0; right of it: shard 1.
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{bx - 2100, 0, bx - 100, 2000},
                                    sigma),
            0);
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{bx - 100, 0, bx + 2100, 2000},
                                    sigma),
            1);
  // Center exactly on the border: half-open ownership sends it right.
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{bx - 1000, 0, bx + 1000, 2000},
                                    sigma),
            1);
}

TEST(ShardRouting, UncoverableTileIsDeclined) {
  // Halo far too small for the simulation window: near the border no
  // shard's window covers tile.expanded(6*sigma), so the tile is
  // declined (computed by the coordinator) rather than mis-assigned.
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 4000}, 2, 10);
  const Coord bx = plan.cores[0].hi.x;
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{bx - 1000, 1000, bx - 100, 2000},
                                    25),
            -1);
  // Deep in the interior the core itself covers the window: still owned.
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{1000, 1000, 2000, 2000}, 25),
            0);
}

TEST(ShardRouting, PatternSiteGoesToAnchorOwner) {
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 4000}, 2, 600);
  const Coord bx = plan.cores[0].hi.x;
  // Anchor left of the border, capture window reaching across it: the
  // site belongs to shard 0 and its window fits shard 0's halo.
  const AnchorWindow cross{Point{bx - 100, 2000},
                           Rect{bx - 500, 1600, bx + 300, 2400}};
  EXPECT_EQ(shard::route_pattern_site(plan, cross), 0);
  // Anchor exactly on the border: owned by the right shard.
  const AnchorWindow on{Point{bx, 2000}, Rect{bx - 400, 1600, bx + 400, 2400}};
  EXPECT_EQ(shard::route_pattern_site(plan, on), 1);
  // Window wider than the halo: declined.
  const AnchorWindow wide{Point{bx - 100, 2000},
                          Rect{bx - 100 - 800, 1200, bx - 100 + 800, 2800}};
  EXPECT_EQ(shard::route_pattern_site(plan, wide), -1);
}

// ---------------------------------------------------------------------------
// Shard-count invariance: the headline guarantee.

TEST(LocalShard, ColdRunIsShardCountInvariant) {
  const LayerMap m = small_design(11);
  const DfmFlowOptions opt = fast_options(2, /*litho=*/true);
  const std::string want = cold_canonical(m, opt);
  for (const int shards : {1, 2, 8}) {
    EXPECT_EQ(sharded_canonical(m, opt, shards), want)
        << "report diverged at " << shards << " shards";
  }
}

TEST(LocalShard, IncrementalMatchesUnshardedAfterEveryEdit) {
  // Two sessions over the same layout and edit sequence — one driving a
  // 3-shard backend, one all-local — must stay byte-identical, and both
  // must keep matching a cold run's analysis results (the incremental
  // accounting in the trace legitimately differs from a cold run, so
  // that half of the check uses reports_equivalent).
  const LayerMap m = small_design(23);
  const DfmFlowOptions opt = fast_options(2, /*litho=*/true);

  LocalShardBackend backend(m, 3, worker_config(opt));
  DfmFlowOptions with_shards = opt;
  with_shards.shards = &backend;
  DfmFlowSession sharded(LayerMap(m), with_shards);
  DfmFlowSession unsharded(LayerMap(m), opt);
  LayerMap shadow = m;
  EXPECT_EQ(flow_report_canonical_json(sharded.report()),
            flow_report_canonical_json(unsharded.report()));

  Rng rng(77);
  const Rect core = interior(sharded.snapshot().bbox());
  for (int i = 0; i < 3; ++i) {
    const LayoutDelta d = random_edit(rng, core);
    sharded.apply(d);
    unsharded.apply(d);
    d.apply(shadow);
    EXPECT_FALSE(backend.degraded());
    EXPECT_EQ(flow_report_canonical_json(sharded.report()),
              flow_report_canonical_json(unsharded.report()))
        << "diverged after edit " << i;
    DfmFlowSession cold(LayerMap(shadow), opt);
    EXPECT_TRUE(reports_equivalent(sharded.report(), cold.report()))
        << "analysis drifted from cold truth after edit " << i;
  }
}

TEST(LocalShard, DeclinedTileEditSplicesLocally) {
  // Workers planned for a much smaller litho tile get a halo too small
  // for the flow's tiles, so a tile whose 6-sigma window escapes every
  // shard window is declined (cf. ShardRouting.UncoverableTileIsDeclined)
  // and simulated by the coordinator, which keeps its print. An M1 edit
  // inside such a tile re-renders only the edit's pixels into that print
  // and must stay exact.
  const LayerMap m = small_design(23);
  const DfmFlowOptions opt = fast_options(2, /*litho=*/true);
  shard::ShardWorkerConfig small_halo = worker_config(opt);
  small_halo.litho_tile = 200;
  LocalShardBackend backend(m, 3, small_halo);
  DfmFlowOptions with_shards = opt;
  with_shards.shards = &backend;
  DfmFlowSession sharded(LayerMap(m), with_shards);
  DfmFlowSession unsharded(LayerMap(m), opt);
  ASSERT_EQ(flow_report_canonical_json(sharded.report()),
            flow_report_canonical_json(unsharded.report()));

  // A declined tile with M1 geometry at its center, where the edit goes.
  const Region& m1 = m.at(layers::kMetal1);
  Rect edit = Rect::empty();
  for (const Rect& core : make_tiles(m1.bbox(), opt.litho_tile)) {
    const Point c = core.center();
    const Rect probe{c.x - 100, c.y - 100, c.x + 100, c.y + 100};
    if (shard::route_litho_tile(backend.plan(), core, opt.model.sigma) < 0 &&
        !m1.clipped(probe.expanded(200)).empty()) {
      edit = probe;
      break;
    }
  }
  ASSERT_FALSE(edit.is_empty()) << "no declined tile to edit in";

  LayerMap shadow = m;
  for (const bool add : {true, false}) {
    LayoutDelta d;
    if (add) {
      d.add(layers::kMetal1, edit);
    } else {
      d.remove(layers::kMetal1, edit);
    }
    const bool traced = telemetry::compiled_in();
    telemetry::clear();
    telemetry::set_enabled(traced);
    sharded.apply(d);
    telemetry::set_enabled(false);
    unsharded.apply(d);
    d.apply(shadow);
    EXPECT_FALSE(backend.degraded());
    EXPECT_EQ(flow_report_canonical_json(sharded.report()),
              flow_report_canonical_json(unsharded.report()));
    DfmFlowSession cold(LayerMap(shadow), opt);
    EXPECT_TRUE(reports_equivalent(sharded.report(), cold.report()));
    if (!traced) continue;
    // The declined tile spliced: a litho/window render far smaller than
    // the tile's (tile + 12 sigma)^2 / px^2 pixels.
    const std::uint64_t tile_px = static_cast<std::uint64_t>(
        ((opt.litho_tile + 12 * opt.model.sigma) / opt.model.px) *
        ((opt.litho_tile + 12 * opt.model.sigma) / opt.model.px));
    bool spliced = false;
    for (const telemetry::ThreadTrace& t : telemetry::drain().threads) {
      for (const telemetry::SpanEvent& e : t.events) {
        if (std::string(e.name) == "litho/window" && e.arg > 0 &&
            e.arg * 16 < tile_px) {
          spliced = true;
        }
      }
    }
    telemetry::clear();
    EXPECT_TRUE(spliced) << (add ? "add" : "remove");
  }
}

// ---------------------------------------------------------------------------
// Boundary cases: the configurations halo/dedup bugs would break.

/// Fat rails pinning a wide bbox so ShardPlan splits along x and edits
/// never move the extent. The rails are DRC-clean (well over min width).
LayerMap railed_canvas(Coord w, Coord h) {
  LayerMap m;
  Region m1;
  m1.add(Rect{0, 0, w, 300});
  m1.add(Rect{0, h - 300, w, h});
  m.emplace(layers::kMetal1, std::move(m1));
  return m;
}

TEST(LocalShard, ViolationExactlyOnShardBorder) {
  const DfmFlowOptions opt = fast_options(1);
  LayerMap base = railed_canvas(40000, 10000);

  // Learn where the internal border lands, then drop a sub-min-width
  // sliver (30 < m1_width 50) centered on it: its morphology influence
  // region is split across both workers.
  LocalShardBackend probe(base, 2, worker_config(opt));
  ASSERT_EQ(probe.plan().nx, 2);
  const Coord bx = probe.plan().cores[0].hi.x;
  ASSERT_GT(bx, probe.plan().extent.lo.x);
  ASSERT_LT(bx, probe.plan().extent.hi.x);

  base.at(layers::kMetal1).add(Rect{bx - 400, 5000, bx + 400, 5030});
  const std::string want = cold_canonical(base, opt);

  // The unsharded run must actually flag it — otherwise this proves
  // nothing about stitching.
  DfmFlowSession baseline(LayerMap(base), opt);
  EXPECT_FALSE(baseline.report().drcplus.drc.violations.empty());

  EXPECT_EQ(sharded_canonical(base, opt, 2), want);
  EXPECT_EQ(sharded_canonical(base, opt, 8), want);
}

TEST(LocalShard, HotspotClusterSpansThreeShards) {
  DfmFlowOptions opt = fast_options(1, /*litho=*/true);
  LayerMap m = railed_canvas(30000, 8000);

  LocalShardBackend probe(m, 3, worker_config(opt));
  ASSERT_EQ(probe.plan().nx, 3);
  const Coord b0 = probe.plan().cores[0].hi.x;
  const Coord b1 = probe.plan().cores[1].hi.x;

  // One continuous sub-resolution line running through all three
  // shards: a pinch cluster no single worker sees whole. 26nm is the
  // sweet spot — wide enough to survive the edge-tolerance erosion
  // (> 2 * litho_edge_tolerance), narrow enough to vanish at sigma 20.
  m.at(layers::kMetal1).add(Rect{b0 - 3000, 4000, b1 + 3000, 4026});
  const std::string want = cold_canonical(m, opt);

  DfmFlowSession baseline(LayerMap(m), opt);
  EXPECT_FALSE(baseline.report().hotspots.empty())
      << "the skinny line must pinch, or the test is vacuous";

  EXPECT_EQ(sharded_canonical(m, opt, 3), want);
  EXPECT_EQ(sharded_canonical(m, opt, 8), want);
}

TEST(LocalShard, PatternWindowReachesAcrossBorder) {
  const DfmFlowOptions opt = fast_options(1);
  LayerMap m = railed_canvas(40000, 10000);

  LocalShardBackend probe(m, 2, worker_config(opt));
  const Coord bx = probe.plan().cores[0].hi.x;

  // A via with end-of-line landing pads right next to the border: the
  // anchor sits in shard 0 but the capture window crosses into shard
  // 1's core (still inside shard 0's halo).
  const Tech& t = opt.tech;
  const Coord vx = bx - t.via_size;  // via hugs the border from the left
  const Rect via{vx, 5000, vx + t.via_size, 5000 + t.via_size};
  m[layers::kVia1].add(via);
  m.at(layers::kMetal1)
      .add(via.expanded(t.via_enclosure)
               .hull(Rect{via.lo.x - t.via_enclosure_end, via.lo.y,
                          via.hi.x + t.via_enclosure_end, via.hi.y}));
  m[layers::kMetal2].add(via.expanded(t.via_enclosure));

  const std::string want = cold_canonical(m, opt);
  EXPECT_EQ(sharded_canonical(m, opt, 2), want);
  EXPECT_EQ(sharded_canonical(m, opt, 4), want);
}

TEST(LocalShard, EditStraddlingTwoShards) {
  const DfmFlowOptions opt = fast_options(2);
  const LayerMap m = railed_canvas(40000, 10000);

  LocalShardBackend backend(m, 2, worker_config(opt));
  const Coord bx = backend.plan().cores[0].hi.x;
  DfmFlowOptions with_shards = opt;
  with_shards.shards = &backend;
  DfmFlowSession sharded(LayerMap(m), with_shards);
  DfmFlowSession unsharded(LayerMap(m), opt);

  // Add a bar crossing the border, then carve a sub-min-width waist
  // into it right on the border — both deltas overlap both workers'
  // windows and must reach both, and the second leaves a violation
  // whose influence region is split across the shards.
  LayoutDelta add;
  add.add(layers::kMetal1, Rect{bx - 2000, 4000, bx + 2000, 4100});
  sharded.apply(add);
  unsharded.apply(add);
  EXPECT_FALSE(backend.degraded());
  EXPECT_EQ(flow_report_canonical_json(sharded.report()),
            flow_report_canonical_json(unsharded.report()));

  LayoutDelta cut;
  cut.remove(layers::kMetal1, Rect{bx - 300, 4030, bx + 300, 4100});
  sharded.apply(cut);
  unsharded.apply(cut);
  EXPECT_FALSE(backend.degraded());
  EXPECT_FALSE(unsharded.report().drcplus.drc.violations.empty())
      << "the waist must violate min width, or the test is vacuous";
  EXPECT_EQ(flow_report_canonical_json(sharded.report()),
            flow_report_canonical_json(unsharded.report()));
}

TEST(LocalShard, EditEscapingExtentDegradesButStaysExact) {
  const DfmFlowOptions opt = fast_options(1);
  const LayerMap m = railed_canvas(20000, 8000);

  LocalShardBackend backend(m, 2, worker_config(opt));
  DfmFlowOptions with_shards = opt;
  with_shards.shards = &backend;
  DfmFlowSession sharded(LayerMap(m), with_shards);
  DfmFlowSession unsharded(LayerMap(m), opt);

  // Geometry outside the plan extent: workers cannot mirror it, so the
  // backend must degrade (decline everything) — and the flow must then
  // compute locally, still byte-identical to the unsharded session.
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{25000, 2000, 25400, 2100});
  sharded.apply(d);
  unsharded.apply(d);
  EXPECT_TRUE(backend.degraded());
  EXPECT_EQ(flow_report_canonical_json(sharded.report()),
            flow_report_canonical_json(unsharded.report()));

  // And it stays degraded: later edits keep the exactness guarantee.
  LayoutDelta d2;
  d2.add(layers::kMetal2, Rect{1000, 1000, 1200, 1100});
  sharded.apply(d2);
  unsharded.apply(d2);
  EXPECT_TRUE(backend.degraded());
  EXPECT_EQ(flow_report_canonical_json(sharded.report()),
            flow_report_canonical_json(unsharded.report()));
}

// ---------------------------------------------------------------------------
// Remote deployment: real `dfmkit shard-serve` worker processes. The
// routing/stitching logic is shared with LocalShardBackend, so this
// proves process lifecycle + exact serialization, not new semantics.

#ifdef DFMKIT_BIN

TEST(RemoteShard, MatchesDirectRunColdAndIncremental) {
  DesignParams p;
  p.seed = 5;
  p.rows = 2;
  p.cells_per_row = 3;
  p.routes = 6;
  p.via_fields = 1;
  p.vias_per_field = 9;
  const Library lib = generate_design(p);

  const std::string dir = shard::make_shard_scratch_dir();
  const std::string gds = dir + "/design.gds";
  write_gdsii_file(lib, gds);

  DfmFlowOptions opt = fast_options(1, /*litho=*/true);
  const auto source = open_stream_source(gds);

  // Unsharded baseline over the same streaming source.
  DfmFlowSession direct(source, opt);
  const std::string want = flow_report_canonical_json(direct.report());

  shard::RemoteShardConfig sc;
  sc.worker = worker_config(opt);
  sc.layout_path = gds;
  sc.binary = DFMKIT_BIN;
  sc.socket_dir = dir;
  sc.shards = 2;
  shard::RemoteShardBackend backend(shard::shard_extent_of(gds),
                                    std::move(sc));
  ASSERT_EQ(backend.shard_count(), 2u);

  DfmFlowOptions sharded = opt;
  sharded.shards = &backend;
  DfmFlowSession session(source, sharded);
  EXPECT_FALSE(backend.degraded());
  EXPECT_EQ(flow_report_canonical_json(session.report()), want);

  // One straddling edit over the wire: both sessions apply it; the
  // sharded report must track the direct one byte for byte.
  const Coord bx = backend.plan().cores[0].hi.x;
  const Rect bb = backend.plan().extent;
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{bx - 400, bb.center().y, bx + 400,
                              bb.center().y + 90});
  session.apply(d);
  direct.apply(d);
  EXPECT_FALSE(backend.degraded());
  EXPECT_EQ(flow_report_canonical_json(session.report()),
            flow_report_canonical_json(direct.report()));
}

// A pinch line across both shards and several litho tile seams: its
// pieces come back from the worker processes as the wire's seam-piece
// field and must re-merge into the same hotspots as the direct run.
TEST(RemoteShard, SeamPiecesCrossTheWire) {
  Library lib;
  const std::uint32_t top = lib.new_cell("top");
  lib.cell(top).add(layers::kMetal1, Rect{0, 0, 30000, 300});
  lib.cell(top).add(layers::kMetal1, Rect{0, 7700, 30000, 8000});
  lib.cell(top).add(layers::kMetal1, Rect{4000, 4000, 26000, 4026});

  const std::string dir = shard::make_shard_scratch_dir();
  const std::string gds = dir + "/seam.gds";
  write_gdsii_file(lib, gds);

  const DfmFlowOptions opt = fast_options(1, /*litho=*/true);
  const auto source = open_stream_source(gds);
  DfmFlowSession direct(source, opt);
  ASSERT_FALSE(direct.report().hotspots.empty())
      << "the skinny line must pinch, or the test is vacuous";

  shard::RemoteShardConfig sc;
  sc.worker = worker_config(opt);
  sc.layout_path = gds;
  sc.binary = DFMKIT_BIN;
  sc.socket_dir = dir;
  sc.shards = 2;
  shard::RemoteShardBackend backend(shard::shard_extent_of(gds),
                                    std::move(sc));
  DfmFlowOptions sharded = opt;
  sharded.shards = &backend;
  DfmFlowSession session(source, sharded);
  EXPECT_FALSE(backend.degraded());
  EXPECT_EQ(session.report().hotspots, direct.report().hotspots);
  EXPECT_EQ(flow_report_canonical_json(session.report()),
            flow_report_canonical_json(direct.report()));
}

#endif  // DFMKIT_BIN

}  // namespace
}  // namespace dfm

#include "yield/yield.h"

#include "core/incremental.h"
#include "core/parallel.h"
#include "core/snapshot.h"

#include "gen/generators.h"
#include "layout/connectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

namespace dfm {
namespace {

TEST(DefectModel, PdfNormalizes) {
  DefectModel m;
  m.x0 = 40;
  m.xmax = 2000;
  // Trapezoid-integrate the pdf; should be ~1.
  double acc = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double s0 = 40 + (2000.0 - 40) * i / n;
    const double s1 = 40 + (2000.0 - 40) * (i + 1) / n;
    acc += 0.5 *
           (m.pdf(static_cast<Coord>(s0)) + m.pdf(static_cast<Coord>(s1))) *
           (s1 - s0);
  }
  EXPECT_NEAR(acc, 1.0, 0.05);  // trapezoid bias on the steep head
  EXPECT_DOUBLE_EQ(m.pdf(10), 0.0);
  EXPECT_DOUBLE_EQ(m.pdf(3000), 0.0);
}

TEST(ShortCriticalArea, TwoParallelWires) {
  // Wires 100 wide, gap 100: a square defect of side s shorts them iff it
  // spans the gap; center strip height = s - 100.
  Region layer;
  layer.add(Rect{0, 0, 1000, 100});
  layer.add(Rect{0, 200, 1000, 300});
  EXPECT_EQ(short_critical_area(layer, 100), 0);
  const Area ca150 = short_critical_area(layer, 150);
  // Expected: (150 - 100) tall strip, ~1000 long (plus end effects < s).
  EXPECT_GE(ca150, 50 * 1000);
  EXPECT_LE(ca150, 50 * (1000 + 2 * 150));
}

TEST(ShortCriticalArea, MonotoneInDefectSize) {
  Region layer;
  layer.add(Rect{0, 0, 500, 100});
  layer.add(Rect{0, 180, 500, 280});
  layer.add(Rect{0, 400, 500, 500});
  Area prev = 0;
  for (const Coord s : {60, 100, 140, 200, 300, 400}) {
    const Area ca = short_critical_area(layer, s);
    EXPECT_GE(ca, prev) << "s=" << s;
    prev = ca;
  }
}

TEST(ShortCriticalArea, SingleNetNeverShorts) {
  Region layer;
  layer.add(Rect{0, 0, 1000, 100});
  layer.add(Rect{0, 0, 100, 1000});  // same connected net
  EXPECT_EQ(short_critical_area(layer, 500), 0);
}

TEST(OpenCriticalArea, ThinWireBreaks) {
  const Region wire{Rect{0, 0, 1000, 50}};
  EXPECT_EQ(open_critical_area(wire, 50), 0);  // defect == width: no break
  EXPECT_EQ(open_critical_area(wire, 80), static_cast<Area>(30) * 1000);
}

TEST(OpenCriticalArea, MonotoneInDefectSize) {
  const Region wire{Rect{0, 0, 2000, 56}};
  Area prev = 0;
  for (const Coord s : {40, 60, 100, 200, 400}) {
    const Area ca = open_critical_area(wire, s);
    EXPECT_GE(ca, prev);
    prev = ca;
  }
}

TEST(OpenCriticalArea, McAgreesOnStraightWire) {
  const Region wire{Rect{0, 0, 2000, 60}};
  const Coord s = 150;
  const Area analytic = open_critical_area(wire, s);
  const Area mc = open_critical_area_mc(wire, s, 20000, 99);
  // MC includes end effects; require agreement within 35%.
  EXPECT_NEAR(static_cast<double>(mc), static_cast<double>(analytic),
              0.35 * static_cast<double>(analytic));
}

TEST(AverageCriticalArea, WeightsSmallDefectsMore) {
  // ca(s) = s^2 (defect area); with 1/s^3 weighting the small sizes
  // dominate, so ECA is far below ca(xmax).
  DefectModel m;
  m.x0 = 40;
  m.xmax = 1000;
  const double eca = average_critical_area(
      [](Coord s) { return static_cast<Area>(s) * s; }, m, 64);
  EXPECT_GT(eca, static_cast<double>(40) * 40);
  EXPECT_LT(eca, static_cast<double>(1000) * 1000 / 10);
}

TEST(YieldModels, PoissonAndNegativeBinomial) {
  EXPECT_DOUBLE_EQ(poisson_yield(0.0), 1.0);
  EXPECT_NEAR(poisson_yield(1.0), 0.3678794, 1e-6);
  // NB approaches Poisson as alpha -> infinity.
  EXPECT_NEAR(negative_binomial_yield(1.0, 1e9), poisson_yield(1.0), 1e-6);
  // Clustering (small alpha) gives higher yield at equal lambda.
  EXPECT_GT(negative_binomial_yield(1.0, 0.5), poisson_yield(1.0));
}

TEST(LayerLambda, ScalesWithWireLength) {
  Region small;
  small.add(Rect{0, 0, 2000, 56});
  small.add(Rect{0, 200, 2000, 256});
  Region large;
  for (int i = 0; i < 10; ++i) {
    large.add(Rect{0, i * 200, 2000, i * 200 + 56});
  }
  DefectModel m;
  m.d0 = 100;
  const double ls = layer_lambda(small, m, /*shorts=*/true);
  const double ll = layer_lambda(large, m, true);
  EXPECT_GT(ll, 4 * ls);
  EXPECT_GT(poisson_yield(ls), poisson_yield(ll));
}

TEST(ViaYield, DoublingHelps) {
  const double f = 1e-4;
  const double y_all_single = via_yield(1000, 0, f);
  const double y_all_double = via_yield(0, 1000, f);
  EXPECT_GT(y_all_double, y_all_single);
  EXPECT_NEAR(y_all_double, 1.0, 1e-4);
  EXPECT_NEAR(y_all_single, std::exp(-1000 * f), 1e-3);
}

LayerMap via_design(std::uint64_t seed, int count) {
  Library lib{"v"};
  const auto c = lib.new_cell("c");
  Rng rng(seed);
  add_via_field(lib.cell(c), rng, Tech::standard(), {0, 0}, count);
  LayerMap m;
  for (const LayerKey k : {layers::kVia1, layers::kMetal1, layers::kMetal2}) {
    m.emplace(k, lib.flatten(c, k));
  }
  return m;
}

TEST(ViaDoubling, InsertsBesideIsolatedVias) {
  const LayerMap m = via_design(17, 30);
  const ViaDoublingResult res =
      double_vias(LayoutSnapshot(m), Tech::standard());
  EXPECT_EQ(res.singles_before, 30);
  EXPECT_GT(res.inserted, 15) << "open field: most vias must double";
  EXPECT_EQ(res.inserted + res.blocked, res.singles_before);
  // Every new via keeps spacing to the originals.
  const Tech& t = Tech::standard();
  for (const Region& nv : res.new_vias.components()) {
    const Coord d = region_distance(nv, m.at(layers::kVia1), t.via_space + 1);
    EXPECT_GE(d, t.via_space);
  }
}

TEST(ViaDoubling, RespectsCrowdedNeighbours) {
  // A tight via cluster: spacing blocks most redundant positions.
  Library lib{"v"};
  const auto c = lib.new_cell("c");
  const Tech& t = Tech::standard();
  // Grid at exactly min spacing: no room for any doubling between them.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      add_via(lib.cell(c), t,
              {i * (t.via_size + t.via_space), j * (t.via_size + t.via_space)},
              ViaStyle::kSymmetric);
    }
  }
  LayerMap m;
  for (const LayerKey k : {layers::kVia1, layers::kMetal1, layers::kMetal2}) {
    m.emplace(k, lib.flatten(c, k));
  }
  const ViaDoublingResult res = double_vias(LayoutSnapshot(m), t);
  // Only outer ring positions can work; the centre via must be blocked.
  EXPECT_LT(res.inserted, 9);
}

TEST(ViaDoubling, InsertedViasAreEnclosed) {
  const LayerMap m = via_design(23, 20);
  const Tech& t = Tech::standard();
  const ViaDoublingResult res = double_vias(LayoutSnapshot(m), t);
  ASSERT_GT(res.inserted, 0);
  const Region m1 = m.at(layers::kMetal1) | res.new_metal1;
  const Region m2 = m.at(layers::kMetal2) | res.new_metal2;
  const Coord enc = t.via_enclosure / 2;
  EXPECT_TRUE((res.new_vias.bloated(enc) - m1).empty());
  EXPECT_TRUE((res.new_vias.bloated(enc) - m2).empty());
}

// Designs for the cluster identity: random via fields, a via grid at
// the insertion pitch (one cluster whose members compete for positions),
// and generated designs with routed vias.
std::vector<LayerMap> cluster_designs() {
  std::vector<LayerMap> out = {via_design(17, 30), via_design(23, 64)};
  const Tech& t = Tech::standard();
  Library lib{"v"};
  const auto c = lib.new_cell("c");
  const Coord pitch = 2 * (t.via_size + t.via_space) + 10;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      add_via(lib.cell(c), t, {i * pitch, j * pitch}, ViaStyle::kSymmetric);
    }
  }
  LayerMap grid;
  for (const LayerKey k : {layers::kVia1, layers::kMetal1, layers::kMetal2}) {
    grid.emplace(k, lib.flatten(c, k));
  }
  out.push_back(std::move(grid));
  {
    // Two vias whose candidate hulls are closer than via_space but do not
    // touch: the first inserts to its right, and the second, whose right
    // candidate a long via blocks, must then find its left candidate too
    // close to that insertion.
    Library pair{"p"};
    const auto pc = pair.new_cell("p");
    const Coord x = 2 * (t.via_size + t.via_space) + t.via_size + 35;
    add_via(pair.cell(pc), t, {0, 0}, ViaStyle::kSymmetric);
    add_via(pair.cell(pc), t, {x, 0}, ViaStyle::kSymmetric);
    pair.cell(pc).add(layers::kVia1, Rect{x + 175, -25, x + 225, 95});
    LayerMap m;
    for (const LayerKey k : {layers::kVia1, layers::kMetal1, layers::kMetal2}) {
      m.emplace(k, pair.flatten(pc, k));
    }
    out.push_back(std::move(m));
  }
  for (const std::uint64_t seed : {3u, 11u}) {
    DesignParams p;
    p.seed = seed;
    p.rows = 3;
    p.cells_per_row = 8;
    p.routes = 24;
    p.via_fields = 2;
    p.vias_per_field = 32;
    const Library gen = generate_design(p);
    LayerMap m;
    for (const LayerKey k : {layers::kVia1, layers::kMetal1, layers::kMetal2}) {
      m.emplace(k, gen.flatten(gen.top_cells()[0], k));
    }
    out.push_back(std::move(m));
  }
  return out;
}

// The cluster decomposition is exact: doubling each cluster on its own,
// in shuffled order and on a pool, sums to the whole layer doubled as one
// sequence (every single via in labelling order, sharing one list of
// inserted vias).
TEST(ViaClusters, UnionEqualsWholeLayer) {
  const Tech& t = Tech::standard();
  std::size_t shared = 0;  // clusters with more than one member
  std::uint64_t seed = 1;
  for (const LayerMap& m : cluster_designs()) {
    const LayoutSnapshot snap{LayerMap(m)};
    const LayerComponents& vias = snap.components(layers::kVia1);
    std::vector<std::uint32_t> singles;
    for (std::uint32_t i = 0; i < vias.boxes.size(); ++i) {
      if (vias.boxes[i].width() <= t.via_size &&
          vias.boxes[i].height() <= t.via_size) {
        singles.push_back(i);
      }
    }
    const ViaDoublingResult whole = double_via_cluster(snap, singles, t);
    ASSERT_GT(whole.inserted, 0);
    EXPECT_EQ(double_vias(snap, t), whole);

    std::vector<std::vector<std::uint32_t>> clusters = via_clusters(vias, t);
    std::vector<std::uint32_t> members;
    for (const std::vector<std::uint32_t>& c : clusters) {
      EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
      members.insert(members.end(), c.begin(), c.end());
      if (c.size() > 1) ++shared;
    }
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, singles) << "clusters partition the single vias";

    Rng rng(seed++);
    for (std::size_t i = clusters.size(); i > 1; --i) {
      std::swap(clusters[i - 1], clusters[rng.index(i)]);
    }
    for (const unsigned threads : {1u, 8u}) {
      ThreadPool pool(threads);
      const std::vector<ViaDoublingResult> parts =
          parallel_map(&pool, clusters.size(), [&](std::size_t i) {
            return double_via_cluster(snap, clusters[i], t);
          });
      ViaDoublingResult sum;
      for (const ViaDoublingResult& r : parts) sum += r;
      EXPECT_EQ(sum, whole) << "threads " << threads;
    }
  }
  EXPECT_GT(shared, 0u) << "no cluster had two members";
}

// via_reach bounds what a cluster reads: an M1 pad edit one dbu beyond it
// reuses the cluster's cached result, one at it recomputes the cluster,
// and both reports equal a cold run.
TEST(ViaClusters, EditBeyondReachKeepsCluster) {
  const Tech& t = Tech::standard();
  Library lib{"v"};
  const auto c = lib.new_cell("c");
  add_via(lib.cell(c), t, {0, 0}, ViaStyle::kSymmetric);
  add_via(lib.cell(c), t, {20000, 0}, ViaStyle::kSymmetric);
  // Corner marks keep the bbox fixed under the edits.
  lib.cell(c).add(layers::kMetal1, Rect{-5000, -5000, -4900, -4900});
  lib.cell(c).add(layers::kMetal1, Rect{25000, 5000, 25100, 5100});
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, lib.flatten(c, k));
  }
  const Rect vb = LayoutSnapshot{LayerMap(m)}.components(layers::kVia1).boxes[0];
  DfmFlowOptions opt;
  opt.threads = 2;
  opt.passes = {"via_doubling"};
  for (const Coord d : {via_reach(t) + 1, via_reach(t)}) {
    SCOPED_TRACE("distance " + std::to_string(d));
    DfmFlowSession session(m, opt);
    LayerMap shadow = m;
    LayoutDelta delta;
    delta.add(layers::kMetal1,
              Rect{vb.hi.x + d, vb.lo.y, vb.hi.x + d + 60, vb.lo.y + 60});
    delta.apply(shadow);
    const DfmFlowReport& warm = session.apply(delta);
    EXPECT_TRUE(reports_equivalent(
        warm, run_dfm_flow(LayoutSnapshot(std::move(shadow)), opt)));
    const PassTrace* vias = warm.trace.find("via_doubling");
    ASSERT_NE(vias, nullptr);
    EXPECT_EQ(vias->total_units, 2u);
    EXPECT_EQ(vias->dirty_units, d > via_reach(t) ? 0u : 1u);
  }
}

TEST(NetAwareShorts, ConnectedThroughViaIsNotAShort) {
  // Two M2 stubs close together but strapped to the same M1 bus through
  // vias: layer-local analysis calls them a short risk, net-aware does not.
  Region stub_a{Rect{0, 0, 60, 400}};
  Region stub_b{Rect{160, 0, 220, 400}};  // 100 apart
  Region both = stub_a | stub_b;

  const Coord s = 200;  // bridges the 100 gap
  EXPECT_GT(short_critical_area(both, s), 0);

  // Same net label: no short.
  EXPECT_EQ(short_critical_area_nets({stub_a, stub_b}, {7, 7}, s), 0);
  // Different nets: matches the layer-local result.
  EXPECT_EQ(short_critical_area_nets({stub_a, stub_b}, {1, 2}, s),
            short_critical_area(both, s));
}

TEST(NetAwareShorts, MixedNetsCountOnlyCrossNetPairs) {
  // Three wires; the outer two share a net.
  Region w0{Rect{0, 0, 60, 1000}};
  Region w1{Rect{160, 0, 220, 1000}};
  Region w2{Rect{320, 0, 380, 1000}};
  const Coord s = 160;
  const Area all_distinct =
      short_critical_area_nets({w0, w1, w2}, {0, 1, 2}, s);
  const Area outer_shared =
      short_critical_area_nets({w0, w1, w2}, {0, 1, 0}, s);
  EXPECT_GT(all_distinct, 0);
  // w0-w2 are 260 apart (> s), so sharing their net changes nothing here;
  // but sharing w0-w1 removes that pair entirely.
  const Area adjacent_shared =
      short_critical_area_nets({w0, w1, w2}, {0, 0, 2}, s);
  EXPECT_LT(adjacent_shared, all_distinct);
  EXPECT_EQ(outer_shared, all_distinct);
}

// ---- Batched kernel vs the per-size reference ----------------------------
//
// The reference is the unbatched algorithm, kept here verbatim: group the
// nets again for every size, bloat, count double coverage, and integrate
// by calling ca(s) inside the trapezoid loop. The batched kernel hoists
// the grouping, fans the sizes out on a pool and integrates afterwards;
// every integer and every double must come out the same.

Area reference_short_ca(const Region& layer, Coord s) {
  if (s <= 0 || layer.empty()) return 0;
  std::vector<Rect> bloated;
  for (const Region& net : layer.scaled(2).components()) {
    const Region grown = net.bloated(s);
    for (const Rect& r : grown.rects()) bloated.push_back(r);
  }
  return covered_at_least(bloated, 2).area() / 4;
}

Area reference_short_ca_nets(const std::vector<Region>& pieces,
                             const std::vector<int>& net_of, Coord s) {
  if (s <= 0 || pieces.empty() || pieces.size() != net_of.size()) return 0;
  std::map<int, Region> nets;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    nets[net_of[i]].add(pieces[i]);
  }
  std::vector<Rect> bloated;
  for (auto& [id, net] : nets) {
    const Region grown = net.scaled(2).bloated(s);
    for (const Rect& r : grown.rects()) bloated.push_back(r);
  }
  return covered_at_least(bloated, 2).area() / 4;
}

double reference_average(const std::function<Area(Coord)>& ca,
                         const DefectModel& model, int steps) {
  const double a = static_cast<double>(model.x0);
  const double b = static_cast<double>(model.xmax);
  if (steps < 2 || b <= a) return 0.0;
  const double ratio = std::pow(b / a, 1.0 / (steps - 1));
  double prev_s = a;
  double prev_v = static_cast<double>(ca(model.x0)) * model.pdf(model.x0);
  double acc = 0.0;
  double s = a;
  for (int i = 1; i < steps; ++i) {
    s *= ratio;
    const auto si = static_cast<Coord>(std::llround(s));
    const double v = static_cast<double>(ca(si)) * model.pdf(si);
    acc += 0.5 * (prev_v + v) * (s - prev_s);
    prev_s = s;
    prev_v = v;
  }
  return acc;
}

double reference_lambda(double eca_nm2, const DefectModel& model) {
  const double eca_cm2 = eca_nm2 / 1e14;
  return model.d0 * eca_cm2;
}

struct KernelDesign {
  LayerMap layers;                // normalized M1 and M2
  std::vector<Region> m2_pieces;  // per-net M2 shapes, as the flow builds
  std::vector<int> m2_net_of;
};

KernelDesign kernel_design(std::uint64_t seed) {
  DesignParams p;
  p.seed = seed;
  p.rows = 2;
  p.cells_per_row = 4;
  p.routes = 10;
  p.via_fields = 1;
  p.vias_per_field = 16;
  const Library lib = generate_design(p);
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, lib.flatten(lib.top_cells()[0], k));
  }
  const LayoutSnapshot snap(std::move(m));
  KernelDesign d;
  for (const LayerKey k : {layers::kMetal1, layers::kMetal2}) {
    d.layers.emplace(k, snap.layer(k).region());
  }
  const Netlist nets = extract_nets(snap, standard_stack());
  for (std::size_t ni = 0; ni < nets.nets.size(); ++ni) {
    if (const Region* piece = nets.nets[ni].on(layers::kMetal2)) {
      d.m2_pieces.push_back(*piece);
      d.m2_net_of.push_back(static_cast<int>(ni));
    }
  }
  return d;
}

class CriticalAreaKernel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CriticalAreaKernel, EverySizeMatchesPerSizeReference) {
  const KernelDesign d = kernel_design(GetParam());
  const DefectModel model;
  for (const LayerKey k : {layers::kMetal1, layers::kMetal2}) {
    const Region& layer = d.layers.at(k);
    ASSERT_FALSE(layer.empty());
    const ShortNets nets = ShortNets::of_layer(layer);
    for (const int steps : {16, 24}) {
      const std::vector<Coord> sizes = defect_size_grid(model, steps);
      ASSERT_EQ(sizes.size(), static_cast<std::size_t>(steps));
      std::vector<Area> want;
      for (const Coord s : sizes) want.push_back(reference_short_ca(layer, s));
      ASSERT_GT(want.back(), 0) << "the largest defect must short something";
      for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(short_critical_areas(nets, sizes, &pool), want)
            << "layer " << to_string(k) << " steps " << steps << " threads "
            << threads;
      }
      for (std::size_t i = 0; i < sizes.size(); i += 5) {
        EXPECT_EQ(short_critical_area(layer, sizes[i]), want[i]);
      }
    }
  }
}

TEST_P(CriticalAreaKernel, NetAwareShortsMatchPerSizeReference) {
  const KernelDesign d = kernel_design(GetParam());
  ASSERT_FALSE(d.m2_pieces.empty());
  const DefectModel model;
  const ShortNets nets = ShortNets::of_pieces(d.m2_pieces, d.m2_net_of);
  const auto ref = [&](Coord s) {
    return reference_short_ca_nets(d.m2_pieces, d.m2_net_of, s);
  };
  for (const int steps : {16, 24}) {
    const std::vector<Coord> sizes = defect_size_grid(model, steps);
    std::vector<Area> want;
    for (const Coord s : sizes) want.push_back(ref(s));
    ASSERT_GT(want.back(), 0) << "the largest defect must short two nets";
    const double want_eca = reference_average(ref, model, steps);
    for (const unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(short_critical_areas(nets, sizes, &pool), want)
          << "steps " << steps << " threads " << threads;
      EXPECT_EQ(average_short_critical_area(nets, model, steps, &pool),
                want_eca)
          << "steps " << steps << " threads " << threads;
    }
    EXPECT_EQ(average_critical_area(
                  [&](Coord s) {
                    return short_critical_area_nets(d.m2_pieces, d.m2_net_of,
                                                    s);
                  },
                  model, steps),
              want_eca);
  }
}

TEST_P(CriticalAreaKernel, LayerLambdaMatchesReference) {
  const KernelDesign d = kernel_design(GetParam());
  DefectModel model;
  model.d0 = 0.7;
  for (const LayerKey k : {layers::kMetal1, layers::kMetal2}) {
    const Region& layer = d.layers.at(k);
    for (const int steps : {16, 24}) {
      const auto shorts_ca = [&](Coord s) {
        return reference_short_ca(layer, s);
      };
      const auto opens_ca = [&](Coord s) {
        return open_critical_area(layer, s);
      };
      const double shorts =
          reference_lambda(reference_average(shorts_ca, model, steps), model);
      const double opens =
          reference_lambda(reference_average(opens_ca, model, steps), model);
      EXPECT_EQ(layer_lambda(layer, model, /*shorts=*/true, steps), shorts);
      EXPECT_EQ(layer_lambda(layer, model, /*shorts=*/false, steps), opens);
    }
  }
}

// The per-tile kernel the flow splices: over a TileGrid, the tiles' owned
// 2x-grid areas sum, divided by 4, to the whole-layer kernel's integer
// at every size, for the layer-local nets (the M1 term) and for one
// region per net (the M2 net-aware term). The flow calls it from inside
// a pool task with the same pool, so each tile runs that way too, and
// must equal the serial call bit for bit at every thread count.
TEST_P(CriticalAreaKernel, TilesSumToWholeLayerAndPoolMatchesSerial) {
  const KernelDesign d = kernel_design(GetParam());
  const DefectModel model;
  LayerComponents m2_nets;
  for (const Region& piece : d.m2_pieces) {
    m2_nets.boxes.push_back(piece.bbox());
    m2_nets.regions.push_back(piece);
  }
  m2_nets.index.build(m2_nets.boxes);
  const LayerComponents m1 = LayerComponents::of(d.layers.at(layers::kMetal1));
  const struct {
    const char* what;
    const LayerComponents& comps;
    ShortNets whole;
    int steps;
  } terms[] = {
      {"m1", m1, ShortNets::of_layer(d.layers.at(layers::kMetal1)), 24},
      {"m2 nets", m2_nets, ShortNets::of_pieces(d.m2_pieces, d.m2_net_of), 16},
  };
  const TileGrid grid(bounding_box({d.layers.at(layers::kMetal1).bbox(),
                                    d.layers.at(layers::kMetal2).bbox()}),
                      1000);
  ASSERT_GE(grid.size(), 6u);
  for (const auto& term : terms) {
    SCOPED_TRACE(term.what);
    const std::vector<Coord> sizes = defect_size_grid(model, term.steps);
    std::vector<std::vector<Area>> serial;
    std::vector<Area> sum(sizes.size(), 0);
    for (std::size_t t = 0; t < grid.size(); ++t) {
      serial.push_back(short_critical_areas_tile(term.comps, sizes, grid, t));
      for (std::size_t i = 0; i < sizes.size(); ++i) sum[i] += serial[t][i];
    }
    for (Area& a : sum) a /= 4;
    const std::vector<Area> want = short_critical_areas(term.whole, sizes);
    ASSERT_GT(want.back(), 0) << "the largest defect must short something";
    EXPECT_EQ(sum, want);
    for (const unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const auto pooled = parallel_map(&pool, grid.size(), [&](std::size_t t) {
        return short_critical_areas_tile(term.comps, sizes, grid, t, &pool);
      });
      EXPECT_EQ(pooled, serial) << "threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalAreaKernel,
                         ::testing::Values(3u, 17u, 29u));

TEST(CriticalAreaGrid, DegenerateInputs) {
  const DefectModel model;
  EXPECT_TRUE(defect_size_grid(model, 1).empty());
  EXPECT_EQ(integrate_critical_area({}, model), 0.0);
  const std::vector<Coord> sizes = defect_size_grid(model, 16);
  EXPECT_EQ(short_critical_areas(ShortNets::of_layer(Region{}), sizes),
            std::vector<Area>(sizes.size(), 0));
  // Mismatched labels group nothing, as the per-size entry point returns 0.
  EXPECT_TRUE(
      ShortNets::of_pieces({Region{Rect{0, 0, 10, 10}}}, {}).nets2x().empty());
}

}  // namespace
}  // namespace dfm

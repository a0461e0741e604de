// Figure 1 — Runtime scaling of the pattern engine ("full-chip capable").
//
// google-benchmark series over design size: flatten + anchor capture +
// catalog build, and the match scan, at 1e3..1e5 flat shapes. The claim
// under test: pattern extraction scales ~linearly in layout size.
#include "core/snapshot.h"
#include "gen/generators.h"
#include "pattern/catalog.h"
#include "pattern/matcher.h"

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

namespace {

using namespace dfm;

const std::vector<LayerKey> kOn = {layers::kVia1, layers::kMetal1,
                                   layers::kMetal2};

// LayoutSnapshot is immovable (memoization primitives pin its address),
// so the per-scale cache holds each workload behind a unique_ptr.
struct Workload {
  std::unique_ptr<LayoutSnapshot> snap;
  std::size_t flat_shapes = 0;
};

const Workload& workload_for(int scale) {
  static std::map<int, Workload> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    DesignParams p;
    p.seed = static_cast<std::uint64_t>(scale);
    p.name = "s" + std::to_string(scale);
    p.rows = scale;
    p.cells_per_row = 4 * scale;
    p.routes = 10 * scale;
    p.via_fields = scale;
    p.vias_per_field = 64;
    const Library lib = generate_design(p);
    const auto top = lib.top_cell();
    Workload w;
    w.flat_shapes = lib.flat_shape_count(top);
    w.snap = std::make_unique<LayoutSnapshot>(lib, top, kOn);
    it = cache.emplace(scale, std::move(w)).first;
  }
  return it->second;
}

void BM_CatalogBuild(benchmark::State& state) {
  const Workload& w = workload_for(static_cast<int>(state.range(0)));
  std::size_t windows = 0;
  for (auto _ : state) {
    const PatternCatalog cat =
        build_catalog(*w.snap, kOn, layers::kVia1, 120);
    windows = cat.total_windows();
    benchmark::DoNotOptimize(windows);
  }
  state.counters["flat_shapes"] =
      static_cast<double>(w.flat_shapes);
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["windows/s"] = benchmark::Counter(
      static_cast<double>(windows), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_PatternScan(benchmark::State& state) {
  const Workload& w = workload_for(static_cast<int>(state.range(0)));
  // A one-rule deck: the most frequent via pattern of this design.
  const PatternCatalog cat = build_catalog(*w.snap, kOn, layers::kVia1, 120);
  PatternRule rule;
  rule.name = "top";
  rule.pattern = cat.by_frequency().front()->pattern;
  const PatternMatcher matcher{{rule}};
  std::size_t matches = 0;
  for (auto _ : state) {
    matches = matcher.scan_anchors(*w.snap, kOn, layers::kVia1, 120).size();
    benchmark::DoNotOptimize(matches);
  }
  state.counters["flat_shapes"] = static_cast<double>(w.flat_shapes);
  state.counters["matches"] = static_cast<double>(matches);
}

BENCHMARK(BM_CatalogBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PatternScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

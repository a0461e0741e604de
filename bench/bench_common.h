// Shared helpers for the bench binaries: timing, design construction
// with labelled injected defects, and snapshot construction (the shared
// flatten/normalize/index substrate every bench routes through).
#pragma once

#include "core/report.h"
#include "core/snapshot.h"
#include "drc/engine.h"
#include "gen/generators.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace dfm::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct TestDesign {
  Library lib;
  std::uint32_t top = 0;
  std::vector<Injection> injections;  // ground-truth labelled defects
};

/// A routed design plus `defects` labelled pathological constructs
/// injected into a reserved strip below the core.
inline TestDesign make_design_with_defects(std::uint64_t seed, int rows,
                                           int cells_per_row, int routes,
                                           int defects) {
  DesignParams p;
  p.seed = seed;
  p.name = "bench" + std::to_string(seed);
  p.rows = rows;
  p.cells_per_row = cells_per_row;
  p.routes = routes;
  TestDesign d{generate_design(p), 0, {}};
  d.top = d.lib.top_cell();
  if (defects > 0) {
    Rng rng(seed ^ 0xD0D0);
    const Rect core = d.lib.bbox(d.top);
    const Rect strip{core.lo.x, core.lo.y - 60000, core.hi.x + 60000,
                     core.lo.y - 4000};
    d.injections = inject_pathologies(d.lib.cell(d.top), rng, p.tech, strip,
                                      defects);
  }
  return d;
}

/// The f1 runtime-scaling design family (perfbench's too): `scale` rows
/// of 4 * scale cells, 10 * scale routes and `scale` via fields of 64
/// vias.
inline Library scaling_design(std::uint64_t seed, int scale) {
  DesignParams p;
  p.seed = seed;
  p.name = "s" + std::to_string(scale);
  p.rows = scale;
  p.cells_per_row = 4 * scale;
  p.routes = 10 * scale;
  p.via_fields = scale;
  p.vias_per_field = 64;
  return generate_design(p);
}

/// The standard flow snapshot of a design: flattened + normalized once,
/// derived products memoized. LayoutSnapshot is immovable, so bind the
/// result directly (`const LayoutSnapshot snap = make_snapshot(...)`) —
/// guaranteed copy elision constructs it in place.
inline LayoutSnapshot make_snapshot(const Library& lib, std::uint32_t top,
                                    ThreadPool* pool = nullptr) {
  return LayoutSnapshot(lib, top, pool);
}

/// Same over an explicit layer set.
inline LayoutSnapshot make_snapshot(const Library& lib, std::uint32_t top,
                                    std::vector<LayerKey> keys,
                                    ThreadPool* pool = nullptr) {
  return LayoutSnapshot(lib, top, std::move(keys), pool);
}

/// True when any marker in `markers` overlaps `where`.
inline bool any_overlap(const std::vector<Rect>& markers, const Rect& where) {
  for (const Rect& m : markers) {
    if (m.overlaps(where)) return true;
  }
  return false;
}

}  // namespace dfm::bench

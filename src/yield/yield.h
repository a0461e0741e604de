// Defect-limited yield: critical area analysis for shorts and opens with
// square (Chebyshev) defects, the classical power-law defect size
// distribution, Poisson / negative-binomial yield models, and the
// redundant-via insertion engine.
#pragma once

#include "geometry/region.h"
#include "layout/tech.h"
#include "layout/tile_grid.h"

#include <functional>
#include <vector>

namespace dfm {

class LayoutDelta;     // core/delta.h
class LayoutSnapshot;  // core/snapshot.h
class ThreadPool;      // core/parallel.h
struct LayerComponents;  // core/snapshot.h

/// Power-law defect size distribution f(s) ~ 1/s^k on [x0, xmax] — the
/// standard model in the critical-area literature (k = 3 typical).
struct DefectModel {
  double d0 = 1.0;      // defect density, defects per cm^2
  Coord x0 = 40;        // smallest defect, nm
  Coord xmax = 2000;    // largest defect, nm
  double exponent = 3.0;

  /// Normalized pdf at size s (nm^-1); 0 outside [x0, xmax].
  double pdf(Coord s) const;

  /// Fault rate for an expected critical area: d0 [cm^-2] x eca, with
  /// the nm^2 -> cm^2 conversion.
  double lambda(double eca_nm2) const { return d0 * (eca_nm2 / 1e14); }
};

/// Shapes grouped into nets for the batched shorts kernel: one region
/// per net, on the doubled grid (so odd defect sizes stay exact) and
/// normalized when built, so every size can read the groups at once
/// from any thread. Building it is the size-invariant half of shorts
/// analysis; do it once per layer, not once per size.
class ShortNets {
 public:
  /// One net per connected component of `layer` (layer-local estimate).
  static ShortNets of_layer(const Region& layer);
  /// One net per distinct `net_of[i]` label, the union of its `pieces`;
  /// empty when the two vectors disagree in length.
  static ShortNets of_pieces(const std::vector<Region>& pieces,
                             const std::vector<int>& net_of);

  const std::vector<Region>& nets2x() const { return nets2x_; }

 private:
  std::vector<Region> nets2x_;
};

/// The batched shorts kernel: short critical area of `nets` at each of
/// `sizes` (out[i] for sizes[i]). Sizes fan out on `pool` (null = serial);
/// each size is computed serially on its own, so every entry is the same
/// integer at any thread count.
std::vector<Area> short_critical_areas(const ShortNets& nets,
                                       const std::vector<Coord>& sizes,
                                       ThreadPool* pool = nullptr);

/// How far an edit reaches a tile's row of short_critical_areas_tile:
/// half the largest size, rounded up. A net whose layout distance to a
/// tile's cell is at least this cannot cover a point of the cell at any
/// of `sizes`, and every net closer can.
Coord short_reach(const std::vector<Coord>& sizes);

/// The batched shorts kernel over one tile of `grid`, for the
/// layer-local nets (one per component of `comps`): out[i] is the 2x-grid
/// area of the shorts critical region at sizes[i] that tile t's cell
/// owns. Summed over every tile and divided by 4, each size gives
/// exactly short_critical_areas' integer. Reads the components within
/// the largest size's reach of the tile only: each is clipped to the
/// tile's cell grown by s/2 + 2 before it is bloated, which leaves the
/// coverage inside the cell unchanged. Sizes fan out on `pool` (null =
/// serial; a call from inside a pool task nests safely); each size's
/// integer is computed serially on its own, so the result is the same at
/// any thread count.
std::vector<Area> short_critical_areas_tile(const LayerComponents& comps,
                                            const std::vector<Coord>& sizes,
                                            const TileGrid& grid, std::size_t t,
                                            ThreadPool* pool = nullptr);

/// Critical area for *shorts* at one defect size: the set of defect
/// centers where a square defect of side `s` bridges two distinct nets
/// (connected components). Exact under the Chebyshev defect model.
Area short_critical_area(const Region& layer, Coord s);

/// Net-aware variant: shapes are grouped into electrical nets first
/// (`net_of[i]` labels `pieces[i]`), so two same-layer shapes joined
/// through another layer do not count as a short. Strictly <= the
/// layer-local estimate.
Area short_critical_area_nets(const std::vector<Region>& pieces,
                              const std::vector<int>& net_of, Coord s);

/// Critical area for *opens* at one defect size: per-band analytic
/// approximation — a square defect of side `s` centered in a wire band of
/// cross-section h contributes (s - h) of breakable strip per unit
/// length. Exact for isolated straight wires; approximate at junctions.
Area open_critical_area(const Region& layer, Coord s);

/// Monte Carlo estimator for opens (connectivity-checked); for
/// cross-validation of the analytic approximation.
Area open_critical_area_mc(const Region& layer, Coord s, int samples,
                           std::uint64_t seed);

/// The geometric grid of `steps` defect sizes from x0 to xmax that the
/// expected critical area is integrated on (empty when steps < 2 or
/// xmax <= x0).
std::vector<Coord> defect_size_grid(const DefectModel& model, int steps);

/// Trapezoidal integral of ca[i] * pdf over defect_size_grid(model,
/// ca.size()), accumulated in index order.
double integrate_critical_area(const std::vector<Area>& ca,
                               const DefectModel& model);

/// Expected critical area over the defect size distribution, integrated
/// on a geometric grid of `steps` sizes.
double average_critical_area(const std::function<Area(Coord)>& ca,
                             const DefectModel& model, int steps = 24);

/// Expected short critical area of `nets`: the batched kernel over the
/// size grid, integrated in index order. Bit-identical at any pool size.
double average_short_critical_area(const ShortNets& nets,
                                   const DefectModel& model, int steps,
                                   ThreadPool* pool = nullptr);

/// Poisson yield: exp(-lambda).
double poisson_yield(double lambda);
/// Negative binomial (clustered defects): (1 + lambda/alpha)^-alpha.
double negative_binomial_yield(double lambda, double alpha);

/// Fault rate lambda for one layer: d0 [cm^-2] x expected critical area,
/// with nm^2 -> cm^2 conversion.
double layer_lambda(const Region& layer, const DefectModel& model,
                    bool shorts, int steps = 24);

// ---- Redundant via insertion ----------------------------------------------

struct ViaDoublingResult {
  int total = 0;            // single-cut via sites examined
  int redundant_before = 0; // sites that already have a redundant partner
  int singles_before = 0;   // sites without redundancy in the input
  int inserted = 0;         // redundant vias successfully added
  int blocked = 0;          // singles with no legal position
  Region new_vias;          // the added via shapes
  Region new_metal1;        // landing-pad extensions added
  Region new_metal2;

  /// Adds the counts and shapes of `o` (a disjoint part of the layout's
  /// result, such as one cluster's).
  ViaDoublingResult& operator+=(const ViaDoublingResult& o);

  friend bool operator==(const ViaDoublingResult&,
                         const ViaDoublingResult&) = default;
};

/// How far from a single via's box doubling it reads the layout (vias
/// and both metals), in Chebyshev distance: the partner test reads the
/// metal under the joint pad with any single within two steps (step =
/// via_size + via_space), which ends within 2 * step + via_size +
/// enclosure/2 of the box; a candidate reads the vias within via_space
/// of itself and the metal within the larger metal space + 1 of its pad.
/// An edit farther than this from every member of a cluster cannot
/// change the cluster's result.
Coord via_reach(const Tech& tech);

/// The interaction clusters of the single vias in `vias` (the via
/// layer's labelling), as labelling indices: each cluster in labelling
/// order, clusters in order of their first member. Doubling is
/// sequential only through the vias it has inserted, and two singles'
/// candidates can come within via_space of each other only when the
/// hulls of their candidates (one step plus half a via around each
/// centre) do, so singles are linked when those hulls, one grown by
/// via_space, touch. Clusters therefore double independently, and the
/// sum of their results is the whole layer's.
std::vector<std::vector<std::uint32_t>> via_clusters(
    const LayerComponents& vias, const Tech& tech);

/// double_vias restricted to one cluster of via_clusters over the
/// snapshot's via labelling: its members, in order, against the whole
/// layout.
ViaDoublingResult double_via_cluster(const LayoutSnapshot& snap,
                                     const std::vector<std::uint32_t>& members,
                                     const Tech& tech);

/// Attempts to add a redundant via beside every isolated via, extending
/// the landing pads when needed; a position is legal when via spacing to
/// every other via is kept and the pad extension creates no new
/// metal-spacing violation. A via already paired with a neighbour on
/// the same landing pads (another cut within two steps whose joint pad
/// is covered on both metals — exactly what an insertion leaves behind)
/// counts as redundant and is left alone, so doubling is idempotent:
/// re-running on a doubled layout inserts nothing. Reads the snapshot's
/// memoized via labelling and metal R-trees, so every legality probe is
/// local to the candidate pad. The sum of double_via_cluster over
/// via_clusters.
ViaDoublingResult double_vias(const LayoutSnapshot& snap, const Tech& tech);

/// The layout edit a doubling result represents (new vias + pad
/// extensions), as a delta incremental re-analysis can apply.
LayoutDelta to_delta(const ViaDoublingResult& result);

/// Via-limited yield: singles fail at `fail_rate`, doubled pairs at
/// fail_rate^2.
double via_yield(std::int64_t singles, std::int64_t doubles, double fail_rate);

}  // namespace dfm

// Double patterning decomposition: conflict graph construction, two-
// coloring with odd-cycle extraction, stitch insertion to break odd
// cycles, and the decomposition quality score (density balance, stitch
// metrics, overlay margin) from the DPT scoring methodology papers.
#pragma once

#include "geometry/region.h"
#include "layout/layer.h"
#include "layout/tech.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace dfm {

class LayoutSnapshot;    // core/snapshot.h
struct LayerComponents;  // core/snapshot.h

struct ConflictGraph {
  std::vector<Region> nodes;                            // mergeable features
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // gap < dpt_space
  std::vector<std::vector<std::uint32_t>> adj;

  std::size_t size() const { return nodes.size(); }
};

/// Nodes = connected components of the layer; edges join nodes closer
/// than `dpt_space` (exclusive). Touching nodes are never edges (they are
/// one feature).
ConflictGraph build_conflict_graph(const Region& layer, Coord dpt_space);
/// Same, over an explicit node list (used after splitting).
ConflictGraph build_conflict_graph(std::vector<Region> nodes, Coord dpt_space);

struct ColoringResult {
  std::vector<int> color;  // 0 or 1 per node
  bool bipartite = true;
  /// One witness odd cycle per offending BFS conflict (node indices).
  std::vector<std::vector<std::uint32_t>> odd_cycles;
};

ColoringResult two_color(const ConflictGraph& g);

struct Stitch {
  Rect cut;        // the overlap strip shared by both masks
  Point location;  // cut line center

  friend bool operator==(const Stitch&, const Stitch&) = default;
};

struct Decomposition {
  Region mask_a;
  Region mask_b;
  std::vector<Stitch> stitches;
  bool compliant = false;    // no same-mask spacing violation remains
  int unresolved = 0;        // odd cycles no stitch could break
  int nodes = 0;

  friend bool operator==(const Decomposition&, const Decomposition&) = default;
};

/// The conflict units of a layer's labelling: maximal sets of components
/// linked by region_distance < dpt_space, distance 0 included (corner-
/// touching components share a unit). Members ascend; units are ordered
/// by their lowest member. Units lie at least dpt_space apart, so each
/// one colours, stitches and scores on its own, and the layer's result is
/// assembled from theirs.
std::vector<std::vector<std::uint32_t>> dpt_units(const LayerComponents& comps,
                                                  Coord dpt_space);

/// One conflict unit of `comps` decomposed on its own: colour, split
/// odd-cycle nodes at conflict-separating cuts (at most nodes + 16
/// splits; a cycle no cut can break stops the unit), emit both masks
/// with the stitch overlap strips, clipped to the unit's own features.
/// Stitches come in creation order.
Decomposition decompose_dpt_unit(const LayerComponents& comps,
                                 const std::vector<std::uint32_t>& members,
                                 const Tech& tech);

/// The layer's decomposition from its units' (in unit order): masks are
/// the union of the units' masks, stitches concatenate in unit order.
Decomposition assemble_dpt(const std::vector<const Decomposition*>& units);

/// Full decomposition flow: dpt_units over the layer's components, each
/// unit decomposed on its own, assembled in unit order.
Decomposition decompose_dpt(const Region& layer, const Tech& tech);
/// Same over one layer of a snapshot (empty layer when absent), reading
/// its memoized labelling.
Decomposition decompose_dpt(const LayoutSnapshot& snap, LayerKey layer,
                            const Tech& tech);

struct DptScore {
  double density_balance = 0;  // 1 - |areaA-areaB| / (areaA+areaB)
  double stitch_score = 0;     // 1 at zero stitches, decaying with count
  double overlay_score = 0;    // min stitch overlap / required overlap, capped
  double spacing_score = 0;    // 1 when both masks meet dpt_space
  double composite = 0;        // equal-weight mean of the above

  friend bool operator==(const DptScore&, const DptScore&) = default;
};

/// The integer inputs of a DptScore. Units lie at least dpt_space apart,
/// so a layer's partial is the sum of its units' and the score's doubles
/// come out the same either way.
struct DptPartial {
  Area area_a = 0;
  Area area_b = 0;
  std::size_t stitches = 0;
  int nodes = 0;
  /// Narrowest stitch overlap (min of cut width and height).
  Coord min_overlap = std::numeric_limits<Coord>::max();
  bool a_spacing_ok = true;  // mask A meets dpt_space
  bool b_spacing_ok = true;

  DptPartial& operator+=(const DptPartial& o);

  friend bool operator==(const DptPartial&, const DptPartial&) = default;
};

/// The partial of `d`: mask areas, stitch metrics and the same-mask
/// spacing check of both masks.
DptPartial dpt_partial(const Decomposition& d, const Tech& tech);
/// The score a partial stands for.
DptScore finish(const DptPartial& p, const Tech& tech);

/// finish(dpt_partial(d, tech), tech).
DptScore score_decomposition(const Decomposition& d, const Tech& tech);

/// What the flow caches per conflict unit.
struct DptUnitResult {
  Decomposition decomposition;
  DptPartial partial;
};

/// Density rebalancing: a 2-coloring is only unique per conflict unit
/// (dpt_units of the joint mask); flipping whole units changes nothing
/// about legality but moves area between the masks. Greedy partition
/// balancing over the units minimizes |area(A) - area(B)| — the "merely
/// changing the decomposition solution" optimization of the DPT scoring
/// paper.
Decomposition rebalance_masks(const Decomposition& d, const Tech& tech);

}  // namespace dfm

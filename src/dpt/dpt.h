// Double patterning decomposition: conflict graph construction, two-
// coloring with odd-cycle extraction, stitch insertion to break odd
// cycles, and the decomposition quality score (density balance, stitch
// metrics, overlay margin) from the DPT scoring methodology papers.
#pragma once

#include "geometry/region.h"
#include "layout/layer.h"
#include "layout/tech.h"

#include <cstdint>
#include <vector>

namespace dfm {

class LayoutSnapshot;  // core/snapshot.h

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

/// Full decomposition flow: color, split odd-cycle nodes at conflict-
/// separating cuts (bounded retries), emit masks with stitch overlap.
Decomposition decompose_dpt(const Region& layer, const Tech& tech);
namespace detail {
/// decompose_dpt with the layer's components (Region::components()
/// order, e.g. a snapshot's memoized labelling) already computed.
Decomposition decompose_dpt_nodes(const Region& layer,
                                  std::vector<Region> nodes, const Tech& tech);
}  // namespace detail
/// Same over one layer of a snapshot (empty layer when absent).
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

DptScore score_decomposition(const Decomposition& d, const Tech& tech);

/// Density rebalancing: a 2-coloring is only unique per connected piece
/// of the conflict graph; flipping whole pieces changes nothing about
/// legality but moves area between the masks. Greedy partition balancing
/// over the pieces minimizes |area(A) - area(B)| — the "merely changing
/// the decomposition solution" optimization of the DPT scoring paper.
Decomposition rebalance_masks(const Decomposition& d, const Tech& tech);

}  // namespace dfm

// LayoutDelta: the currency of incremental re-analysis. A delta is a set
// of per-layer edits — geometry added and geometry removed — produced by
// the fixing engines (FixEngine proposals, double_vias, insert_fill; see
// their to_delta() builders) or assembled by hand for explicit edits. Applying
// a delta to a layer L yields (L - removed) | added, whose canonical
// decomposition is identical to flattening the edited design from
// scratch, so every downstream pass sees exactly the geometry a cold run
// would.
#pragma once

#include "geometry/region.h"
#include "layout/layer_map.h"

#include <map>
#include <vector>

namespace dfm {

/// One layer's change set.
struct LayerDelta {
  Region added;
  Region removed;

  bool empty() const { return added.empty() && removed.empty(); }
};

class LayoutDelta {
 public:
  LayoutDelta() = default;

  void add(LayerKey k, const Rect& r);
  void add(LayerKey k, const Region& r);
  void remove(LayerKey k, const Rect& r);
  void remove(LayerKey k, const Region& r);
  /// Merges another delta on top of this one (adds after removes of the
  /// same call are the caller's responsibility to keep disjoint).
  void merge(const LayoutDelta& other);

  bool empty() const;
  /// True when the delta touches layer `k` at all.
  bool dirties(LayerKey k) const;
  const LayerDelta* find(LayerKey k) const;
  /// added | removed on layer `k`: every point whose membership may have
  /// changed. Empty when the layer is clean.
  Region dirty_region(LayerKey k) const;

  /// In-place application: layer <- (layer - removed) | added. Layers the
  /// map lacks are created when the delta adds to them.
  void apply(LayerMap& layers) const;

  const std::map<LayerKey, LayerDelta>& layers() const { return layers_; }

 private:
  std::map<LayerKey, LayerDelta> layers_;
};

}  // namespace dfm

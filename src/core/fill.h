// Dummy metal fill: non-functional squares inserted into sparse density
// tiles so CMP sees uniform pattern density — the oldest DFM technique
// in the deck. Fill keeps a spacing moat from real geometry (and from
// other fill), never lands outside the requested extent, and stops at
// the target density instead of flooding.
#pragma once

#include "geometry/region.h"
#include "layout/layer.h"
#include "layout/tech.h"

namespace dfm {

class LayoutDelta;     // core/delta.h
class LayoutSnapshot;  // core/snapshot.h

struct FillOptions {
  Coord square = 200;      // fill square edge
  Coord spacing = 120;     // moat to real geometry and other fill
  Coord tile = 5000;       // density window size
  double target_min = 0.15;  // bring every tile up to at least this
};

struct FillResult {
  Region fill;
  int tiles_below = 0;     // tiles initially under the target
  int tiles_fixed = 0;     // tiles that reached the target after fill
  int squares = 0;

  friend bool operator==(const FillResult&, const FillResult&) = default;
};

FillResult insert_fill(const Region& layer, const Rect& extent,
                       const FillOptions& options);
/// Same over one layer of a snapshot (empty layer when absent).
FillResult insert_fill(const LayoutSnapshot& snap, LayerKey layer,
                       const Rect& extent, const FillOptions& options);

/// The layout edit a fill result represents (squares added to `layer`),
/// as a delta incremental re-analysis can apply.
LayoutDelta to_delta(const FillResult& result, LayerKey layer);

}  // namespace dfm

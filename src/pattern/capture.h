// Window capture strategies: where to place pattern windows on a layout.
// Anchor-based capture centers a window on each component of an anchor
// layer (e.g. every via, for via-enclosure catalogs); grid capture slides
// a window at fixed stride (for exhaustive design-space coverage).
#pragma once

#include "pattern/topology.h"

#include "layout/layer_map.h"

#include <functional>
#include <vector>

namespace dfm {

class LayoutSnapshot;  // core/snapshot.h
class ThreadPool;      // core/parallel.h

struct CapturedPattern {
  TopologicalPattern pattern;
  Rect window;   // where it was captured
  Point anchor;  // anchor center (window center for grid capture)
};

/// Captures one window: clips every requested layer and encodes. The
/// construction-time primitive reference decks are built from; full-
/// design scans go through capture_at_anchors / capture_grid instead.
TopologicalPattern capture_window(const LayerMap& layers,
                                  const std::vector<LayerKey>& on,
                                  const Rect& window);

/// One anchor-capture site: the window a scan will clip and encode,
/// centered on a connected component of the anchor layer.
struct AnchorWindow {
  Point anchor;  // component bbox center
  Rect window;   // anchor expanded by the capture radius

  friend bool operator==(const AnchorWindow&, const AnchorWindow&) = default;
  friend auto operator<=>(const AnchorWindow&, const AnchorWindow&) = default;
};

/// The site of a component whose bounding box is `box`.
AnchorWindow anchor_window(const Rect& box, Coord radius);

/// The site list capture_at_anchors scans, in component order, without
/// capturing anything — incremental re-analysis enumerates this cheaply
/// and captures only the sites its damage regions touch.
std::vector<AnchorWindow> anchor_windows(const Region& anchor_layer,
                                         Coord radius);
/// Same over the anchor layer's components (Region::components() order,
/// e.g. LayoutSnapshot::components).
std::vector<AnchorWindow> anchor_windows(const std::vector<Region>& comps,
                                         Coord radius);

/// Captures one anchor site over the snapshot's memoized indexes.
/// capture_at_anchors(snap, ...) == capture_window_at mapped over
/// anchor_windows(...).
CapturedPattern capture_window_at(const LayoutSnapshot& snap,
                                  const std::vector<LayerKey>& on,
                                  const AnchorWindow& site);

/// Out-of-core variant of capture_window_at: clips each capture layer
/// through LayoutSnapshot::read_layer_window, so evicted layers are
/// decoded transiently per window straight from the snapshot's source —
/// no layer hydration, no R-tree build, working set bounded by the
/// window. The encoding is a pure function of the clip's canonical
/// decomposition, so the result is bit-identical to capture_window_at;
/// the budgeted flow routes pattern sets through this to keep full
/// capture layers out of the byte budget.
CapturedPattern capture_window_streamed(const LayoutSnapshot& snap,
                                        const std::vector<LayerKey>& on,
                                        const AnchorWindow& site);

/// One window per connected component of `anchor_layer`, centered on the
/// component bbox center, of half-size `radius`. Windows capture
/// concurrently on the pool but the returned vector is always in
/// component order — identical to the serial scan. Reuses the snapshot's
/// memoized per-layer R-trees, so repeated scans of one layout (DRC-Plus
/// pattern sets, catalogs) pay the indexing cost once.
std::vector<CapturedPattern> capture_at_anchors(
    const LayoutSnapshot& snap, const std::vector<LayerKey>& on,
    LayerKey anchor_layer, Coord radius, ThreadPool* pool = nullptr);

/// Sliding-window capture over `extent` at `stride`; windows of edge
/// `size`. Empty windows are skipped unless keep_empty. Parallel capture
/// preserves scan order, like capture_at_anchors.
std::vector<CapturedPattern> capture_grid(const LayoutSnapshot& snap,
                                          const std::vector<LayerKey>& on,
                                          const Rect& extent, Coord size,
                                          Coord stride,
                                          bool keep_empty = false,
                                          ThreadPool* pool = nullptr);

}  // namespace dfm

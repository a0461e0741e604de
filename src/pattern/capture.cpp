#include "pattern/capture.h"

#include "core/parallel.h"
#include "core/snapshot.h"
#include "core/telemetry.h"
#include "geometry/normalized_region.h"
#include "geometry/rtree.h"

namespace dfm {
namespace {

// Window clipping against a spatial index: O(log n + k) per window
// instead of O(n), which matters for full-design anchor scans. The view
// does not own the rects or the tree — the LayerMap path points it at
// locally-built copies, the snapshot path at the memoized products.
struct LayerIndex {
  const std::vector<Rect>* rects = nullptr;
  const RTree* tree = nullptr;

  Region clip(const Rect& window) const {
    Region out;
    tree->visit(window, [&](std::uint32_t i) {
      const Rect c = (*rects)[i].intersect(window);
      if (!c.is_empty()) out.add(c);
    });
    return out;
  }
};

const Region& layer_of(const LayerMap& layers, LayerKey k) {
  static const Region kEmpty;
  const auto it = layers.find(k);
  return it == layers.end() ? kEmpty : it->second;
}

// The snapshot's per-layer index, as a LayerIndex view. Hoisting the
// memoized products out of the parallel region means each is touched
// exactly once per call regardless of thread count.
std::vector<LayerIndex> snapshot_index(const LayoutSnapshot& snap,
                                       const std::vector<LayerKey>& on) {
  static const std::vector<Rect> kNoRects;
  static const RTree kEmptyTree;
  std::vector<LayerIndex> index;
  index.reserve(on.size());
  for (const LayerKey k : on) {
    if (snap.has(k)) {
      index.push_back(LayerIndex{&snap.layer(k).rects(), &snap.rtree(k)});
    } else {
      index.push_back(LayerIndex{&kNoRects, &kEmptyTree});
    }
  }
  return index;
}

CapturedPattern capture_site(const std::vector<LayerIndex>& index,
                             const std::vector<LayerKey>& on,
                             const AnchorWindow& site) {
  std::vector<LayerClip> clips;
  clips.reserve(on.size());
  for (std::size_t li = 0; li < on.size(); ++li) {
    clips.push_back(LayerClip{on[li], index[li].clip(site.window)});
  }
  return CapturedPattern{TopologicalPattern::capture(clips, site.window),
                         site.window, site.anchor};
}

}  // namespace

TopologicalPattern capture_window(const LayerMap& layers,
                                  const std::vector<LayerKey>& on,
                                  const Rect& window) {
  std::vector<LayerClip> clips;
  clips.reserve(on.size());
  for (const LayerKey k : on) {
    clips.push_back(LayerClip{k, layer_of(layers, k).clipped(window)});
  }
  return TopologicalPattern::capture(clips, window);
}

std::vector<AnchorWindow> anchor_windows(const Region& anchor_layer,
                                         Coord radius) {
  return anchor_windows(anchor_layer.components(), radius);
}

AnchorWindow anchor_window(const Rect& box, Coord radius) {
  const Point c = box.center();
  return AnchorWindow{
      c, Rect{c.x - radius, c.y - radius, c.x + radius, c.y + radius}};
}

std::vector<AnchorWindow> anchor_windows(const std::vector<Region>& comps,
                                         Coord radius) {
  std::vector<AnchorWindow> out;
  out.reserve(comps.size());
  for (const Region& comp : comps) {
    out.push_back(anchor_window(comp.bbox(), radius));
  }
  return out;
}

CapturedPattern capture_window_at(const LayoutSnapshot& snap,
                                  const std::vector<LayerKey>& on,
                                  const AnchorWindow& site) {
  return capture_site(snapshot_index(snap, on), on, site);
}

CapturedPattern capture_window_streamed(const LayoutSnapshot& snap,
                                        const std::vector<LayerKey>& on,
                                        const AnchorWindow& site) {
  std::vector<LayerClip> clips;
  clips.reserve(on.size());
  for (const LayerKey k : on) {
    clips.push_back(LayerClip{k, snap.read_layer_window(k, site.window)});
  }
  return CapturedPattern{TopologicalPattern::capture(clips, site.window),
                         site.window, site.anchor};
}

std::vector<CapturedPattern> capture_at_anchors(
    const LayoutSnapshot& snap, const std::vector<LayerKey>& on,
    LayerKey anchor_layer, Coord radius, ThreadPool* pool) {
  const std::vector<LayerIndex> index = snapshot_index(snap, on);
  const std::vector<AnchorWindow> sites =
      snap.has(anchor_layer)
          ? anchor_windows(snap.components(anchor_layer).regions, radius)
          : std::vector<AnchorWindow>{};
  // Sites capture concurrently (the indices are read-only); parallel_map
  // keeps the results in component order — identical to the serial scan.
  return parallel_map(pool, sites.size(), [&](std::size_t i) {
    TELEM_SPAN_ARG("pattern/capture", i);
    return capture_site(index, on, sites[i]);
  });
}

std::vector<CapturedPattern> capture_grid(const LayoutSnapshot& snap,
                                          const std::vector<LayerKey>& on,
                                          const Rect& extent, Coord size,
                                          Coord stride, bool keep_empty,
                                          ThreadPool* pool) {
  std::vector<CapturedPattern> out;
  if (extent.is_empty() || size <= 0 || stride <= 0) return out;
  const std::vector<LayerIndex> index = snapshot_index(snap, on);
  std::vector<Rect> windows;
  for (Coord y = extent.lo.y; y + size <= extent.hi.y; y += stride) {
    for (Coord x = extent.lo.x; x + size <= extent.hi.x; x += stride) {
      windows.push_back(Rect{x, y, x + size, y + size});
    }
  }
  std::vector<CapturedPattern> captured =
      parallel_map(pool, windows.size(), [&](std::size_t i) {
        TELEM_SPAN_ARG("pattern/capture", i);
        return capture_site(index, on,
                            AnchorWindow{windows[i].center(), windows[i]});
      });
  // Filter empties after the fact so the surviving scan order matches the
  // serial loop.
  for (CapturedPattern& c : captured) {
    if (!keep_empty && c.pattern.empty()) continue;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace dfm

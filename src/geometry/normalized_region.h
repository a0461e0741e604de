// NormalizedRegion: a read-only view of a Region whose canonical form is
// guaranteed to be materialized. Region normalizes lazily through
// `mutable` state, so a raw Region shared across threads is a data race
// waiting for its first query; constructing this view performs that one
// mutating step up front, after which every accessor is a pure read.
// Passing a `const Region&` where a NormalizedRegion is expected
// normalizes at the call boundary — normalization by construction, not
// by convention.
//
// Like std::string_view, the view does not own: the referenced Region
// must outlive it. A default-constructed view refers to a shared empty
// region.
#pragma once

#include "geometry/region.h"

namespace dfm {

class NormalizedRegion {
 public:
  /// Views the shared empty region.
  NormalizedRegion() : region_(&empty_region()) {}

  /// Normalizes `r` — the single mutating step — and wraps it. Implicit,
  /// so existing `const Region&` call sites normalize at the boundary.
  NormalizedRegion(const Region& r) : region_(&r) { r.rects(); }

  const Region& region() const { return *region_; }
  operator const Region&() const { return *region_; }

  // Pure-read forwards (the region is already canonical).
  bool empty() const { return region_->empty(); }
  std::size_t rect_count() const { return region_->rect_count(); }
  const std::vector<Rect>& rects() const { return region_->rects(); }
  Area area() const { return region_->area(); }
  Rect bbox() const { return region_->bbox(); }
  bool contains(Point p) const { return region_->contains(p); }
  /// Already normalized: the clip of a canonical region is canonical.
  Region clipped(const Rect& window) const { return region_->clipped(window); }
  Region translated(Point d) const { return region_->translated(d); }
  std::vector<Region> components() const { return region_->components(); }

 private:
  static const Region& empty_region() {
    static const Region kEmpty;
    return kEmpty;
  }

  const Region* region_;
};

}  // namespace dfm

// Cell: a named container of per-layer geometry, text labels and
// references to other cells (single or arrayed), as in a GDSII structure.
#pragma once

#include "geometry/polygon.h"
#include "geometry/region.h"
#include "geometry/transform.h"
#include "layout/layer.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dfm {

/// Reference to another cell by index into the owning Library.
struct CellRef {
  std::uint32_t cell_index = 0;
  Transform transform;
  // Array parameters (AREF); cols == rows == 1 means a plain SREF.
  std::uint32_t cols = 1;
  std::uint32_t rows = 1;
  Point col_step{0, 0};
  Point row_step{0, 0};

  friend bool operator==(const CellRef&, const CellRef&) = default;

  /// Translation of array element (c, r) before `transform` is applied...
  /// GDSII semantics: the array steps are applied *after* the orientation,
  /// i.e. element (c,r) is placed at transform.offset + c*col_step + r*row_step
  /// with the same orientation.
  Transform element_transform(std::uint32_t c, std::uint32_t r) const {
    Transform t = transform;
    t.offset += col_step * static_cast<Coord>(c) + row_step * static_cast<Coord>(r);
    return t;
  }
};

/// A text label (used for net names and debug markers).
struct Text {
  LayerKey layer;
  Point position;
  std::string value;

  friend bool operator==(const Text&, const Text&) = default;
};

class Cell {
 public:
  Cell() = default;
  explicit Cell(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  void add(LayerKey layer, const Rect& r) {
    if (!r.is_empty()) shapes_[layer].emplace_back(r);
  }
  void add(LayerKey layer, Polygon p) {
    if (!p.empty()) shapes_[layer].push_back(std::move(p));
  }
  void add(LayerKey layer, const Region& region) {
    for (const Polygon& p : region.to_polygons()) add(layer, p);
  }
  void add_ref(CellRef ref) { refs_.push_back(ref); }
  void add_text(Text t) { texts_.push_back(std::move(t)); }

  const std::map<LayerKey, std::vector<Polygon>>& shapes() const { return shapes_; }
  const std::vector<Polygon>& shapes_on(LayerKey layer) const;
  const std::vector<CellRef>& refs() const { return refs_; }
  std::vector<CellRef>& mutable_refs() { return refs_; }
  const std::vector<Text>& texts() const { return texts_; }

  /// Layers with at least one local shape.
  std::vector<LayerKey> layers() const;

  /// Merged local geometry of one layer (no references).
  Region local_region(LayerKey layer) const;

  /// Bounding box of local shapes only (references need the Library).
  Rect local_bbox() const;

  std::size_t shape_count() const;

 private:
  std::string name_;
  std::map<LayerKey, std::vector<Polygon>> shapes_;
  std::vector<CellRef> refs_;
  std::vector<Text> texts_;
};

}  // namespace dfm

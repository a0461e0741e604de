// Library: the root layout database — an ordered collection of cells with
// name lookup, hierarchy traversal, flattening and window queries.
#pragma once

#include "layout/cell.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace dfm {

class Library {
 public:
  explicit Library(std::string name = "LIB", double dbu_per_uu = 1000.0,
                   double meters_per_dbu = 1e-9)
      : name_(std::move(name)),
        dbu_per_uu_(dbu_per_uu),
        meters_per_dbu_(meters_per_dbu) {}

  const std::string& name() const { return name_; }
  double dbu_per_uu() const { return dbu_per_uu_; }
  double meters_per_dbu() const { return meters_per_dbu_; }

  /// Adds a cell; the name must be unique. Returns its index.
  std::uint32_t add_cell(Cell cell);
  /// Creates an empty cell with the given name.
  std::uint32_t new_cell(const std::string& name);

  bool has_cell(const std::string& name) const;
  std::uint32_t index_of(const std::string& name) const;

  Cell& cell(std::uint32_t index) { return cells_[index]; }
  const Cell& cell(std::uint32_t index) const { return cells_[index]; }
  Cell& cell(const std::string& name) { return cells_[index_of(name)]; }
  const Cell& cell(const std::string& name) const { return cells_[index_of(name)]; }

  std::size_t cell_count() const { return cells_.size(); }
  const std::vector<Cell>& cells() const { return cells_; }

  /// Cells not referenced by any other cell.
  std::vector<std::uint32_t> top_cells() const;
  /// The cell to analyse: the one named `name`, else (no name) the first
  /// of top_cells(). Throws std::out_of_range for an unknown name and
  /// std::runtime_error("library has no cells") when there is none.
  std::uint32_t top_cell(const std::string& name = {}) const;

  /// Bounding box of a cell including its full reference subtree.
  Rect bbox(std::uint32_t cell_index) const;

  /// All layers used anywhere in the library.
  std::vector<LayerKey> layers() const;

  /// Flattens one layer of a cell's full hierarchy into a merged Region.
  Region flatten(std::uint32_t cell_index, LayerKey layer) const;
  Region flatten(const std::string& cell_name, LayerKey layer) const;

  /// Flattens only geometry intersecting `window` (clipped to it).
  Region flatten_window(std::uint32_t cell_index, LayerKey layer,
                        const Rect& window) const;

  /// Total flattened shape count of a cell (expanded through arrays).
  std::size_t flat_shape_count(std::uint32_t cell_index) const;

 private:
  std::string name_;
  double dbu_per_uu_;
  double meters_per_dbu_;
  std::vector<Cell> cells_;
  std::unordered_map<std::string, std::uint32_t> index_;
};

}  // namespace dfm

#include "layout/library.h"

#include <algorithm>
#include <stdexcept>

namespace dfm {

std::uint32_t Library::add_cell(Cell cell) {
  if (index_.count(cell.name()) != 0) {
    throw std::invalid_argument("duplicate cell name: " + cell.name());
  }
  const auto idx = static_cast<std::uint32_t>(cells_.size());
  index_.emplace(cell.name(), idx);
  cells_.push_back(std::move(cell));
  return idx;
}

std::uint32_t Library::new_cell(const std::string& name) {
  return add_cell(Cell{name});
}

bool Library::has_cell(const std::string& name) const {
  return index_.count(name) != 0;
}

std::uint32_t Library::index_of(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::out_of_range("no such cell: " + name);
  }
  return it->second;
}

std::vector<std::uint32_t> Library::top_cells() const {
  std::vector<bool> referenced(cells_.size(), false);
  for (const Cell& c : cells_) {
    for (const CellRef& r : c.refs()) referenced[r.cell_index] = true;
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    if (!referenced[i]) out.push_back(i);
  }
  return out;
}

std::uint32_t Library::top_cell(const std::string& name) const {
  if (!name.empty()) return index_of(name);
  const std::vector<std::uint32_t> tops = top_cells();
  if (tops.empty()) throw std::runtime_error("library has no cells");
  return tops.front();
}

std::vector<LayerKey> Library::layers() const {
  std::vector<LayerKey> out;
  for (const Cell& c : cells_) {
    for (LayerKey k : c.layers()) {
      if (std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dfm

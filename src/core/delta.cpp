#include "core/delta.h"

namespace dfm {

void LayoutDelta::add(LayerKey k, const Rect& r) {
  if (!r.is_empty()) layers_[k].added.add(r);
}

void LayoutDelta::add(LayerKey k, const Region& r) {
  if (!r.empty()) layers_[k].added.add(r);
}

void LayoutDelta::remove(LayerKey k, const Rect& r) {
  if (!r.is_empty()) layers_[k].removed.add(r);
}

void LayoutDelta::remove(LayerKey k, const Region& r) {
  if (!r.empty()) layers_[k].removed.add(r);
}

void LayoutDelta::merge(const LayoutDelta& other) {
  for (const auto& [k, d] : other.layers_) {
    add(k, d.added);
    remove(k, d.removed);
  }
}

bool LayoutDelta::empty() const {
  for (const auto& [k, d] : layers_) {
    if (!d.empty()) return false;
  }
  return true;
}

bool LayoutDelta::dirties(LayerKey k) const {
  const auto it = layers_.find(k);
  return it != layers_.end() && !it->second.empty();
}

const LayerDelta* LayoutDelta::find(LayerKey k) const {
  const auto it = layers_.find(k);
  return it == layers_.end() ? nullptr : &it->second;
}

Region LayoutDelta::dirty_region(LayerKey k) const {
  const LayerDelta* d = find(k);
  return d == nullptr ? Region{} : d->added | d->removed;
}

void LayoutDelta::apply(LayerMap& layers) const {
  for (const auto& [k, d] : layers_) {
    if (d.empty()) continue;
    const auto it = layers.find(k);
    if (it == layers.end()) {
      // (empty - removed) | added == added.
      layers.emplace(k, d.added);
    } else {
      it->second = (it->second - d.removed) | d.added;
    }
  }
}

}  // namespace dfm

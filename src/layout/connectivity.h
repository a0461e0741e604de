// Net extraction across a metal/via stack: connected components per
// layer joined through overlapping vias. The currency for per-net
// analyses — inter-net short critical area, floating-via detection, and
// redundancy accounting.
#pragma once

#include "layout/layer_map.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace dfm {

class LayoutSnapshot;       // core/snapshot.h
class IncrementalSnapshot;  // core/snapshot.h

/// One conductor layer or cut (via) layer in the stack, bottom-up.
/// Cut layers connect the conductor below to the conductor above.
struct StackLayer {
  LayerKey key;
  bool is_cut = false;
};

/// The default M1 / V1 / M2 stack of the synthetic technology.
std::vector<StackLayer> standard_stack();

/// An extracted net: its shapes grouped by layer, in stack order.
struct Net {
  std::vector<std::pair<LayerKey, Region>> pieces;

  const Region* on(LayerKey k) const;
  Area total_area() const;

  friend bool operator==(const Net&, const Net&) = default;
};

struct Netlist {
  std::vector<Net> nets;

  std::size_t size() const { return nets.size(); }

  friend bool operator==(const Netlist&, const Netlist&) = default;
};

/// Where a net sits in the canonical order: its first vertex, the
/// component of its lowest stack layer that comes first in labelling
/// (component_less) order. Nets sort by (layer, vertex); two distinct
/// nets never share a first vertex, so the order is total, and it
/// depends only on the nets themselves, never on how they were found.
struct NetKey {
  std::size_t layer = 0;  // stack index
  Region vertex;

  friend bool operator<(const NetKey& a, const NetKey& b);
};

/// Net keys aligned with a netlist. A key is immutable once made, so a
/// splice carries a net's key over by pointer, not by copying its vertex.
using NetKeys = std::vector<std::shared_ptr<const NetKey>>;

/// Cut shapes not fully covered by both adjacent conductors: open-circuit
/// risks (manufacturing) or outright extraction errors (design).
struct FloatingCut {
  LayerKey layer;
  Rect where;
  bool missing_below = false;
  bool missing_above = false;

  friend bool operator==(const FloatingCut&, const FloatingCut&) = default;
};

/// Extracts nets over a snapshot's memoized labelling
/// (LayoutSnapshot::components): per-layer components are vertices; a cut
/// component that overlaps a conductor component on the layer below or
/// above (positive area) unions them. Cut shapes overlapping no
/// conductor (or only one side) are still assigned to the net of
/// whatever they touch. Nets come out in NetKey order; with `keys`, each
/// net's key is stored alongside.
Netlist extract_nets(const LayoutSnapshot& snap,
                     const std::vector<StackLayer>& stack,
                     NetKeys* keys = nullptr);

/// What splice_nets changed.
struct NetSplice {
  /// The cached nets that dissolved, as they were.
  std::vector<Net> dissolved;
  /// Indices, into the spliced netlist, of the nets re-extracted from
  /// the dissolved ones and the damage.
  std::vector<std::size_t> created;
  /// The keys of the spliced netlist: every carried net's key shared
  /// with the keys given, a new one for every created net.
  NetKeys keys;
};

/// Brings `nets` (the nets of the snapshot `snap` derives from, in
/// NetKey order, with their `keys`) up to date with snap's edit. The
/// damage is the union of the dirty regions of the stack layers. A net
/// dissolves when one of its pieces, on any stack layer, touches (closed
/// contact) the damage; its vertices, plus the components of the edited
/// labelling that touch the damage, are re-extracted and merged back in
/// key order. Every other net carries over unchanged: an edit can add or
/// drop a cut-to-conductor overlap, or merge or split a component, only
/// through components that touch the damage, and then the nets of both
/// sides dissolve. The result equals extract_nets(snap, stack); `keys`
/// is only read.
NetSplice splice_nets(const IncrementalSnapshot& snap,
                      const std::vector<StackLayer>& stack, Netlist& nets,
                      const NetKeys& keys);

/// The floating cuts of the snapshot, in cut labelling order. Reads the
/// conductors' memoized R-trees.
std::vector<FloatingCut> find_floating_cuts(
    const LayoutSnapshot& snap, const std::vector<StackLayer>& stack);

/// Brings `cuts` (find_floating_cuts of the snapshot `snap` derives
/// from) up to date with snap's edit: a cut whose bbox touches no damage
/// on the stack keeps its verdict (its geometry and the conductors
/// inside its bbox are unchanged), and every cut of the edited labelling
/// whose bbox touches the damage is re-tested. Returns the number of
/// cuts re-tested. The result equals find_floating_cuts(snap, stack).
std::size_t splice_floating_cuts(const IncrementalSnapshot& snap,
                                 const std::vector<StackLayer>& stack,
                                 std::vector<FloatingCut>& cuts);

}  // namespace dfm

// Mask density rebalancing: per conflict unit, the two-coloring
// can be flipped freely; assigning pieces greedily (largest imbalance
// first) to the lighter mask equalizes exposure densities without
// touching legality or stitches.
#include "dpt/dpt.h"

#include "core/snapshot.h"

#include <algorithm>
#include <cstdlib>

namespace dfm {

Decomposition rebalance_masks(const Decomposition& d, const Tech& tech) {
  // Flip units: the conflict units (dpt_units) of the *joint* mask
  // geometry. Any unit either keeps (A,B) or swaps to (B,A); same-mask
  // spacing is unaffected within a unit, and units lie at least
  // dpt_space apart on both masks, which a swap preserves.
  const LayerComponents joint = LayerComponents::of(d.mask_a | d.mask_b);

  struct Piece {
    Region a, b;     // this unit's share of each mask
    Area delta = 0;  // area(a) - area(b)
  };
  std::vector<Piece> pieces;
  for (const std::vector<std::uint32_t>& members :
       dpt_units(joint, tech.dpt_space)) {
    Piece& p = pieces.emplace_back();
    for (const std::uint32_t i : members) {
      p.a.add(joint.regions[i] & d.mask_a);
      p.b.add(joint.regions[i] & d.mask_b);
    }
  }
  std::vector<Piece*> order;
  for (Piece& p : pieces) {
    p.delta = p.a.area() - p.b.area();
    order.push_back(&p);
  }
  std::sort(order.begin(), order.end(), [](const Piece* x, const Piece* y) {
    const Area ax = x->delta < 0 ? -x->delta : x->delta;
    const Area ay = y->delta < 0 ? -y->delta : y->delta;
    return ax > ay;
  });

  // Greedy: place each piece the way that shrinks the running imbalance.
  Decomposition out = d;
  out.mask_a = Region{};
  out.mask_b = Region{};
  Area imbalance = 0;  // area(A) - area(B)
  for (const Piece* p : order) {
    const bool keep = (imbalance + p->delta) * (imbalance + p->delta) <=
                      (imbalance - p->delta) * (imbalance - p->delta);
    if (keep) {
      out.mask_a.add(p->a);
      out.mask_b.add(p->b);
      imbalance += p->delta;
    } else {
      out.mask_a.add(p->b);
      out.mask_b.add(p->a);
      imbalance -= p->delta;
    }
  }
  return out;
}

}  // namespace dfm

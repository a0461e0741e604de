#include "core/fix_proposals.h"

#include <array>
#include <stdexcept>

namespace dfm {
namespace {

struct KindName {
  FixKind kind;
  const char* name;
};

constexpr std::array<KindName, 6> kKindNames{{
    {FixKind::kPatternVia, "pattern_via"},
    {FixKind::kPatternPinch, "pattern_pinch"},
    {FixKind::kViaDouble, "via_double"},
    {FixKind::kSpread, "spread"},
    {FixKind::kRetarget, "retarget"},
    {FixKind::kFill, "fill"},
}};

}  // namespace

const char* fix_kind_name(FixKind kind) {
  for (const KindName& k : kKindNames) {
    if (k.kind == kind) return k.name;
  }
  return "unknown";
}

std::optional<FixKind> parse_fix_kind(const std::string& name) {
  for (const KindName& k : kKindNames) {
    if (name == k.name) return k.kind;
  }
  return std::nullopt;
}

void check_fix_moves(const std::string& what,
                     const std::vector<std::string>& moves) {
  for (const std::string& name : moves) {
    if (parse_fix_kind(name)) continue;
    std::string known;
    for (const KindName& k : kKindNames) {
      if (!known.empty()) known += '|';
      known += k.name;
    }
    throw std::invalid_argument(what + ": unknown move '" + name + "' (" +
                                known + ")");
  }
}

bool FixOptions::enabled(FixKind kind) const {
  if (moves.empty()) return true;
  const char* name = fix_kind_name(kind);
  for (const std::string& m : moves) {
    if (m == name) return true;
  }
  return false;
}

namespace fix_detail {

bool addition_legal(const Region& addition, const Region& layer, Coord space) {
  if (addition.empty()) return true;
  const Region nearby = layer.clipped(addition.bbox().expanded(space + 1));
  for (const Region& comp : nearby.components()) {
    const Coord d = region_distance(comp, addition, space + 1);
    if (d > 0 && d < space) return false;
  }
  return true;
}

bool via_pad_addition(const Region& vias, const Region& metal, Point anchor,
                      Coord via_size, Coord enclosure, Coord space,
                      Region& add) {
  add = Region{};
  // The via component nearest the anchor.
  const Region local =
      vias.clipped(Rect{anchor.x - via_size, anchor.y - via_size,
                        anchor.x + via_size, anchor.y + via_size});
  if (local.empty()) return false;
  const Rect pad = local.bbox().expanded(enclosure);

  Region need = Region{pad} - metal;
  if (!addition_legal(need, metal, space)) return false;
  add = std::move(need);
  return true;
}

bool borderless_via_additions(const Region& vias, const Region& m1,
                              const Region& m2, Point anchor, const Tech& t,
                              Region& add_m1, Region& add_m2) {
  Region a1;
  Region a2;
  if (!via_pad_addition(vias, m1, anchor, t.via_size, t.via_enclosure,
                        t.m1_space, a1)) {
    return false;
  }
  if (!via_pad_addition(vias, m2, anchor, t.via_size, t.via_enclosure,
                        t.m2_space, a2)) {
    return false;
  }
  add_m1 = std::move(a1);
  add_m2 = std::move(a2);
  return true;
}

bool pinch_addition(const Region& m1, const Rect& window, const Tech& t,
                    Region& add_m1) {
  add_m1 = Region{};
  const Point c = window.center();
  // The squeezed line: the component whose bbox contains the center.
  const Region local = m1.clipped(window.expanded(2 * t.m1_width));
  for (const Region& comp : local.components()) {
    if (!comp.bbox().contains(c)) continue;
    const Rect bb = comp.bbox();
    const bool horizontal = bb.width() >= bb.height();
    const Coord grow = t.m1_width / 4;
    const Rect widened =
        horizontal ? Rect{bb.lo.x, bb.lo.y - grow, bb.hi.x, bb.hi.y + grow}
                   : Rect{bb.lo.x - grow, bb.lo.y, bb.hi.x + grow, bb.hi.y};
    Region addition = Region{widened} - m1;
    if (!addition_legal(addition, m1, t.m1_space)) return false;
    add_m1 = std::move(addition);
    return true;
  }
  return false;
}

}  // namespace fix_detail

}  // namespace dfm

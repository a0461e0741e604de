// Decomposition quality scoring, following the DPT scoring methodology:
// per-metric values mapped to [0, 1] (1 = optimum) and combined into a
// composite score.
#include "dpt/dpt.h"

#include "core/telemetry.h"
#include "drc/engine.h"

#include <algorithm>
#include <cmath>

namespace dfm {

DptPartial& DptPartial::operator+=(const DptPartial& o) {
  area_a += o.area_a;
  area_b += o.area_b;
  stitches += o.stitches;
  nodes += o.nodes;
  min_overlap = std::min(min_overlap, o.min_overlap);
  a_spacing_ok = a_spacing_ok && o.a_spacing_ok;
  b_spacing_ok = b_spacing_ok && o.b_spacing_ok;
  return *this;
}

DptPartial dpt_partial(const Decomposition& d, const Tech& tech) {
  DptPartial p;
  p.area_a = d.mask_a.area();
  p.area_b = d.mask_b.area();
  p.stitches = d.stitches.size();
  p.nodes = d.nodes;
  for (const Stitch& st : d.stitches) {
    p.min_overlap =
        std::min(p.min_overlap, std::min(st.cut.width(), st.cut.height()));
  }
  // Same-mask spacing: both masks must individually satisfy dpt_space.
  p.a_spacing_ok = check_min_spacing(d.mask_a, tech.dpt_space, "A").empty();
  p.b_spacing_ok = check_min_spacing(d.mask_b, tech.dpt_space, "B").empty();
  return p;
}

DptScore finish(const DptPartial& p, const Tech& tech) {
  DptScore s;

  // Mask density balance: equal-area masks expose most evenly.
  const double aa = static_cast<double>(p.area_a);
  const double ab = static_cast<double>(p.area_b);
  s.density_balance = (aa + ab) > 0 ? 1.0 - std::fabs(aa - ab) / (aa + ab) : 1.0;

  // Stitches: each one is an overlay-sensitive spot; score decays with
  // stitches per feature.
  const double per_node =
      p.nodes > 0 ? static_cast<double>(p.stitches) / p.nodes : 0.0;
  s.stitch_score = 1.0 / (1.0 + 4.0 * per_node);

  // Overlay margin: narrowest stitch overlap relative to the requirement.
  s.overlay_score =
      p.stitches == 0
          ? 1.0
          : std::clamp(static_cast<double>(p.min_overlap) /
                           static_cast<double>(tech.stitch_overlap),
                       0.0, 1.0);

  s.spacing_score = (p.a_spacing_ok ? 0.5 : 0.0) + (p.b_spacing_ok ? 0.5 : 0.0);

  s.composite = (s.density_balance + s.stitch_score + s.overlay_score +
                 s.spacing_score) /
                4.0;
  return s;
}

DptScore score_decomposition(const Decomposition& d, const Tech& tech) {
  TELEM_SPAN("dpt/score");
  return finish(dpt_partial(d, tech), tech);
}

}  // namespace dfm

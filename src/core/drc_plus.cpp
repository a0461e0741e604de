#include "core/drc_plus.h"

#include "core/snapshot.h"
#include "gen/generators.h"

namespace dfm {

TopologicalPattern capture_reference_pattern(const LayerMap& layers,
                                             const std::vector<LayerKey>& on,
                                             LayerKey anchor_layer,
                                             const Rect& marker, Coord radius) {
  // Anchor on the component whose bbox center is nearest the marker
  // center, exactly as the scan-side capture will.
  const auto it = layers.find(anchor_layer);
  if (it == layers.end()) return {};
  const Point want = marker.center();
  Point best{0, 0};
  Coord best_d = std::numeric_limits<Coord>::max();
  for (const Region& comp : it->second.components()) {
    const Point c = comp.bbox().center();
    if (!marker.contains(c)) continue;
    const Coord d = chebyshev(c, want);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  if (best_d == std::numeric_limits<Coord>::max()) return {};
  const Rect window{best.x - radius, best.y - radius, best.x + radius,
                    best.y + radius};
  return capture_window(layers, on, window);
}

DrcPlusDeck DrcPlusDeck::standard(const Tech& tech) {
  DrcPlusDeck deck;
  deck.drc = RuleDeck::standard(tech);

  // Build reference layouts containing one exemplar of each known-bad
  // construct, and capture their patterns.
  const Coord m1_radius = 8 * tech.m1_width;
  {
    PatternRuleSet set;
    set.name = "M1 litho-marginal constructs";
    set.capture_layers = {layers::kMetal1};
    set.anchor_layer = layers::kMetal1;
    set.radius = m1_radius;

    struct Exemplar {
      const char* name;
      Injection (*inject)(Cell&, const Tech&, Point);
      const char* guidance;
    };
    const Exemplar exemplars[] = {
        {"DFM.PINCH.1", &inject_pinch_candidate,
         "min-width line in a min-space corridor: widen the line or the gaps"},
        {"DFM.BRIDGE.1", &inject_bridge_candidate,
         "facing line ends at min spacing with parallel company: stagger the ends"},
    };
    for (const Exemplar& e : exemplars) {
      Library ref{"ref"};
      Cell& c = ref.cell(ref.new_cell("c"));
      const Injection inj = e.inject(c, tech, {0, 0});
      LayerMap lm;
      lm.emplace(layers::kMetal1, c.local_region(layers::kMetal1));
      TopologicalPattern p = capture_reference_pattern(
          lm, set.capture_layers, set.anchor_layer, inj.where, m1_radius);
      if (p.empty()) continue;
      PatternRule rule;
      rule.name = e.name;
      rule.pattern = std::move(p);
      rule.dim_tolerance = tech.m1_width / 5;
      rule.guidance = e.guidance;
      set.rules.push_back(std::move(rule));
    }
    deck.pattern_sets.push_back(std::move(set));
  }
  {
    // Via-enclosure patterns, anchored on vias.
    PatternRuleSet set;
    set.name = "via enclosure styles";
    set.capture_layers = {layers::kVia1, layers::kMetal1, layers::kMetal2};
    set.anchor_layer = layers::kVia1;
    set.radius = 2 * (tech.via_size + tech.via_enclosure_end);

    Library ref{"ref"};
    Cell& c = ref.cell(ref.new_cell("c"));
    add_via(c, tech, {0, 0}, ViaStyle::kBorderless);
    LayerMap lm;
    for (const LayerKey k : set.capture_layers) {
      lm.emplace(k, c.local_region(k));
    }
    const LayoutSnapshot ref_snap(lm);
    const auto caps = capture_at_anchors(ref_snap, set.capture_layers,
                                         layers::kVia1, set.radius);
    if (!caps.empty()) {
      PatternRule rule;
      rule.name = "DFM.VIA.BORDERLESS";
      rule.pattern = caps.front().pattern;
      rule.dim_tolerance = 0;
      rule.guidance = "borderless via: grow the landing pad to full enclosure";
      set.rules.push_back(std::move(rule));
    }
    deck.pattern_sets.push_back(std::move(set));
  }
  return deck;
}

std::size_t DrcPlusResult::pattern_match_count() const {
  std::size_t n = 0;
  for (const auto& m : matches) n += m.size();
  return n;
}

DrcPlusEngine::DrcPlusEngine(DrcPlusDeck deck) : deck_(std::move(deck)) {
  for (const PatternRuleSet& set : deck_.pattern_sets) {
    matchers_.emplace_back(set.rules);
  }
}

DrcPlusResult DrcPlusEngine::run(const LayoutSnapshot& snap,
                                 const DrcPlusOptions& options) const {
  const PassPool pool(options);
  DrcPlusResult res;
  res.drc = DrcEngine{deck_.drc}.run(snap, pool.get());
  for (std::size_t i = 0; i < deck_.pattern_sets.size(); ++i) {
    const PatternRuleSet& set = deck_.pattern_sets[i];
    res.matches.push_back(matchers_[i].scan_anchors(
        snap, set.capture_layers, set.anchor_layer, set.radius, pool.get()));
  }
  return res;
}

}  // namespace dfm

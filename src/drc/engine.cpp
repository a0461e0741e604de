#include "drc/engine.h"

#include "core/parallel.h"
#include "core/snapshot.h"
#include "core/telemetry.h"

namespace dfm {

std::map<std::string, int> DrcResult::count_by_rule() const {
  std::map<std::string, int> out;
  for (const Violation& v : violations) ++out[v.rule];
  return out;
}

int DrcResult::count(const std::string& rule) const {
  int n = 0;
  for (const Violation& v : violations) {
    if (v.rule == rule) ++n;
  }
  return n;
}

std::vector<LayerKey> rule_layers(const Rule& rule) {
  std::vector<LayerKey> out{rule.layer};
  if (rule.kind == RuleKind::kMinEnclosure) out.push_back(rule.inner);
  return out;
}

std::vector<Violation> DrcEngine::run_rule(const LayoutSnapshot& snap,
                                           const Rule& rule) {
  return strip_keys(run_rule_keyed(snap, rule));
}

std::vector<KeyedViolation> DrcEngine::run_rule_keyed(
    const LayoutSnapshot& snap, const Rule& rule) {
  TELEM_SPAN_ARG("drc/rule", static_cast<std::uint64_t>(rule.kind));
  // Density window: the joint bbox of everything under check. The
  // snapshot's regions are canonical by construction, so sharing them
  // across rule tasks is safe without any pre-normalization step here.
  // Component-based checks read the snapshot's memoized labelling.
  const NormalizedRegion primary = snap.layer(rule.layer);
  switch (rule.kind) {
    case RuleKind::kMinWidth:
      return detail::min_width_keyed(primary, rule.value, rule.name);
    case RuleKind::kMinSpacing:
      return detail::min_spacing_keyed(
          primary, snap.components(rule.layer).regions, rule.value, rule.name);
    case RuleKind::kMinArea:
      return detail::min_area_keyed(snap.components(rule.layer), rule.value,
                                    rule.name);
    case RuleKind::kMinEnclosure:
      return detail::enclosure_keyed(
          snap.components(rule.inner), detail::indexed_layer(snap, rule.inner),
          detail::indexed_layer(snap, rule.layer), rule.value, rule.name);
    case RuleKind::kWideSpacing:
      return detail::wide_spacing_keyed(snap.components(rule.layer),
                                        rule.wide_width, rule.value, rule.name);
    case RuleKind::kDensity: {
      std::vector<Violation> found;
      if (const Rect chip = snap.bbox(); !chip.is_empty()) {
        if (snap.has(rule.layer)) {
          found = density_violations(snap.density(rule.layer, rule.value),
                                     rule.min_value, rule.max_value,
                                     rule.name);
        } else {
          found = check_density(primary, chip, rule.value, rule.min_value,
                                rule.max_value, rule.name);
        }
      }
      std::vector<KeyedViolation> out;
      out.reserve(found.size());
      for (Violation& v : found) {
        const Rect m = v.marker;
        out.push_back(KeyedViolation{std::move(v), m, m, m.lo});
      }
      return out;
    }
  }
  return {};
}

std::vector<std::vector<Violation>> DrcEngine::run_per_rule(
    const LayoutSnapshot& snap, const DrcOptions& options) const {
  const PassPool pool(options);
  return parallel_map(pool, deck_.rules.size(), [&](std::size_t ri) {
    return run_rule(snap, deck_.rules[ri]);
  });
}

DrcResult DrcEngine::run(const LayoutSnapshot& snap,
                         const DrcOptions& options) const {
  DrcResult result;
  for (std::vector<Violation>& found : run_per_rule(snap, options)) {
    result.violations.insert(result.violations.end(),
                             std::make_move_iterator(found.begin()),
                             std::make_move_iterator(found.end()));
  }
  return result;
}

}  // namespace dfm

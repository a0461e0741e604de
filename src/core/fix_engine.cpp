#include "core/fix_engine.h"

#include "core/fill.h"
#include "core/telemetry.h"
#include "drc/engine.h"

#include <cstdio>
#include <map>
#include <utility>

namespace dfm {
namespace {

// ---- prediction -----------------------------------------------------------

// Composite change if `metric` moved to `new_value` with every other
// metric unchanged. Advisory only: the gate re-runs the real flow.
double predicted_composite_gain(const DfmScorecard& sc, const char* metric,
                                double new_value) {
  double total_w = 0;
  double w = 0;
  double cur = 0;
  for (const MetricScore& m : sc.metrics) {
    total_w += m.weight;
    if (m.name == metric) {
      w = m.weight;
      cur = m.value;
    }
  }
  if (w == 0 || total_w <= 0) return 0;
  return w * (new_value - cur) / total_w;
}

// ---- shared local safety checks -------------------------------------------

// A removal is proposed only when it provably creates no new min-width
// sliver near the cut. Violations are counted before and after on the
// same clipped window so clipping artifacts cancel out.
bool removal_safe(const Region& layer, const Region& removal,
                  Coord min_width) {
  if (removal.empty()) return false;
  const Rect w = removal.bbox().expanded(2 * min_width + 2);
  const Region local = layer.clipped(w);
  const std::size_t before = check_min_width(local, min_width, "t").size();
  const std::size_t after =
      check_min_width(local - removal, min_width, "t").size();
  return after <= before;
}

Coord metal_min_width(const Tech& t, LayerKey k) {
  return k == layers::kMetal2 ? t.m2_width : t.m1_width;
}

Coord metal_min_space(const Tech& t, LayerKey k) {
  return k == layers::kMetal2 ? t.m2_space : t.m1_space;
}

// ---- proposal generators (fixed order) ------------------------------------

// 1. Pattern-guided repairs at DRC-Plus matches: deck order, match
// order.
void propose_pattern_repairs(FixPlan& plan, const LayoutSnapshot& snap,
                             const DfmFlowReport& report,
                             const FixOptions& options, const Tech& tech) {
  const bool want_via = options.enabled(FixKind::kPatternVia);
  const bool want_pinch = options.enabled(FixKind::kPatternPinch);
  if (!want_via && !want_pinch) return;
  if (report.drcplus.pattern_match_count() == 0) return;

  const DrcPlusDeck deck = DrcPlusDeck::standard(tech);
  const Region& vias = snap.layer(layers::kVia1).region();
  const Region& m1 = snap.layer(layers::kMetal1).region();
  const Region& m2 = snap.layer(layers::kMetal2).region();

  const std::size_t hits = report.drcplus.pattern_match_count();
  const double predicted = predicted_composite_gain(
      report.scorecard, "drc_plus", score_from_count(hits - 1));

  const std::size_t sets =
      std::min(deck.pattern_sets.size(), report.drcplus.matches.size());
  for (std::size_t si = 0; si < sets; ++si) {
    const PatternRuleSet& set = deck.pattern_sets[si];
    for (const PatternMatch& m : report.drcplus.matches[si]) {
      if (m.rule_index >= set.rules.size()) continue;
      const std::string& rule = set.rules[m.rule_index].name;
      if (rule == "DFM.VIA.BORDERLESS" && want_via) {
        Region a1;
        Region a2;
        if (!fix_detail::borderless_via_additions(vias, m1, m2, m.anchor,
                                                  tech, a1, a2)) {
          continue;
        }
        FixProposal p;
        p.kind = FixKind::kPatternVia;
        p.site = Rect{m.anchor, m.anchor}.expanded(tech.via_size / 2 +
                                                   tech.via_enclosure);
        p.rule = rule;
        p.predicted_gain = predicted;
        p.delta.add(layers::kMetal1, a1);
        p.delta.add(layers::kMetal2, a2);
        if (!p.delta.empty()) plan.proposals.push_back(std::move(p));
      } else if (rule == "DFM.PINCH.1" && want_pinch) {
        Region a1;
        if (!fix_detail::pinch_addition(m1, m.window, tech, a1)) continue;
        FixProposal p;
        p.kind = FixKind::kPatternPinch;
        p.site = m.window;
        p.rule = rule;
        p.predicted_gain = predicted;
        p.delta.add(layers::kMetal1, a1);
        if (!p.delta.empty()) plan.proposals.push_back(std::move(p));
      }
    }
  }
}

// 2. Redundant-via insertion at single-via cuts. The flow's vias pass
// already computed the legal insertions (report.vias); each inserted via
// becomes one independent proposal carrying its bridging pad extensions.
void propose_via_doubling(FixPlan& plan, const DfmFlowReport& report,
                          const FixOptions& options, const Tech& tech) {
  if (!options.enabled(FixKind::kViaDouble)) return;
  const ViaDoublingResult& vd = report.vias;
  if (vd.new_vias.empty()) return;

  // A pad extension bridges from the new via to its original, so all
  // metal belonging to one insertion lives within this reach of it.
  const Coord reach = tech.via_size + tech.via_space + tech.via_enclosure;
  const double predicted = predicted_composite_gain(
      report.scorecard, "via_redundancy",
      vd.total > 0 ? static_cast<double>(vd.redundant_before + 2) /
                         static_cast<double>(vd.total + 1)
                   : 1.0);

  for (const Region& nv : vd.new_vias.components()) {
    const Rect window = nv.bbox().expanded(reach);
    FixProposal p;
    p.kind = FixKind::kViaDouble;
    p.site = nv.bbox();
    p.rule = "VIA.DOUBLE";
    p.predicted_gain = predicted;
    p.delta.add(layers::kVia1, nv);
    p.delta.add(layers::kMetal1, vd.new_metal1.clipped(window));
    p.delta.add(layers::kMetal2, vd.new_metal2.clipped(window));
    plan.proposals.push_back(std::move(p));
  }
}

// 3. Recommended-rule repairs: pad growth at under-enclosed vias, wire
// spreading (edge shave on the hi side of the gap) at spacing hits.
void propose_recommended_repairs(FixPlan& plan, const LayoutSnapshot& snap,
                                 const DfmFlowReport& report,
                                 const FixOptions& options, const Tech& tech) {
  const bool want_via = options.enabled(FixKind::kPatternVia);
  const bool want_spread = options.enabled(FixKind::kSpread);
  if (!want_via && !want_spread) return;

  const std::vector<RecommendedRule> rules = standard_recommended_rules(tech);
  if (report.recommended.counts.size() != rules.size()) return;

  // Per-rule hit counts, for the exact compliance prediction.
  std::vector<std::size_t> hits(rules.size(), 0);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    hits[i] = static_cast<std::size_t>(report.recommended.counts[i].second);
  }

  for (std::size_t ri = 0; ri < rules.size(); ++ri) {
    if (hits[ri] == 0) continue;
    const Rule& rule = rules[ri].rule;
    const bool enclosure = rule.kind == RuleKind::kMinEnclosure;
    const bool spacing = rule.kind == RuleKind::kMinSpacing ||
                         rule.kind == RuleKind::kWideSpacing;
    if (enclosure ? !want_via : (!spacing || !want_spread)) continue;

    std::vector<std::size_t> fixed_hits = hits;
    --fixed_hits[ri];
    const double predicted = predicted_composite_gain(
        report.scorecard, "recommended",
        assemble_recommended(rules, fixed_hits).compliance());

    const Region& layer = snap.layer(rule.layer).region();
    for (const Violation& v : DrcEngine::run_rule(snap, rule)) {
      FixProposal p;
      p.site = v.marker;
      p.rule = rule.name;
      p.predicted_gain = predicted;
      if (enclosure) {
        // Grow the metal pad to the recommended enclosure.
        const Region& vias = snap.layer(rule.inner).region();
        Region add;
        if (!fix_detail::via_pad_addition(
                vias, layer, v.marker.center(), tech.via_size, rule.value,
                metal_min_space(tech, rule.layer), add)) {
          continue;
        }
        p.kind = FixKind::kPatternVia;
        p.delta.add(rule.layer, add);
      } else {
        // Shave the deficit off the hi side of the gap. The gap marker's
        // short dimension is the measured direction.
        if (v.measured < 0 || v.measured >= rule.value) continue;
        const Coord deficit = rule.value - v.measured;
        const Rect m = v.marker;
        const Rect strip = m.width() >= m.height()
                               ? Rect{m.lo.x, m.hi.y, m.hi.x, m.hi.y + deficit}
                               : Rect{m.hi.x, m.lo.y, m.hi.x + deficit, m.hi.y};
        const Region removal = layer & Region{strip};
        if (!removal_safe(layer, removal,
                          metal_min_width(tech, rule.layer))) {
          continue;
        }
        p.kind = FixKind::kSpread;
        p.delta.remove(rule.layer, removal);
      }
      if (!p.delta.empty()) plan.proposals.push_back(std::move(p));
    }
  }
}

// 4. Hotspot-driven local retargeting on M1: widen the target under a
// pinch marker, pull the facing edges back under a bridge marker.
void propose_hotspot_retargets(FixPlan& plan, const LayoutSnapshot& snap,
                               const DfmFlowReport& report,
                               const FixOptions& options, const Tech& tech) {
  if (!options.enabled(FixKind::kRetarget)) return;
  if (report.hotspots.empty()) return;

  const Region& m1 = snap.layer(layers::kMetal1).region();
  const Coord bias = std::max<Coord>(1, tech.m1_width / 4);
  const double predicted = predicted_composite_gain(
      report.scorecard, "litho",
      score_from_count(report.hotspots.size() - 1));

  for (const Hotspot& h : report.hotspots) {
    FixProposal p;
    p.kind = FixKind::kRetarget;
    p.site = h.marker;
    p.predicted_gain = predicted;
    if (h.kind == HotspotKind::kPinch) {
      // Under-printing: thicken the drawn target around the marker.
      p.rule = "LITHO.PINCH";
      const Region addition = Region{h.marker.expanded(bias)} - m1;
      if (addition.empty() ||
          !fix_detail::addition_legal(addition, m1, tech.m1_space)) {
        continue;
      }
      p.delta.add(layers::kMetal1, addition);
    } else {
      // Bridging: retreat the drawn edges feeding the bridge.
      p.rule = "LITHO.BRIDGE";
      const Region removal = m1 & Region{h.marker.expanded(bias)};
      if (!removal_safe(m1, removal, tech.m1_width)) continue;
      p.delta.remove(layers::kMetal1, removal);
    }
    if (!p.delta.empty()) plan.proposals.push_back(std::move(p));
  }
}

// 5. Dummy fill in under-dense tiles flagged by the density rule.
void propose_fill(FixPlan& plan, const LayoutSnapshot& snap,
                  const DfmFlowReport& report, const FixOptions& options,
                  const Tech& tech) {
  if (!options.enabled(FixKind::kFill)) return;
  for (const Violation& v : report.drcplus.drc.violations) {
    if (v.rule.find(".D.") == std::string::npos) continue;
    FillOptions fo;
    fo.tile = tech.density_tile;
    fo.target_min = tech.density_min;
    // insert_fill is a no-op on tiles already at/above the target, so
    // over-dense violations fall out naturally.
    const FillResult fill =
        insert_fill(snap, layers::kMetal1, v.marker, fo);
    if (fill.fill.empty()) continue;
    FixProposal p;
    p.kind = FixKind::kFill;
    p.site = v.marker;
    p.rule = v.rule;
    p.predicted_gain = 0;  // density is not a composite metric
    p.delta.add(layers::kMetal1, fill.fill);
    plan.proposals.push_back(std::move(p));
  }
}

// ---- issue accounting -----------------------------------------------------

std::string rect_key(const Rect& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%lld,%lld,%lld,%lld",
                static_cast<long long>(r.lo.x), static_cast<long long>(r.lo.y),
                static_cast<long long>(r.hi.x), static_cast<long long>(r.hi.y));
  return buf;
}

// Every discrete finding of a report, as a multiset. The gate compares
// the post-candidate multiset against the pre-candidate one: any key
// whose count grew is a new issue the candidate introduced. Incremental
// results only change inside the damage halo, so this global diff is
// exactly the "no new violations in the damage halo" check.
std::map<std::string, int> issue_counts(const DfmFlowReport& rep) {
  std::map<std::string, int> counts;
  for (const Violation& v : rep.drcplus.drc.violations) {
    ++counts["drc|" + v.rule + "|" + rect_key(v.marker) + "|" +
             std::to_string(v.measured)];
  }
  for (std::size_t si = 0; si < rep.drcplus.matches.size(); ++si) {
    for (const PatternMatch& m : rep.drcplus.matches[si]) {
      ++counts["pat|" + std::to_string(si) + "|" +
               std::to_string(m.rule_index) + "|" + rect_key(m.window)];
    }
  }
  for (const Hotspot& h : rep.hotspots) {
    ++counts["hot|" + std::to_string(static_cast<int>(h.kind)) + "|" +
             rect_key(h.marker)];
  }
  for (const FloatingCut& c : rep.floating_cuts) {
    ++counts["cut|" + rect_key(c.where)];
  }
  for (const auto& [rule, n] : rep.recommended.counts) {
    counts["rec|" + rule] += n;
  }
  counts["dpt|unresolved"] += rep.dpt.unresolved;
  counts["dpt|noncompliant"] += rep.dpt.compliant ? 0 : 1;
  return counts;
}

bool introduces_issues(const std::map<std::string, int>& before,
                       const std::map<std::string, int>& after) {
  for (const auto& [key, n] : after) {
    const auto it = before.find(key);
    if (n > (it == before.end() ? 0 : it->second)) return true;
  }
  return false;
}

}  // namespace

// ---- delta normalization --------------------------------------------------

LayoutDelta normalize_delta(const LayoutDelta& delta,
                            const LayoutSnapshot& snap) {
  LayoutDelta norm;
  for (const auto& [k, ld] : delta.layers()) {
    const NormalizedRegion cur = snap.layer(k);
    if (!ld.added.empty()) {
      // Only geometry not already present is an addition.
      const Region eff = ld.added - cur.clipped(ld.added.bbox());
      norm.add(k, eff);
    }
    if (!ld.removed.empty()) {
      // Only geometry actually present can be removed.
      const Region eff = ld.removed & cur.clipped(ld.removed.bbox());
      norm.remove(k, eff);
    }
  }
  return norm;
}

LayoutDelta inverse_delta(const LayoutDelta& normalized) {
  LayoutDelta inv;
  for (const auto& [k, ld] : normalized.layers()) {
    if (!ld.removed.empty()) inv.add(k, ld.removed);
    if (!ld.added.empty()) inv.remove(k, ld.added);
  }
  return inv;
}

// ---- the engine -----------------------------------------------------------

FixPlan FixEngine::run(const LayoutSnapshot& snap, const DfmFlowReport& report,
                       const FixOptions& options, const Tech& tech) {
  TELEM_SPAN("fix/propose");
  FixPlan plan;
  propose_pattern_repairs(plan, snap, report, options, tech);
  propose_via_doubling(plan, report, options, tech);
  propose_recommended_repairs(plan, snap, report, options, tech);
  propose_hotspot_retargets(plan, snap, report, options, tech);
  propose_fill(plan, snap, report, options, tech);
  return plan;
}

FixOutcome FixEngine::fix(DfmFlowSession& session, const FixOptions& options) {
  TELEM_SPAN("fix/loop");
  FixOutcome out;
  out.composite_before = session.report().scorecard.composite();
  const Tech& tech = session.options().tech;

  const int rounds = options.max_iters > 0 ? options.max_iters : 1;
  for (int iter = 1; iter <= rounds; ++iter) {
    const FixPlan plan =
        run(session.snapshot(), session.report(), options, tech);
    if (plan.empty()) break;
    ++out.iterations;

    // The accept gate's baseline. A rejected candidate is rolled back to
    // this very report, so only an accept moves it.
    double pre = session.report().scorecard.composite();
    std::map<std::string, int> pre_issues = issue_counts(session.report());
    int accepted_this_round = 0;
    for (const FixProposal& prop : plan.proposals) {
      ++out.proposed;
      FixStep step;
      step.kind = prop.kind;
      step.site = prop.site;
      step.rule = prop.rule;
      step.iter = iter;

      // Re-normalize against the layout of the moment: earlier accepted
      // repairs may already cover (or have removed) parts of this
      // candidate, and `applied` must describe only real changes.
      const LayoutDelta norm = normalize_delta(prop.delta, session.snapshot());
      if (norm.empty()) {
        step.reject = "noop";
        ++out.rejected;
        out.steps.push_back(std::move(step));
        continue;
      }

      bool ok;
      std::map<std::string, int> post_issues;
      {
        TELEM_SPAN("fix/verify");
        const DfmFlowReport& rep = session.apply(norm);
        step.gain = rep.scorecard.composite() - pre;
        ok = step.gain > options.min_gain;
        if (ok) {
          post_issues = issue_counts(rep);
          ok = !introduces_issues(pre_issues, post_issues);
        }
      }
      if (ok) {
        TELEM_SPAN("fix/accept");
        step.accepted = true;
        ++out.accepted;
        ++accepted_this_round;
        out.applied.merge(norm);
        pre = session.report().scorecard.composite();
        pre_issues = std::move(post_issues);
        TELEM_COUNTER_ADD("fix.accepted", 1);
        TELEM_GAUGE_ADD("fix.score_gain", step.gain);
      } else {
        {
          TELEM_SPAN("fix/rollback");
          session.rollback();
        }
        step.reject = step.gain > options.min_gain ? "new_issues" : "gain";
        ++out.rejected;
        TELEM_COUNTER_ADD("fix.rejected", 1);
      }
      out.steps.push_back(std::move(step));
    }
    if (accepted_this_round == 0) break;
  }
  out.composite_after = session.report().scorecard.composite();
  return out;
}

// ---- serialization --------------------------------------------------------

namespace {

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_rect(const Rect& r) {
  char buf[112];
  std::snprintf(buf, sizeof(buf), "[%lld, %lld, %lld, %lld]",
                static_cast<long long>(r.lo.x), static_cast<long long>(r.lo.y),
                static_cast<long long>(r.hi.x), static_cast<long long>(r.hi.y));
  return buf;
}

}  // namespace

std::string fix_outcome_json(const FixOutcome& out) {
  std::string s = "{\n";
  s += "  \"iterations\": " + std::to_string(out.iterations) + ",\n";
  s += "  \"proposed\": " + std::to_string(out.proposed) + ",\n";
  s += "  \"accepted\": " + std::to_string(out.accepted) + ",\n";
  s += "  \"rejected\": " + std::to_string(out.rejected) + ",\n";
  s += "  \"composite_before\": " + json_double(out.composite_before) + ",\n";
  s += "  \"composite_after\": " + json_double(out.composite_after) + ",\n";
  s += "  \"steps\": [\n";
  for (std::size_t i = 0; i < out.steps.size(); ++i) {
    const FixStep& st = out.steps[i];
    s += "    {\"iter\": " + std::to_string(st.iter) + ", \"kind\": \"" +
         fix_kind_name(st.kind) + "\", \"rule\": \"" + st.rule +
         "\", \"site\": " + json_rect(st.site) +
         ", \"accepted\": " + (st.accepted ? "true" : "false") +
         ", \"gain\": " + json_double(st.gain) + ", \"reject\": \"" +
         st.reject + "\"}";
    s += i + 1 < out.steps.size() ? ",\n" : "\n";
  }
  s += "  ]\n}\n";
  return s;
}

}  // namespace dfm

#include "pattern/matcher.h"

#include "core/parallel.h"
#include "core/telemetry.h"

#include <cstdlib>

namespace dfm {
namespace {

// Dimension vectors equal within +/- tol, element-wise.
bool dims_within(const std::vector<Coord>& a, const std::vector<Coord>& b,
                 Coord tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::llabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

// True when some orientation of `probe` has the rule's exact bitmap and
// dimensions within tolerance.
bool tolerance_match(const PatternEncoding& probe, const PatternEncoding& rule,
                     Coord tol) {
  for (const PatternEncoding& o : all_orientations(probe)) {
    if (o.nx != rule.nx || o.ny != rule.ny ||
        o.pattern_layers != rule.pattern_layers || o.bitmap != rule.bitmap) {
      continue;
    }
    if (dims_within(o.dims_x, rule.dims_x, tol) &&
        dims_within(o.dims_y, rule.dims_y, tol)) {
      return true;
    }
  }
  return false;
}

}  // namespace

PatternMatcher::PatternMatcher(std::vector<PatternRule> rules)
    : rules_(std::move(rules)) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    exact_[rules_[i].pattern.hash()].push_back(i);
    if (rules_[i].dim_tolerance > 0) {
      by_topology_[topology_hash(rules_[i].pattern.canonical())].push_back(i);
    }
  }
}

std::vector<PatternMatch> PatternMatcher::scan_window(
    const CapturedPattern& w) const {
  std::vector<PatternMatch> out;
  const std::uint64_t h = w.pattern.hash();
  std::vector<bool> already(rules_.size(), false);
  if (const auto it = exact_.find(h); it != exact_.end()) {
    for (const std::size_t ri : it->second) {
      out.push_back(PatternMatch{ri, w.window, w.anchor, true});
      already[ri] = true;
    }
  }
  const std::uint64_t th = topology_hash(w.pattern.canonical());
  if (const auto it = by_topology_.find(th); it != by_topology_.end()) {
    for (const std::size_t ri : it->second) {
      if (already[ri]) continue;
      if (tolerance_match(w.pattern.canonical(),
                          rules_[ri].pattern.canonical(),
                          rules_[ri].dim_tolerance)) {
        out.push_back(PatternMatch{ri, w.window, w.anchor, false});
      }
    }
  }
  return out;
}

std::vector<PatternMatch> PatternMatcher::scan(
    const std::vector<CapturedPattern>& windows, ThreadPool* pool) const {
  std::vector<PatternMatch> out;
  for (const std::vector<PatternMatch>& v :
       parallel_map(pool, windows.size(), [&](std::size_t i) {
         TELEM_SPAN_ARG("pattern/match", i);
         return scan_window(windows[i]);
       })) {
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<PatternMatch> PatternMatcher::scan_anchors(
    const LayoutSnapshot& snap, const std::vector<LayerKey>& on,
    LayerKey anchor_layer, Coord radius, ThreadPool* pool) const {
  return scan(capture_at_anchors(snap, on, anchor_layer, radius, pool), pool);
}

}  // namespace dfm

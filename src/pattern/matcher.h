// Pattern matching engine (the DRC-Plus workhorse): a library of named
// pattern rules scanned against capture windows of a target layout.
// Exact matches compare canonical forms; a per-rule dimension tolerance
// admits windows with identical topology whose cut spacings are each
// within +/- tolerance of the rule's.
#pragma once

#include "pattern/capture.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace dfm {

struct PatternRule {
  std::string name;
  TopologicalPattern pattern;
  Coord dim_tolerance = 0;  // 0 = exact pattern identity
  std::string guidance;     // fix hint reported with each match
};

struct PatternMatch {
  std::size_t rule_index;
  Rect window;
  Point anchor;
  bool exact = true;

  friend bool operator==(const PatternMatch&, const PatternMatch&) = default;
};

class PatternMatcher {
 public:
  explicit PatternMatcher(std::vector<PatternRule> rules);

  const std::vector<PatternRule>& rules() const { return rules_; }

  /// Scans pre-captured windows; each window can match several rules.
  /// Windows scan concurrently on the pool; matches are reported in
  /// window order either way.
  std::vector<PatternMatch> scan(const std::vector<CapturedPattern>& windows,
                                 ThreadPool* pool = nullptr) const;

  /// The matches of one window — the splice unit of incremental pattern
  /// scans. scan() is exactly the window-order concatenation of these.
  std::vector<PatternMatch> scan_window(const CapturedPattern& w) const;

  /// Convenience: anchor-capture the target and scan. Shares the
  /// snapshot's memoized R-trees across scans.
  std::vector<PatternMatch> scan_anchors(const LayoutSnapshot& snap,
                                         const std::vector<LayerKey>& on,
                                         LayerKey anchor_layer, Coord radius,
                                         ThreadPool* pool = nullptr) const;

 private:
  std::vector<PatternRule> rules_;
  // exact: canonical hash -> rule indices
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> exact_;
  // tolerance: topology hash -> rule indices (only rules with tol > 0)
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_topology_;
};

}  // namespace dfm

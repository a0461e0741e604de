// DRC Plus: the pattern-based layer on top of standard DRC. A deck pairs
// the dimensional rule deck with libraries of known-bad 2D patterns
// (each with a capture specification and fix guidance); running it gives
// both classic violations and pattern matches that plain DRC cannot see.
#pragma once

#include "drc/engine.h"
#include "pattern/matcher.h"

#include <string>
#include <vector>

namespace dfm {

/// One pattern library plus how to capture candidate windows for it.
struct PatternRuleSet {
  std::string name;
  std::vector<LayerKey> capture_layers;
  LayerKey anchor_layer;  // windows centered on this layer's components
  Coord radius = 0;       // half window edge
  std::vector<PatternRule> rules;
};

struct DrcPlusDeck {
  RuleDeck drc;
  std::vector<PatternRuleSet> pattern_sets;

  /// The reference DFM deck: standard DRC plus pattern rules captured
  /// from the known litho-marginal constructs (pinch corridor, facing
  /// line ends, borderless via) — all DRC-clean, all yield-relevant.
  static DrcPlusDeck standard(const Tech& tech);
};

struct DrcPlusResult {
  DrcResult drc;
  /// Matches per pattern set, aligned with deck.pattern_sets.
  std::vector<std::vector<PatternMatch>> matches;

  std::size_t pattern_match_count() const;

  friend bool operator==(const DrcPlusResult&, const DrcPlusResult&) = default;
};

struct DrcPlusOptions : PassOptions {
  using PassOptions::PassOptions;
};

class DrcPlusEngine {
 public:
  explicit DrcPlusEngine(DrcPlusDeck deck);

  const DrcPlusDeck& deck() const { return deck_; }

  /// Pool-aware like DrcEngine::run: dimensional rules and pattern-set
  /// window scans fan out, and matches stay aligned with
  /// deck.pattern_sets in capture order. The snapshot run is the native
  /// path — DRC and every pattern scan read the same memoized substrate.
  DrcPlusResult run(const LayoutSnapshot& snap,
                    const DrcPlusOptions& options = {}) const;

  /// The matcher for pattern set `i` — incremental re-analysis rescans
  /// individual capture windows against it and splices the results.
  const PatternMatcher& matcher(std::size_t i) const { return matchers_[i]; }

 private:
  DrcPlusDeck deck_;
  std::vector<PatternMatcher> matchers_;  // one per pattern set
};

/// Helper used by the standard deck and by tests: captures the pattern
/// of a freshly injected construct, anchored on the component of
/// `anchor_layer` nearest the marker center.
TopologicalPattern capture_reference_pattern(const LayerMap& layers,
                                             const std::vector<LayerKey>& on,
                                             LayerKey anchor_layer,
                                             const Rect& marker, Coord radius);

}  // namespace dfm

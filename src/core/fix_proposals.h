// Fix proposals: the typed currency of the score-gated auto-fix loop.
// A proposal is one candidate repair expressed as a LayoutDelta plus
// enough metadata (kind, site, originating rule) to trace, filter and
// serialize it deterministically; a plan is an ordered list of them.
// Types only — proposal *generation* and the accept/rollback loop live
// in core/fix_engine.h, so heavy flow headers can stay out of anything
// that just needs to carry FixOptions around (DfmFlowOptions, the
// service protocol, the CLI).
#pragma once

#include "core/delta.h"
#include "layout/tech.h"

#include <optional>
#include <string>
#include <vector>

namespace dfm {

/// The repair move taxonomy. Order here is documentation only; plan
/// order is the generator order in FixEngine::run.
enum class FixKind {
  kPatternVia,    // pad growth to full enclosure (DFM.VIA.BORDERLESS,
                  // R.V1.E.*)
  kPatternPinch,  // pinch-corridor widening (DFM.PINCH.1)
  kViaDouble,     // redundant via beside a single-via cut (yield pass)
  kSpread,        // wire spreading at a recommended spacing violation
  kRetarget,      // hotspot-driven local retarget (litho pinch/bridge)
  kFill,          // dummy fill in an under-dense tile
};

/// Stable machine name ("pattern_via", "via_double", ...) used by
/// --moves, the service `fix` op and the outcome serialization.
const char* fix_kind_name(FixKind kind);
/// Inverse of fix_kind_name; nullopt for unknown names.
std::optional<FixKind> parse_fix_kind(const std::string& name);

/// Checks a user-supplied move list (`dfmkit fix --moves`, `serve
/// --fix-moves`, the service `fix` op's "moves"): throws
/// std::invalid_argument "<what>: unknown move '<name>'
/// (pattern_via|...)" at the first name parse_fix_kind does not know.
void check_fix_moves(const std::string& what,
                     const std::vector<std::string>& moves);

/// The most rounds a user may ask of the fix loop: `dfmkit fix
/// --max-iters`, `serve --fix-max-iters`, `client fix --max-iters` and
/// the service `fix` op's "max_iters" all stop here.
inline constexpr int kMaxFixIters = 1000;

/// Knobs of the fix loop, threaded from `dfmkit fix` flags and
/// `dfmkit serve --fix-*` into DfmFlowOptions::fix.
struct FixOptions {
  /// Plan/evaluate rounds: each round re-plans against the post-round
  /// report, so repairs unlocked by earlier repairs get a chance. The
  /// loop also stops early when a round accepts nothing.
  int max_iters = 4;
  /// A candidate is accepted only when the re-scored composite gain
  /// strictly exceeds this (0 = any strict improvement).
  double min_gain = 0.0;
  /// Move subset by fix_kind_name; empty = every move enabled.
  std::vector<std::string> moves;

  bool enabled(FixKind kind) const;
};

/// One candidate repair. `delta` is relative to the snapshot the plan
/// was generated from; the loop re-normalizes it against the layout of
/// the moment before applying (see FixEngine).
struct FixProposal {
  FixKind kind = FixKind::kPatternVia;
  Rect site;                  // where the repair applies (marker/window)
  LayoutDelta delta;          // the candidate edit
  double predicted_gain = 0;  // generator's composite estimate (the gate
                              // measures the real gain; this is advisory)
  std::string rule;           // originating rule / pattern / hotspot tag
};

/// Ordered candidate repairs for one report. The order is the fixed
/// generator-index order — the determinism contract that makes the
/// accepted fix set bit-identical at any thread count and via the
/// service `fix` op.
struct FixPlan {
  std::vector<FixProposal> proposals;

  bool empty() const { return proposals.empty(); }
};

namespace fix_detail {

// The geometric repair primitives behind FixEngine's generators. All are
// pure: they compute additions against const inputs and leave
// application to the caller.

/// Material may be added iff it keeps `space` to everything it does not
/// merge with.
bool addition_legal(const Region& addition, const Region& layer, Coord space);

/// Pad growth around the via nearest `anchor`: the metal needed to give
/// the via `enclosure` margin on `metal`, when that addition is legal at
/// `space`. Returns false (and leaves `add` empty) when no via is near
/// or the grown pad would violate spacing.
bool via_pad_addition(const Region& vias, const Region& metal, Point anchor,
                      Coord via_size, Coord enclosure, Coord space,
                      Region& add);

/// The borderless-via repair: full-enclosure pad growth on both
/// metal layers at once (both must be legal or neither is produced).
bool borderless_via_additions(const Region& vias, const Region& m1,
                              const Region& m2, Point anchor, const Tech& t,
                              Region& add_m1, Region& add_m2);

/// The pinch-corridor repair: widen the M1 component under the
/// window's center perpendicular to its run direction.
bool pinch_addition(const Region& m1, const Rect& window, const Tech& t,
                    Region& add_m1);

}  // namespace fix_detail

}  // namespace dfm

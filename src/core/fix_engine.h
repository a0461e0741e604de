// The score-gated auto-fix loop: from scoring to repair.
//
// FixEngine closes the loop the scoring flow only measures. Planning
// (`run`) walks a DfmFlowReport and generates candidate repairs as
// LayoutDeltas — pad growth at borderless vias, pinch widening, a
// redundant via beside every single-via cut, wire spreading at
// recommended-rule spacing violations, hotspot-driven local retargets,
// dummy fill in under-dense tiles — in a fixed generator-index order.
// The loop (`fix`) applies each candidate through DfmFlowSession's
// incremental splice and accepts it only if the re-scored composite
// strictly improves AND no new issue (DRC violation, pattern match,
// hotspot, floating cut, recommended-rule hit, DPT regression) appears
// anywhere; a rejected candidate is undone by DfmFlowSession::rollback,
// which puts back the pre-candidate snapshot, report and unit caches
// without running a pass.
//
// Determinism contract: proposals are generated and evaluated in index
// order and every underlying pass is thread-count invariant, so the
// accepted fix set — and fix_outcome_json's bytes — are identical at
// 1/2/8 threads and via the service `fix` op vs a direct call.
#pragma once

#include "core/dfm_flow.h"
#include "core/fix_proposals.h"
#include "core/incremental.h"

namespace dfm {

/// One evaluated proposal of the loop, in evaluation order.
struct FixStep {
  FixKind kind = FixKind::kPatternVia;
  Rect site;
  std::string rule;
  int iter = 0;        // 1-based plan round
  bool accepted = false;
  double gain = 0;     // measured composite delta (0 when never applied)
  std::string reject;  // "" | "gain" | "new_issues" | "noop"
};

/// What one loop run did. `applied` is the merge of every accepted
/// delta, each normalized against the layout it was applied to — so
/// applying `applied` to the pre-fix layout reproduces the fixed one.
struct FixOutcome {
  int iterations = 0;  // plan rounds that produced at least one proposal
  int proposed = 0;
  int accepted = 0;
  int rejected = 0;
  double composite_before = 0;
  double composite_after = 0;
  LayoutDelta applied;
  std::vector<FixStep> steps;
};

class FixEngine {
 public:
  /// Pure planning, side-effect-free: the ordered candidate repairs for
  /// `report`'s findings over `snap`. Does not verify — the loop (or
  /// the caller) applies and gates each candidate.
  static FixPlan run(const LayoutSnapshot& snap, const DfmFlowReport& report,
                     const FixOptions& options,
                     const Tech& tech = Tech::standard());

  /// The propose/verify/accept loop over a session. Each accepted
  /// candidate stays applied (the session's report advances); each
  /// rejected one is undone by session.rollback(), so the session ends as
  /// if it had seen only the accepted ones. The session's Tech
  /// (options().tech) drives planning.
  static FixOutcome fix(DfmFlowSession& session, const FixOptions& options);
};

/// Normalizes a candidate delta against the current layout: additions
/// drop what is already present, removals keep only what actually
/// exists. The result applies to the same end state as `delta`, and its
/// inverse_delta() restores the pre-apply layout exactly. The loop
/// merges normalized deltas into FixOutcome::applied.
LayoutDelta normalize_delta(const LayoutDelta& delta,
                            const LayoutSnapshot& snap);

/// The exact undo of a *normalized* delta: swap adds and removes. The
/// loop itself rolls back with DfmFlowSession::rollback; applying this
/// instead reaches an equivalent report by a second flow run.
LayoutDelta inverse_delta(const LayoutDelta& normalized);

/// Deterministic serialization of an outcome (fixed field order, %.17g
/// doubles): byte-identical across thread counts and direct-vs-served
/// runs, which is how the benches and tests diff them.
std::string fix_outcome_json(const FixOutcome& outcome);

}  // namespace dfm

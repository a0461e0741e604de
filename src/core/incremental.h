// Incremental re-analysis: dirty-region deltas over LayoutSnapshot.
//
// A DfmFlowSession runs the full DFM flow cold once, keeps the per-unit
// intermediate results of every pass (per-(rule x tile) violation
// lists, per-window pattern matches, per-tile litho hotspots and prints,
// per-conflict-unit DPT decompositions, per-cluster via doubling,
// per-net keys and per-(term x tile) CAA areas), and
// on each applied LayoutDelta re-runs only the units whose inputs the
// edit dirtied — splicing the cached results in for everything else. The
// spliced report is bit-identical to running the flow cold on the edited
// layout, at every thread count: each unit is a deterministic function
// of canonical layer geometry, and a unit is reused only when that
// geometry is provably unchanged inside the unit's interaction halo.
//
// Damage model (what makes a unit dirty; a unit with no cached result
// is always dirty, so a cold run is the all-dirty case of the same
// driver, detail::run_flow):
//  * Spatial units share one grid (TileGrid): Tech::density_tile cores
//    anchored at the snapshot bbox, the grid snapshot density maps use.
//    Ownership is half-open and the outer cells extend without bound, so
//    every violation or hotspot has exactly one owning tile. A spatial
//    unit with reach r is stale when the damage bbox of its layers grown
//    by r touches its cell, or when the bbox (grown by r) of a component
//    near the damage does: an edit that creates, removes, merges or
//    splits a component changes the global labelling the tile reads
//    wherever that component reaches.
//  * DRC / recommended rule: one unit per (rule x tile) for width,
//    spacing, area, enclosure and wide spacing, with reach rule_reach();
//    a tile under a cached violation within reach of the damage is stale
//    too (a bad-region component can be long). A stale tile reruns the
//    check on the layer near its cell, completing bad components that
//    cross the cell's edge before ownership is decided; per-rule lists
//    re-merge in component-bbox order. A cold run (or a new grid) is the
//    case where every tile is stale. Density rules stay whole-rule units
//    (any layer dirtied), and a bbox-moving edit forces a full cold run
//    (IncrementalSnapshot::bbox_changed) because the grid moves.
//  * Pattern window: one unit per (set, anchor window). Anchor sites are
//    re-enumerated every run from the anchor layer's memoized labelling
//    (shared with the base snapshot while the layer is clean), so
//    windows appear/move/vanish exactly as they would cold; a window
//    whose key was cached is stale when the edit's dirty region on a
//    capture layer overlaps it with positive area.
//  * Litho tile: the dirty region intersects the tile core expanded by
//    the 6-sigma optical halo (the exact window the tile simulates). A
//    stale tile with a cached print re-renders only the pixels the edit
//    reaches, and recompares only a window around them, grown until
//    every risk component it reaches lies inside; risk pieces that reach
//    a tile seam re-merge across tiles on every run.
//  * dpt: one unit per conflict unit of M1 (dpt_units: components
//    linked, transitively, by a gap below dpt_space, touching included).
//    A unit is stale unless the same member boxes formed it last run and
//    no M1 dirty rect touches a member box. Units lie dpt_space apart, so
//    the masks, stitches and score partials assemble from the units'.
//    An edit that leaves M1 clean carries the whole result over.
//  * via_doubling: one unit per interaction cluster of single vias
//    (via_clusters: singles whose insertion candidates could come within
//    via_space of each other, transitively). A cluster is stale unless
//    the same member boxes formed it last run and no dirty region on
//    M1, V1 or M2 lies within via_reach of a member box.
//  * connectivity: one unit per net. A net dissolves when one of its
//    pieces, on any stack layer, touches the union of the stack's dirty
//    regions; dissolved nets and the edited components touching the
//    damage are re-extracted and merged back in canonical (NetKey)
//    order. A floating-cut verdict is kept while the damage misses the
//    cut's bbox.
//  * caa_yield: M1 layer-local shorts and M2 net-aware shorts as one
//    unit per (term x tile) each: the integer 2x-grid area of the >= 2-net
//    coverage the tile owns at every defect size of the term. An M1 tile
//    is stale when the M1 damage, or a component touching it, comes
//    within short_reach (half the largest defect) of it; an M2 tile when
//    the old or new M2 bbox of a net the connectivity splice dissolved
//    or created does. The pass sums each term's integers in tile order
//    and integrates them as the whole-layer kernel's integers are. M2
//    opens (m2) is one unit, cached as a double.
// A cold run is the case where every unit of every pass is stale.
//
// Undo: a run never writes the caches it reuses. It reads the previous
// FlowCaches as const and builds the next one, which shares every reused
// unit result by pointer and holds only this run's keys. The snapshot
// chain shares the same way: a derived snapshot shares every clean
// layer's slot with the one before it. An apply keeps the state it
// replaced — snapshot, report and caches, one value — so
// DfmFlowSession::rollback restores the state before the apply exactly,
// without running a pass, and an apply that throws leaves the session as
// it was.
#pragma once

#include "core/delta.h"
#include "core/dfm_flow.h"

#include <functional>
#include <memory>
#include <optional>
#include <utility>

namespace dfm {

/// One pass's unit results, keyed and in key order (keys distinct). A
/// result is immutable once computed, so a later run that reuses it
/// shares the pointer.
template <class K, class R>
using UnitCache = std::vector<std::pair<K, std::shared_ptr<const R>>>;

/// What an incremental run may reuse from the previous one. Every run
/// (cold runs too) builds a new one; a run never modifies the one it
/// reads.
struct FlowCaches {
  // Deck-derived state, deterministic in the Tech: built by the first
  // run and shared by every later one, so repeated runs skip deck
  // construction entirely.
  std::shared_ptr<const DrcPlusEngine> engine;
  std::shared_ptr<const std::vector<RecommendedRule>> recommended_rules;

  /// The spatial splice grid the tiled units of the last run used:
  /// Tech::density_tile cores anchored at the snapshot bbox.
  TileGrid grid;
  /// Per (rule index in the deck, unit): the keyed violations the unit
  /// owns. A rule_tiled rule has one unit per grid tile, a density rule
  /// one (unit 0).
  UnitCache<std::pair<std::size_t, std::size_t>, std::vector<KeyedViolation>>
      drc_rules, recommended_tiles;
  /// Per (pattern set, anchor window): the window's matches.
  UnitCache<std::pair<std::size_t, AnchorWindow>, std::vector<PatternMatch>>
      pattern_windows;
  /// The litho simulation tiles the last run used: TileGrid(M1 bbox,
  /// litho_tile), default when litho did not run.
  TileGrid litho_grid;
  /// Per litho tile index: the tile's print, risk state and prefilter
  /// skip bit. Empty when litho did not run, so the next run simulates
  /// cold.
  UnitCache<std::size_t, LithoTile> litho;
  /// dpt's units: per conflict unit of M1, keyed by its member boxes in
  /// labelling order, the unit's decomposition and score partial.
  UnitCache<std::vector<Rect>, DptUnitResult> dpt_units;
  /// via_doubling's units: per interaction cluster of single vias,
  /// keyed by its member boxes in labelling order, the cluster's result.
  UnitCache<std::vector<Rect>, ViaDoublingResult> via_clusters;
  /// connectivity's: the NetKey of every net of the last report, aligned
  /// with its netlist (the nets themselves splice from that report).
  NetKeys net_keys;
  /// caa_yield's per-unit results: per (term, grid tile index), per
  /// defect size, the 2x-grid area of the shorts critical region the tile
  /// owns, for the M1 layer-local term (0) and the M2 net-aware term (1);
  /// M2 opens as a fault rate.
  UnitCache<std::pair<std::size_t, std::size_t>, std::vector<Area>> caa_tiles;
  double caa_m2_opens = 0.0;
};

/// Which layers an edit dirtied, as the passes consume it. A null
/// snapshot (cold run) or a bbox-moving edit damages everything.
struct FlowDamage {
  const IncrementalSnapshot* inc = nullptr;

  bool full() const { return inc == nullptr || inc->bbox_changed(); }
  bool dirty(LayerKey k) const { return full() || inc->layer_dirty(k); }
  bool dirty_any(const std::vector<LayerKey>& on) const {
    return full() || inc->any_dirty(on);
  }
};

namespace detail {
/// The one flow driver every entry point runs through: the three
/// run_dfm_flow overloads, the three DfmFlowSession constructors and
/// DfmFlowSession::apply. It opens the "flow" span, times `snapshot()`
/// (which builds the snapshot to analyse, or derives it from the last
/// one) as the "snapshot" pass, applies resolved_memory_budget, and runs
/// every enabled pass into `rep`. Each pass's PassTrace.ms and its
/// "flow/<pass>" span are the same two clock reads. With `prev` (the
/// report `was` describes) and an IncrementalSnapshot whose damage is
/// partial, only the units its damage makes stale recompute and the
/// rest are shared from `was`; otherwise the run is cold (full damage).
/// Returns the caches describing this run; `was` is never written, so
/// it still describes `prev` afterwards.
FlowCaches run_flow(DfmFlowReport& rep, const DfmFlowOptions& options,
                    ThreadPool* pool, const DfmFlowReport* prev,
                    const FlowCaches& was,
                    const std::function<const LayoutSnapshot&()>& snapshot);
}  // namespace detail

/// The fix -> recheck loop: build once, edit cheaply.
///
///   DfmFlowSession session(lib, top, options);
///   ... inspect session.report() ...
///   const ViaDoublingResult& vias = session.report().vias;
///   session.apply(to_delta(vias));        // re-analyzes only the damage
///   session.rollback();                   // ...or takes it back
///
/// Options are fixed for the session's lifetime (the unit caches are
/// only comparable across runs of the same deck, model and pass set).
class DfmFlowSession {
 public:
  /// Flattens, snapshots and runs the flow cold. Under a resolved
  /// memory budget the flatten happens lazily over a copy of `lib`
  /// (LibrarySource), so hydrated snapshot state stays under budget.
  DfmFlowSession(const Library& lib, std::uint32_t top,
                 DfmFlowOptions options);
  /// Same from an explicit layer map (testing / in-memory edits).
  DfmFlowSession(LayerMap layers, DfmFlowOptions options);
  /// Out-of-core session: hydrates lazily from `source` (e.g. a
  /// streaming reader) under resolved_memory_budget.
  DfmFlowSession(std::shared_ptr<const SnapshotSource> source,
                 DfmFlowOptions options);

  const DfmFlowOptions& options() const { return options_; }
  const LayoutSnapshot& snapshot() const { return *state_.snap; }
  const DfmFlowReport& report() const { return state_.report; }

  /// Applies `delta`, derives an IncrementalSnapshot, and re-runs the
  /// flow over the damage. Returns the updated report (bit-identical to
  /// a cold run over the edited layout). An empty delta still re-splices
  /// (cheaply); a bbox-moving delta degrades to a full re-run. Keeps
  /// the state it replaces for rollback() until the next apply.
  const DfmFlowReport& apply(const LayoutDelta& delta);

  /// Undoes the last apply without running any pass: the snapshot is
  /// the same object as before it (memoized products intact), the
  /// report the same value (trace included), and the unit caches the
  /// same objects, so every later apply reports exactly what it would
  /// have had that apply never happened. Costs one move, not a flow
  /// run. Throws std::logic_error when there is no apply to undo: right
  /// after construction, or after a rollback.
  void rollback();

 private:
  /// Everything an apply replaces.
  struct State {
    std::shared_ptr<const LayoutSnapshot> snap;
    DfmFlowReport report;
    FlowCaches caches;
  };

  DfmFlowOptions options_;
  PassPool pool_;
  State state_;
  std::optional<State> undo_;  // what the last apply replaced
};

}  // namespace dfm

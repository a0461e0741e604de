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
// Undo: an apply keeps what it replaced — the previous snapshot object,
// the previous report, and a FlowJournal of every cache entry the run
// displaced (taken by move, swap or node extraction, never copied) — so
// DfmFlowSession::rollback restores the state before the apply exactly,
// without running a pass. A full-damage run (a bbox-moving edit) clears
// every cache, so it journals each one whole. Deck state (engine,
// recommended_rules, kernels) depends only on the Tech and is kept.
#pragma once

#include "core/delta.h"
#include "core/dfm_flow.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <type_traits>

namespace dfm {

/// What an incremental run may reuse from the previous one. Populated by
/// every run (cold runs fill it from scratch); `valid` says the unit
/// caches describe the snapshot the previous report was computed on.
struct FlowCaches {
  // Deck-derived state, deterministic in the Tech: rebuilt only when
  // absent so repeated runs skip deck construction entirely.
  std::shared_ptr<const DrcPlusEngine> engine;
  std::vector<RecommendedRule> recommended_rules;

  /// The spatial splice grid the tiled units of the last run used:
  /// Tech::density_tile cores anchored at the snapshot bbox.
  TileGrid grid;
  // Per-unit results, aligned with the deck: per rule, per unit (one per
  // grid tile for a rule_tiled rule, one for a density rule), the keyed
  // violations that unit owns.
  std::vector<std::vector<std::vector<KeyedViolation>>> drc_rules;
  std::vector<std::vector<std::vector<KeyedViolation>>> recommended_tiles;
  /// Per (pattern set, anchor window): the window's matches.
  std::map<std::pair<std::size_t, AnchorWindow>, std::vector<PatternMatch>>
      pattern_windows;
  HotspotTileSim litho;
  bool litho_valid = false;
  /// Kernel spectra for the litho FFT path, shared across runs of a
  /// session (one transform per process corner and raster size).
  std::shared_ptr<KernelSpectrumCache> kernels;
  /// dpt's units: per conflict unit of M1, keyed by its member boxes in
  /// labelling order, the unit's decomposition and score partial.
  std::map<std::vector<Rect>, DptUnitResult> dpt_units;
  bool dpt_valid = false;
  /// via_doubling's units: per interaction cluster of single vias,
  /// keyed by its member boxes in labelling order, the cluster's result.
  std::map<std::vector<Rect>, ViaDoublingResult> via_clusters;
  bool vias_valid = false;
  /// connectivity's: the NetKey of every net of the last report, aligned
  /// with its netlist (the nets themselves splice from that report).
  std::vector<NetKey> net_keys;
  bool nets_valid = false;
  /// caa_yield's per-unit results: per (term, grid tile index), per
  /// defect size, the 2x-grid area of the shorts critical region the tile
  /// owns, for the M1 layer-local term (0) and the M2 net-aware term (1);
  /// M2 opens as a fault rate.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<Area>> caa_tiles;
  double caa_m2_opens = 0.0;
  bool caa_valid = false;

  bool valid = false;
};

/// What one run displaced from FlowCaches, as undo steps. Each step
/// holds the displaced state itself, taken by move, swap or node
/// extraction and never copied, so a journaled run costs what an
/// unjournaled one does: state the run would have destroyed on the spot
/// lives on in the journal instead. undo() replays the steps newest
/// first, which leaves every cache as it was before the run.
class FlowJournal {
 public:
  /// Records `step`, a callable that puts back what the run just
  /// displaced. Steps may refer to cache members by reference: the
  /// caches outlive the journal and are restored newest first.
  template <class F>
  void record(F&& step) {
    steps_.push_back(
        std::make_unique<Step<std::decay_t<F>>>(std::forward<F>(step)));
  }

  /// Replays every step, newest first, and forgets them.
  void undo();

 private:
  struct AnyStep {
    virtual ~AnyStep() = default;
    virtual void run() = 0;
  };
  template <class F>
  struct Step final : AnyStep {
    template <class G>
    explicit Step(G&& g) : f(std::forward<G>(g)) {}
    void run() override { f(); }
    F f;
  };
  std::vector<std::unique_ptr<AnyStep>> steps_;
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
/// report `caches` describe) and an IncrementalSnapshot, only the units
/// its damage makes stale recompute and the rest splice in from
/// `caches`; otherwise the run is cold (full damage). Either way
/// `caches` is left describing this run. With a `journal`, everything
/// the run displaces from `caches` is recorded there, so
/// journal->undo() puts `caches` back as it was; the journal changes
/// nothing the run computes.
void run_flow(DfmFlowReport& rep, const DfmFlowOptions& options,
              ThreadPool* pool, FlowCaches& caches, const DfmFlowReport* prev,
              const std::function<const LayoutSnapshot&()>& snapshot,
              FlowJournal* journal = nullptr);
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
  const LayoutSnapshot& snapshot() const { return *snap_; }
  const DfmFlowReport& report() const { return report_; }

  /// Applies `delta`, derives an IncrementalSnapshot, and re-runs the
  /// flow over the damage. Returns the updated report (bit-identical to
  /// a cold run over the edited layout). An empty delta still re-splices
  /// (cheaply); a bbox-moving delta degrades to a full re-run. Keeps
  /// the state it replaces for rollback() until the next apply.
  const DfmFlowReport& apply(const LayoutDelta& delta);

  /// Undoes the last apply without running any pass: the snapshot is
  /// the same object as before it (memoized products intact), the
  /// report the same value (trace included), and every unit cache holds
  /// what it held, so every later apply reports exactly what it would
  /// have had that apply never happened. Costs the displaced units, not
  /// a flow run. Throws std::logic_error when there is no apply to undo:
  /// right after construction, or after a rollback.
  void rollback();

 private:
  /// What the last apply replaced.
  struct Undo {
    std::unique_ptr<LayoutSnapshot> snap;
    DfmFlowReport report;
    FlowJournal journal;
  };

  DfmFlowOptions options_;
  PassPool pool_;
  std::unique_ptr<LayoutSnapshot> snap_;
  DfmFlowReport report_;
  FlowCaches caches_;
  std::optional<Undo> undo_;
};

}  // namespace dfm

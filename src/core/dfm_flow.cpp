#include "core/dfm_flow.h"

#include "core/incremental.h"
#include "core/parallel.h"
#include "core/telemetry.h"
#include "litho/prefilter.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dfm {
namespace {

// Peak resident set size of this process in KiB, via getrusage (0 where
// that is unavailable). macOS reports ru_maxrss in bytes, Linux in KiB.
std::int64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss / 1024);
#else
  return static_cast<std::int64_t>(ru.ru_maxrss);
#endif
#else
  return 0;
#endif
}

// The flow's one clock: a span opened at one now_ns() read and closed at
// a second, with close() returning the same interval in ms, so a trace
// row and its span can never disagree. Spans the timed code records on
// this thread nest under it.
class FlowClock {
 public:
  /// `span_name` must be a string literal (exported by pointer).
  explicit FlowClock(const char* span_name)
      : t0_(telemetry::now_ns()),
        span_(telemetry::Span::opened_at(span_name, t0_)) {}

  double close() {
    const std::uint64_t t1 = telemetry::now_ns();
    span_.close_at(t1);
    return static_cast<double>(t1 - t0_) / 1e6;
  }

 private:
  std::uint64_t t0_;
  telemetry::Span span_;
};

using RuleUnits = UnitCache<std::pair<std::size_t, std::size_t>,
                            std::vector<KeyedViolation>>;

/// A rule's violations from its units' results (`units`, `n` of them, in
/// tile order): tile lists re-merge in the component-bbox order check_*
/// emits (stable, so a component's violations keep their relative order).
std::vector<KeyedViolation> merge_units(
    const std::vector<KeyedViolation>* const* units, std::size_t n,
    bool tiled) {
  std::vector<KeyedViolation> out;
  for (std::size_t t = 0; t < n; ++t) {
    out.insert(out.end(), units[t]->begin(), units[t]->end());
  }
  if (tiled) {
    std::stable_sort(out.begin(), out.end(),
                     [](const KeyedViolation& a, const KeyedViolation& b) {
                       if (a.key.lo != b.key.lo) return a.key.lo < b.key.lo;
                       return a.key.hi < b.key.hi;
                     });
  }
  return out;
}

/// Marks (in `stale`) the grid tiles a spatial unit with reach `reach`
/// must recompute after an edit whose damage bbox is `damage`: those
/// whose cell the damage grown by the reach touches, and those the bbox
/// of a component of `comps` grown by the reach touches, for every
/// component that comes within `near` of the damage (a component the
/// edit created, removed, merged or split touches it).
void mark_damaged_tiles(const TileGrid& grid, const Rect& damage, Coord reach,
                        const LayerComponents* comps, Coord near,
                        std::vector<char>& stale) {
  std::vector<std::size_t> hit;
  grid.touching(damage.expanded(reach), hit);
  if (comps != nullptr) {
    const Rect probe = damage.expanded(near);
    comps->index.visit(probe, [&](std::uint32_t i) {
      for (const Rect& r : comps->regions[i].rects()) {
        if (r.touches(probe)) {
          grid.touching(comps->boxes[i].expanded(reach), hit);
          return;
        }
      }
    });
  }
  for (const std::size_t t : hit) stale[t] = 1;
}

/// The rects of the edit's dirty regions on `on`. Requires damage.inc.
std::vector<Rect> dirty_rects(const FlowDamage& damage,
                              const std::vector<LayerKey>& on) {
  std::vector<Rect> out;
  for (const LayerKey k : on) {
    const std::vector<Rect>& d = damage.inc->dirty_region(k).rects();
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

/// What a pass reports for its trace row.
struct PassCounts {
  std::size_t items = 0;        // result items
  std::size_t total_units = 0;  // splice units
  std::size_t dirty_units = 0;  // units recomputed
  bool incremental = false;     // spliced against a previous run
};

// The state every pass of one run shares, and the decisions they make
// the same way: whether a pass runs and how it is timed, when a unit is
// stale, and how stale units are scheduled under a memory budget.
class FlowDriver {
 public:
  FlowDriver(DfmFlowReport& rep, const LayoutSnapshot& snap,
             const DfmFlowOptions& options, ThreadPool* pool,
             const FlowDamage& damage, bool inc)
      : rep_(rep), snap_(snap), options_(options), pool_(pool),
        damage_(damage), inc_(inc) {}

  /// Runs `body` as pass "<name>" when the options enable it, under the
  /// flow clock, and appends its PassTrace row with the snapshot cache
  /// activity in between (builds happen at most once per derived
  /// product, so the hit/miss split is thread-count invariant).
  /// `span_name` is the string literal "flow/<name>"; `body` returns
  /// the PassCounts.
  template <class Body>
  void pass(const char* span_name, Body&& body) {
    const std::string name = span_name + std::strlen("flow/");
    if (!enabled(name)) return;
    const SnapshotCacheStats stats0 = snap_.cache_stats();
    FlowClock clock(span_name);
    const PassCounts c = body();
    const double ms = clock.close();
    const SnapshotCacheStats d = snap_.cache_stats() - stats0;
    rep_.trace.passes.push_back(PassTrace{name, ms, c.items, d.hits(),
                                          d.builds(), c.total_units,
                                          c.dirty_units, c.incremental});
    TELEM_COUNTER_ADD("flow.units_total", c.total_units);
    TELEM_COUNTER_ADD("flow.units_dirty", c.dirty_units);
    TELEM_COUNTER_ADD("flow.units_reused", c.total_units - c.dirty_units);
  }

  /// A whole-pass unit reading layers `on` must recompute when there is
  /// no previous result to reuse (a cold run) or the edit dirtied one of
  /// those layers.
  bool stale(const std::vector<LayerKey>& on) const {
    return !inc_ || damage_.dirty_any(on);
  }

  bool budgeted() const { return snap_.budget().limit() != 0; }

  /// Out-of-core scheduling: with a byte budget on the snapshot, evicts
  /// hydrated state at pass (and unit-group) boundaries, keeping only
  /// the next working set's geometry. Eviction and re-hydration never
  /// change what a pass computes, so the report is bit-identical at any
  /// budget. Boundaries are quiescent (single-threaded driver code),
  /// which the eviction API requires. Releases down to half the limit,
  /// so the next working set hydrates into slack instead of starting at
  /// the ceiling and overshooting mid-pass.
  void evict_keeping(const std::vector<LayerKey>& keep) const {
    if (budgeted()) snap_.evict_to_budget(keep, snap_.budget().limit() / 2);
  }

  /// Units keyed by their member boxes (DPT conflict units, via
  /// clusters): per group of component indices into `comps`, the
  /// members' boxes in order, and whether one of them grown by `reach`
  /// touches a dirty rect on `on` (never on a cold run).
  struct MemberKeys {
    std::vector<std::vector<Rect>> keys;
    std::vector<char> touched;  // aligned with keys
  };
  MemberKeys member_keys(const LayerComponents& comps,
                         const std::vector<std::vector<std::uint32_t>>& groups,
                         const std::vector<LayerKey>& on, Coord reach) const {
    const std::vector<Rect> dirty =
        inc_ ? dirty_rects(damage_, on) : std::vector<Rect>{};
    MemberKeys out;
    out.keys.resize(groups.size());
    out.touched.assign(groups.size(), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const std::uint32_t m : groups[g]) {
        out.keys[g].push_back(comps.boxes[m]);
        const Rect probe = comps.boxes[m].expanded(reach);
        for (const Rect& d : dirty) {
          if (probe.touches(d)) out.touched[g] = 1;
        }
      }
    }
    return out;
  }

  /// A keyed splice's outcome: the new cache (this run's keys only, each
  /// reused result shared with the previous cache), this run's results
  /// in unit order (pointing into it), and how many units recomputed.
  template <class K, class R>
  struct Spliced {
    UnitCache<K, R> cache;
    std::vector<const R*> results;
    std::size_t recomputed = 0;
  };

  /// Content-keyed splice of `units` against `prev`, the previous run's
  /// cache of this pass (null when there is nothing to reuse; a cold run
  /// reuses nothing either way). A unit whose key `prev` holds and that
  /// `touched(i)` (i its index in `units`) does not flag shares its cached
  /// result; every other unit computes `compute(i)` through run_groups,
  /// grouped by `layers_of(i)`. `prev` is only read. A repeated key is one
  /// result, computed once per occurrence when stale.
  template <class K, class R, class Touched, class LayersOf, class Compute>
  Spliced<K, R> splice(const UnitCache<K, R>* prev, const std::vector<K>& units,
                       Touched&& touched, LayersOf&& layers_of,
                       Compute&& compute) const {
    if (!inc_) prev = nullptr;
    // Walk the units in key order beside the (ordered) previous cache,
    // building the new one in the same order.
    std::vector<std::size_t> order(units.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return units[a] < units[b];
    });
    Spliced<K, R> out;
    out.cache.reserve(units.size());
    std::vector<std::size_t> slot(units.size());  // index into out.cache
    std::vector<std::size_t> stale;
    std::size_t j = 0;
    for (std::size_t n = 0; n < order.size(); ++n) {
      const std::size_t i = order[n];
      const K& key = units[i];
      if (n > 0 && !(units[order[n - 1]] < key)) {
        // A repeated key shares its first occurrence's fate.
        slot[i] = out.cache.size() - 1;
        if (out.cache.back().second == nullptr) stale.push_back(i);
        continue;
      }
      std::shared_ptr<const R> reused;
      if (prev != nullptr) {
        while (j < prev->size() && (*prev)[j].first < key) ++j;
        if (j < prev->size() && !(key < (*prev)[j].first) && !touched(i)) {
          reused = (*prev)[j].second;
        }
      }
      if (reused == nullptr) stale.push_back(i);
      slot[i] = out.cache.size();
      out.cache.emplace_back(key, std::move(reused));
    }
    std::sort(stale.begin(), stale.end());
    run_groups(stale, layers_of, compute, [&](std::size_t i, R&& r) {
      out.cache[slot[i]].second = std::make_shared<const R>(std::move(r));
    });
    out.results.reserve(units.size());
    for (const std::size_t s : slot) {
      out.results.push_back(out.cache[s].second.get());
    }
    out.recomputed = stale.size();
    return out;
  }

  /// The (rule x tile) splice of `rules` against `prev` (null: the grid
  /// changed, nothing to reuse): one unit per grid tile for a rule_tiled
  /// rule, keyed (rule index, tile index), one for a density rule (tile
  /// 0). A density rule recomputes when the edit dirtied its layers; a
  /// tiled rule the edit dirtied recomputes only the tiles its damage
  /// reaches (mark_damaged_tiles at rule_reach, plus every tile under a
  /// cached violation within reach of the damage). Each unit runs under a
  /// `span` span with its tile index. Results come in (rule, tile) order.
  auto splice_rules(const RuleUnits* prev, const std::vector<Rule>& rules,
                    const TileGrid& grid, const char* span) const {
    std::vector<std::pair<std::size_t, std::size_t>> units;
    std::vector<char> touched;  // aligned with units
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      const Rule& rule = rules[ri];
      const std::size_t n = rule_tiled(rule) ? grid.size() : 1;
      const std::vector<LayerKey> on = rule_layers(rule);
      std::vector<char> stale(n, 0);
      if (prev != nullptr && inc_ && damage_.dirty_any(on)) {
        if (!rule_tiled(rule)) {
          stale[0] = 1;
        } else {
          const Rect dmg = damage_.inc->damage_bbox(on, 0);
          const Coord reach = rule_reach(rule);
          mark_damaged_tiles(grid, dmg, reach,
                             &snap_.components(rule_component_layer(rule)),
                             reach, stale);
          std::vector<std::size_t> hit;
          for (auto it = std::lower_bound(
                   prev->begin(), prev->end(), std::pair{ri, std::size_t{0}},
                   [](const auto& e, const auto& k) { return e.first < k; });
               it != prev->end() && it->first.first == ri; ++it) {
            for (const KeyedViolation& kv : *it->second) {
              const Rect ext = kv.extent.expanded(reach);
              if (ext.touches(dmg)) grid.touching(ext, hit);
            }
          }
          for (const std::size_t t : hit) stale[t] = 1;
        }
      }
      for (std::size_t t = 0; t < n; ++t) {
        units.emplace_back(ri, t);
        touched.push_back(stale[t]);
      }
    }
    return splice(
        prev, units, [&](std::size_t i) { return touched[i] != 0; },
        [&](std::size_t i) { return rule_layers(rules[units[i].first]); },
        [&](std::size_t i) {
          const auto [ri, t] = units[i];
          TELEM_SPAN_ARG(span, t);
          const Rule& rule = rules[ri];
          return rule_tiled(rule) ? run_rule_tile(snap_, rule, grid, t)
                                  : DrcEngine::run_rule_keyed(snap_, rule);
        });
  }

 private:
  /// Computes `compute(u)` for every unit in `units` on the pool and
  /// hands each result to `store(u, result)`. Under a budget the units
  /// run in groups sharing one sorted layer set (layers_of(u): the layers
  /// u reads resident, in order of first appearance), evicting down to
  /// the budget before each group that reads any; unbudgeted runs compute
  /// them as one group. Results land by unit, so they are identical at
  /// any budget and thread count.
  template <class U, class LayersOf, class Compute, class Store>
  void run_groups(const std::vector<U>& units, LayersOf&& layers_of,
                  Compute&& compute, Store&& store) const {
    std::vector<std::pair<std::vector<LayerKey>, std::vector<U>>> groups;
    for (const U& u : units) {
      std::vector<LayerKey> ls;
      if (budgeted()) {
        ls = layers_of(u);
        std::sort(ls.begin(), ls.end());
      }
      const auto it =
          std::find_if(groups.begin(), groups.end(),
                       [&](const auto& g) { return g.first == ls; });
      if (it == groups.end()) {
        groups.emplace_back(std::move(ls), std::vector<U>{u});
      } else {
        it->second.push_back(u);
      }
    }
    for (const auto& [group_layers, batch] : groups) {
      if (!group_layers.empty()) evict_keeping(group_layers);
      auto fresh = parallel_map(pool_, batch.size(), [&](std::size_t j) {
        return compute(batch[j]);
      });
      for (std::size_t j = 0; j < batch.size(); ++j) {
        store(batch[j], std::move(fresh[j]));
      }
    }
  }

  /// Whether the options enable canonical pass `name`. caa_yield reads
  /// the extracted nets, so requesting it pulls connectivity in.
  bool enabled(const std::string& name) const {
    if (options_.passes.empty()) return true;
    for (const std::string& p : options_.passes) {
      const std::string c = canonical_flow_pass(p);
      if (c == name || (c == "caa_yield" && name == "connectivity")) {
        return true;
      }
    }
    return false;
  }

  DfmFlowReport& rep_;
  const LayoutSnapshot& snap_;
  const DfmFlowOptions& options_;
  ThreadPool* pool_;
  const FlowDamage& damage_;
  bool inc_;
};

}  // namespace

namespace detail {

FlowCaches run_flow(DfmFlowReport& rep, const DfmFlowOptions& options,
                    ThreadPool* pool, const DfmFlowReport* prev,
                    const FlowCaches& was,
                    const std::function<const LayoutSnapshot&()>& snapshot) {
  FlowClock flow_clock("flow");
  FlowClock snap_clock("flow/snapshot");
  const LayoutSnapshot& snap = snapshot();
  if (const std::size_t budget = resolved_memory_budget(options)) {
    snap.budget().set_limit(budget);
  }
  const FlowDamage damage{
      prev != nullptr ? dynamic_cast<const IncrementalSnapshot*>(&snap)
                      : nullptr};
  PassTrace snap_pass{"snapshot", snap_clock.close(),
                      snap.layer_keys().size()};
  if (damage.inc != nullptr) {
    snap_pass.total_units = snap_pass.items;
    for (const LayerKey k : snap.layer_keys()) {
      if (damage.inc->layer_dirty(k)) ++snap_pass.dirty_units;
    }
    snap_pass.incremental = true;
  }
  rep.trace.passes.push_back(std::move(snap_pass));

  const Tech& t = options.tech;
  // An incremental run may reuse units only when there is a previous run
  // and the damage is partial. A session's options are fixed, so every
  // pass that runs now ran then too.
  const bool inc = !damage.full();
  FlowDriver flow(rep, snap, options, pool, damage, inc);
  FlowCaches caches;

  // The spatial splice grid: density_tile cores over the snapshot bbox.
  // Tiled units reuse their caches only on the grid they were made on.
  const TileGrid grid(snap.bbox(), t.density_tile);
  const bool same_grid = was.grid == grid;
  caches.grid = grid;

  // 1. DRC + DRC-Plus. Splice units: one per (DRC rule x grid tile),
  // one per density rule, and one per pattern capture window (stale iff
  // the dirty region touches the window on a capture layer). A cold run
  // is the case where every unit is stale.
  flow.pass("flow/drc_plus", [&] {
    caches.engine = was.engine != nullptr
                        ? was.engine
                        : std::make_shared<const DrcPlusEngine>(
                              DrcPlusDeck::standard(t));
    const DrcPlusEngine& engine = *caches.engine;
    const RuleDeck& deck = engine.deck().drc;
    auto drc = flow.splice_rules(same_grid ? &was.drc_rules : nullptr,
                                 deck.rules, grid, "drc/tile");
    std::size_t dirty_units = drc.recomputed;
    std::size_t total_units = drc.results.size();
    rep.drcplus.drc.violations.clear();
    for (std::size_t ri = 0, at = 0; ri < deck.rules.size(); ++ri) {
      const bool tiled = rule_tiled(deck.rules[ri]);
      const std::size_t n = tiled ? grid.size() : 1;
      for (const KeyedViolation& kv :
           merge_units(drc.results.data() + at, n, tiled)) {
        rep.drcplus.drc.violations.push_back(kv.v);
      }
      at += n;
    }
    caches.drc_rules = std::move(drc.cache);

    // Pattern windows: one unit per (set, anchor window). Sites
    // re-enumerate every run from the anchor layer's memoized labelling,
    // so windows appear, move and vanish exactly as they would cold; a
    // window is stale when a dirty rect on a capture layer overlaps it
    // with positive area, the only way its clipped geometry can change.
    const std::vector<PatternRuleSet>& sets = engine.deck().pattern_sets;
    std::vector<std::pair<std::size_t, AnchorWindow>> windows;
    std::vector<std::vector<Rect>> dirty(sets.size());
    for (std::size_t si = 0; si < sets.size(); ++si) {
      flow.evict_keeping({sets[si].anchor_layer});
      for (const Rect& box : snap.components(sets[si].anchor_layer).boxes) {
        windows.emplace_back(si, anchor_window(box, sets[si].radius));
      }
      if (inc) dirty[si] = dirty_rects(damage, sets[si].capture_layers);
    }
    // Budgeted runs clip capture layers per window straight off the
    // source (transient, uncharged) instead of hydrating full layers and
    // their R-trees; both paths feed identical canonical clips to the
    // encoder, so the matches are bit-identical. A window therefore
    // needs no layer resident, and its budget group evicts nothing.
    const bool streamed = flow.budgeted();
    auto found = flow.splice(
        &was.pattern_windows, windows,
        [&](std::size_t i) {
          const Rect& window = windows[i].second.window;
          return std::any_of(
              dirty[windows[i].first].begin(), dirty[windows[i].first].end(),
              [&](const Rect& d) { return d.overlaps(window); });
        },
        [](std::size_t) { return std::vector<LayerKey>{}; },
        [&](std::size_t i) {
          const auto& [si, site] = windows[i];
          TELEM_SPAN_ARG("drc/pattern_window", si);
          const std::vector<LayerKey>& on = sets[si].capture_layers;
          return engine.matcher(si).scan_window(
              streamed ? capture_window_streamed(snap, on, site)
                       : capture_window_at(snap, on, site));
        });
    rep.drcplus.matches.assign(sets.size(), {});
    for (std::size_t i = 0; i < windows.size(); ++i) {
      std::vector<PatternMatch>& out = rep.drcplus.matches[windows[i].first];
      out.insert(out.end(), found.results[i]->begin(),
                 found.results[i]->end());
    }
    total_units += windows.size();
    dirty_units += found.recomputed;
    caches.pattern_windows = std::move(found.cache);

    int geometric = 0;
    for (const Violation& v : rep.drcplus.drc.violations) {
      if (v.rule.find(".D.") == std::string::npos) ++geometric;
    }
    rep.scorecard.add("drc",
                      score_from_count(static_cast<std::size_t>(geometric)),
                      3.0, std::to_string(geometric) + " violations");
    rep.scorecard.add(
        "drc_plus", score_from_count(rep.drcplus.pattern_match_count()), 2.0,
        std::to_string(rep.drcplus.pattern_match_count()) + " pattern hits");
    return PassCounts{rep.drcplus.drc.violations.size() +
                          rep.drcplus.pattern_match_count(),
                      total_units, dirty_units, inc};
  });

  // 2. Recommended rules, spliced per (rule x tile) like DRC; a rule's
  // hit count sums its units' owned violations.
  flow.pass("flow/recommended", [&] {
    caches.recommended_rules =
        was.recommended_rules != nullptr
            ? was.recommended_rules
            : std::make_shared<const std::vector<RecommendedRule>>(
                  standard_recommended_rules(t));
    const std::vector<RecommendedRule>& rules = *caches.recommended_rules;
    std::vector<Rule> checked;
    checked.reserve(rules.size());
    for (const RecommendedRule& rr : rules) checked.push_back(rr.rule);
    auto found = flow.splice_rules(
        same_grid ? &was.recommended_tiles : nullptr, checked, grid,
        "rec/tile");
    std::vector<std::size_t> hits(rules.size(), 0);
    for (const auto& [key, unit] : found.cache) hits[key.first] += unit->size();
    rep.recommended = assemble_recommended(rules, hits);
    rep.scorecard.add("recommended", rep.recommended.compliance(), 1.0,
                      "rule compliance");
    const PassCounts counts{rep.recommended.counts.size(),
                            found.results.size(), found.recomputed, inc};
    caches.recommended_tiles = std::move(found.cache);
    return counts;
  });

  // 3. Litho hotspots (tile-simulated). Splice unit: one simulation
  // tile of TileGrid(m1.bbox(), litho_tile), keyed by its index. A tile
  // is stale when an M1 dirty rect overlaps its window (the core
  // expanded by the 6-sigma optical halo) with positive area, and a
  // stale tile re-renders only the pixels the edit reaches into its
  // previous print (same index, same grid). A cold run or a new grid is
  // the case where every tile is stale. A run that skips the pass (M1
  // empty) leaves no tiles, so the next run simulates cold. From here on
  // the m1 view below stays live, so every keep set through the caa
  // pass includes kMetal1.
  flow.evict_keeping({layers::kMetal1});
  const NormalizedRegion m1 = snap.layer(layers::kMetal1);
  if (options.run_litho && !m1.empty()) {
    flow.pass("flow/litho", [&] {
      HotspotSimOptions sim{pool};
      sim.model = options.model;
      sim.edge_tolerance = options.litho_edge_tolerance;
      sim.tile = options.litho_tile;
      sim.fast = options.litho_fast;
      const TileGrid tiles(m1.bbox(), options.litho_tile);
      const bool have = inc && !was.litho.empty();
      const auto* before =
          have && was.litho_grid == tiles ? &was.litho : nullptr;
      caches.litho_grid = tiles;
      std::vector<std::size_t> units(tiles.size());
      std::iota(units.begin(), units.end(), std::size_t{0});
      // Per tile, the bbox of the dirty region inside its window.
      std::vector<Rect> changed(tiles.size(), Rect::empty());
      if (before != nullptr) {
        const Coord margin = 6 * options.model.sigma;
        for (const Rect& d : dirty_rects(damage, {layers::kMetal1})) {
          for (std::size_t ti = 0; ti < tiles.size(); ++ti) {
            const Rect window = tiles.core(ti).expanded(margin);
            if (d.overlaps(window)) {
              changed[ti] = changed[ti].join(d.intersect(window));
            }
          }
        }
      }
      const DensityMap* density = litho_density(snap, layers::kMetal1, sim);
      // Resolved by the first stale tile, so a run with none skips it.
      PrefilterCalibration cal;
      std::once_flag calibrated;
      auto found = flow.splice(
          before, units,
          [&](std::size_t ti) { return !changed[ti].is_empty(); },
          // Litho reads only the M1 view the pass evicted to keep.
          [](std::size_t) { return std::vector<LayerKey>{}; },
          [&](std::size_t ti) {
            std::call_once(calibrated,
                           [&] { cal = resolve_litho_calibration(sim); });
            return simulate_litho_tile(
                m1, density, tiles, ti, sim, pool, cal.valid ? &cal : nullptr,
                before != nullptr ? (*before)[ti].second.get() : nullptr,
                changed[ti]);
          });
      for (const std::vector<Hotspot>& hs :
           assemble_hotspots(tiles, found.results, sim.edge_tolerance)) {
        rep.hotspots.insert(rep.hotspots.end(), hs.begin(), hs.end());
      }
      caches.litho = std::move(found.cache);
      rep.scorecard.add("litho", score_from_count(rep.hotspots.size()), 3.0,
                        std::to_string(rep.hotspots.size()) + " hotspots");
      return PassCounts{rep.hotspots.size(), tiles.size(), found.recomputed,
                        have};
    });
  }

  // 4. Double patterning on Metal 1: one unit per conflict unit
  // (dpt_units), keyed by its member boxes. A unit reuses its cached
  // result when the same boxes formed it last run and no M1 dirty rect
  // touches a member box; a cold run is the case where every unit is
  // stale. Units lie dpt_space apart, so the masks are the union of the
  // units', the stitches concatenate in unit order, and the score is
  // finished from the sum of the units' integer partials, bit-identical
  // to scoring the whole layer. An edit that leaves M1 clean carries
  // the whole result over.
  flow.pass("flow/dpt", [&] {
    flow.evict_keeping({layers::kMetal1});
    std::size_t dirty_units = 0;
    if (!flow.stale({layers::kMetal1})) {
      rep.dpt = prev->dpt;
      rep.dpt_score = prev->dpt_score;
      caches.dpt_units = was.dpt_units;
    } else {
      const LayerComponents& comps = snap.components(layers::kMetal1);
      const std::vector<std::vector<std::uint32_t>> units =
          dpt_units(comps, t.dpt_space);
      const auto units_keyed =
          flow.member_keys(comps, units, {layers::kMetal1}, 0);
      auto found = flow.splice(
          &was.dpt_units, units_keyed.keys,
          [&](std::size_t u) { return units_keyed.touched[u] != 0; },
          // A unit reads only the M1 labelling the partition just built
          // in the working set the pass evicted to, so its budget group
          // evicts nothing and `comps` stays resident.
          [](std::size_t) { return std::vector<LayerKey>{}; },
          [&](std::size_t u) {
            TELEM_SPAN_ARG("dpt/unit", u);
            Decomposition d = decompose_dpt_unit(comps, units[u], t);
            const DptPartial partial = dpt_partial(d, t);
            return DptUnitResult{std::move(d), partial};
          });
      std::vector<const Decomposition*> parts;
      parts.reserve(found.results.size());
      DptPartial sum;
      for (const DptUnitResult* r : found.results) {
        parts.push_back(&r->decomposition);
        sum += r->partial;
      }
      rep.dpt = assemble_dpt(parts);
      rep.dpt_score = finish(sum, t);
      dirty_units = found.recomputed;
      caches.dpt_units = std::move(found.cache);
    }
    rep.scorecard.add("dpt", rep.dpt.compliant ? rep.dpt_score.composite : 0.0,
                      2.0,
                      rep.dpt.compliant ? "compliant" : "odd cycles remain");
    return PassCounts{static_cast<std::size_t>(rep.dpt.nodes),
                      caches.dpt_units.size(), dirty_units, inc};
  });

  // 5. Redundant vias: one unit per interaction cluster of single vias
  // (via_clusters), keyed by its member boxes. A cluster reuses its
  // cached result when the same boxes formed it last run and no stack
  // layer's dirty region comes within via_reach of a member; a cold run
  // is the case where every cluster is stale. The clusters' results sum
  // to the whole layer's, and the derived yield scalars are pure
  // functions of the counts, so both come out bit-identical either way.
  const std::vector<LayerKey> stack = {layers::kMetal1, layers::kVia1,
                                       layers::kMetal2};
  flow.pass("flow/via_doubling", [&] {
    flow.evict_keeping(stack);
    const LayerComponents& vias = snap.components(layers::kVia1);
    const std::vector<std::vector<std::uint32_t>> clusters =
        via_clusters(vias, t);
    const auto clusters_keyed =
        flow.member_keys(vias, clusters, stack, via_reach(t));
    auto found = flow.splice(
        &was.via_clusters, clusters_keyed.keys,
        [&](std::size_t c) { return clusters_keyed.touched[c] != 0; },
        [&](std::size_t) { return stack; },
        [&](std::size_t c) {
          TELEM_SPAN_ARG("vias/cluster", c);
          return double_via_cluster(snap, clusters[c], t);
        });
    rep.vias = ViaDoublingResult{};
    for (const ViaDoublingResult* r : found.results) rep.vias += *r;
    const auto singles = static_cast<std::int64_t>(rep.vias.singles_before);
    const auto doubled = static_cast<std::int64_t>(rep.vias.inserted);
    rep.via_yield_before = via_yield(singles, 0, options.via_fail_rate);
    rep.via_yield_after =
        via_yield(singles - doubled, doubled, options.via_fail_rate);
    // Score the layout as drawn: redundancy that exists, not redundancy
    // the pass could insert. Realizing the proposed insertions (the fix
    // loop's via_double move) is what raises this metric.
    const auto redundant = static_cast<std::int64_t>(rep.vias.redundant_before);
    const auto total = static_cast<std::int64_t>(rep.vias.total);
    rep.scorecard.add("via_redundancy",
                      total > 0 ? static_cast<double>(redundant) /
                                      static_cast<double>(total)
                                : 1.0,
                      1.0, std::to_string(redundant) + "/" +
                               std::to_string(total) + " redundant, " +
                               std::to_string(doubled) + " insertable");
    caches.via_clusters = std::move(found.cache);
    return PassCounts{static_cast<std::size_t>(singles), clusters.size(),
                      found.recomputed, inc};
  });

  // 6. Connectivity: extracted nets and floating (misaligned) vias, one
  // unit per net. After an edit the nets with a piece touching the
  // damage on any stack layer dissolve and are re-extracted together
  // with the edited components there (splice_nets); the rest carry over,
  // and so do the verdicts of cuts whose bbox the damage misses. A cold
  // run is the case where every net dissolves.
  std::optional<NetSplice> spliced;
  flow.pass("flow/connectivity", [&] {
    flow.evict_keeping(stack);
    const std::vector<StackLayer> net_stack = standard_stack();
    std::size_t dissolved = 0;
    if (inc) {
      rep.nets = prev->nets;
      rep.floating_cuts = prev->floating_cuts;
      spliced = splice_nets(*damage.inc, net_stack, rep.nets, was.net_keys);
      caches.net_keys = std::move(spliced->keys);
      splice_floating_cuts(*damage.inc, net_stack, rep.floating_cuts);
      dissolved = spliced->dissolved.size();
    } else {
      rep.nets = extract_nets(snap, net_stack, &caches.net_keys);
      rep.floating_cuts = find_floating_cuts(snap, net_stack);
      dissolved = rep.nets.size();
    }
    rep.scorecard.add("connectivity",
                      score_from_count(rep.floating_cuts.size(), 2.0), 1.0,
                      std::to_string(rep.nets.size()) + " nets, " +
                          std::to_string(rep.floating_cuts.size()) +
                          " floating vias");
    return PassCounts{rep.nets.size(), rep.nets.size(), dissolved, inc};
  });

  // 7. Critical area / defect-limited yield. Units: the M1 shorts term
  // and the M2 net-aware shorts term one per grid tile each, and M2
  // opens as one unit. M1 uses the conservative layer-local shorts
  // estimate; shorts on M2 are net-aware (stubs strapped through vias
  // are not shorts), so its tiles read the per-net M2 pieces and go
  // stale with the nets the connectivity splice changed. Both tile terms
  // sum integer areas in tile order and integrate them as the
  // whole-layer kernel's integers are, so they are bit-identical to it.
  flow.pass("flow/caa_yield", [&] {
    const std::vector<LayerKey> m1_m2 = {layers::kMetal1, layers::kMetal2};
    flow.evict_keeping(m1_m2);
    const DefectModel& defects = options.defects;
    const bool tiles_cached = inc && same_grid;
    // Per term, the defect sizes and the tiles the edit touches. M1
    // shorts: (tile x defect size) integer areas of the >= 2-net coverage
    // each tile owns, nets from the global labelling; a tile is touched
    // when the damage grown by the largest defect's half-width
    // (short_reach, exact) reaches it, directly or through a component
    // the edit changed. M2 net-aware shorts: the same kernel over one
    // region per net (its M2 piece) at 16 sizes; a tile is touched when
    // it lies within short_reach of the old or new M2 bbox of a net the
    // connectivity splice dissolved or created (every other net is the
    // same point set with the same identity), and every tile is when the
    // nets did not splice.
    const std::vector<Coord> sizes[2] = {defect_size_grid(defects, 24),
                                         defect_size_grid(defects, 16)};
    std::vector<char> touched[2] = {std::vector<char>(grid.size(), 0),
                                    std::vector<char>(grid.size(), 1)};
    if (tiles_cached && damage.dirty(layers::kMetal1)) {
      mark_damaged_tiles(grid, damage.inc->damage_bbox({layers::kMetal1}, 0),
                         short_reach(sizes[0]),
                         &snap.components(layers::kMetal1), 0, touched[0]);
    }
    if (tiles_cached && spliced.has_value()) {
      touched[1].assign(grid.size(), 0);
      const Coord reach = short_reach(sizes[1]);
      std::vector<std::size_t> hit;
      const auto mark = [&](const Net& net) {
        if (const Region* piece = net.on(layers::kMetal2)) {
          grid.touching(bounding_box(piece->raw()).expanded(reach), hit);
        }
      };
      for (const Net& net : spliced->dissolved) mark(net);
      for (const std::size_t n : spliced->created) mark(rep.nets.nets[n]);
      for (const std::size_t ti : hit) touched[1][ti] = 1;
    }
    // Both terms' tiles splice as (term, tile) units in one batch. The
    // per-net M2 pieces are gathered once, by the first stale M2 tile.
    std::vector<std::pair<std::size_t, std::size_t>> units;
    for (std::size_t term = 0; term < 2; ++term) {
      for (std::size_t ti = 0; ti < grid.size(); ++ti) {
        units.emplace_back(term, ti);
      }
    }
    LayerComponents m2_nets;
    std::once_flag m2_gathered;
    auto found = flow.splice(
        tiles_cached ? &was.caa_tiles : nullptr, units,
        [&](std::size_t i) {
          return touched[units[i].first][units[i].second] != 0;
        },
        [&](std::size_t) { return m1_m2; },
        [&](std::size_t i) {
          const auto [term, ti] = units[i];
          if (term == 0) {
            TELEM_SPAN_ARG("caa/m1_tile", ti);
            return short_critical_areas_tile(snap.components(layers::kMetal1),
                                             sizes[0], grid, ti);
          }
          std::call_once(m2_gathered, [&] {
            for (Net& net : rep.nets.nets) {
              for (auto& [key, piece] : net.pieces) {
                if (key != layers::kMetal2) continue;
                // Normalized in the report itself, so later runs copy
                // canonical pieces; the copies are read from the pool.
                m2_nets.boxes.push_back(piece.bbox());
                m2_nets.regions.push_back(piece);
              }
            }
            m2_nets.index.build(m2_nets.boxes);
          });
          TELEM_SPAN_ARG("caa/m2_tile", ti);
          return short_critical_areas_tile(m2_nets, sizes[1], grid, ti);
        });
    std::size_t dirty_units = found.recomputed;
    // Each term's fault rate: its tiles' integer areas per size, summed
    // in tile order and scaled back to 1x.
    double shorts[2] = {0, 0};
    for (std::size_t term = 0; term < 2; ++term) {
      std::vector<Area> ca(sizes[term].size(), 0);
      for (std::size_t ti = 0; ti < grid.size(); ++ti) {
        const std::vector<Area>& tile = *found.results[term * grid.size() + ti];
        for (std::size_t i = 0; i < ca.size(); ++i) ca[i] += tile[i];
      }
      for (Area& a : ca) a /= 4;
      shorts[term] = defects.lambda(integrate_critical_area(ca, defects));
    }
    caches.caa_tiles = std::move(found.cache);
    caches.caa_m2_opens = was.caa_m2_opens;
    if (flow.stale({layers::kMetal2})) {
      TELEM_SPAN("caa/m2_opens");
      caches.caa_m2_opens = layer_lambda(snap.layer(layers::kMetal2), defects,
                                         /*shorts=*/false);
      ++dirty_units;
    }
    rep.lambda_shorts = shorts[0] + shorts[1];
    rep.lambda_opens = caches.caa_m2_opens;
    rep.defect_yield = poisson_yield(rep.lambda_shorts + rep.lambda_opens);
    rep.scorecard.add("defect_yield", rep.defect_yield, 2.0,
                      "Poisson over CAA lambda");
    return PassCounts{rep.nets.size(), 2 * grid.size() + 1, dirty_units, inc};
  });

  TELEM_GAUGE_SET("snapshot.current_bytes",
                  static_cast<std::int64_t>(snap.budget().current()));
  TELEM_GAUGE_SET("snapshot.peak_bytes",
                  static_cast<std::int64_t>(snap.budget().peak()));
  TELEM_GAUGE_SET("snapshot.limit_bytes",
                  static_cast<std::int64_t>(snap.budget().limit()));
  TELEM_GAUGE_SET("process.peak_rss_kb", peak_rss_kb());
  rep.trace.cache = snap.cache_stats();
  rep.trace.total_ms = flow_clock.close();
  return caches;
}

}  // namespace detail

std::string canonical_flow_pass(const std::string& name) {
  static const std::map<std::string, std::string> kNames = {
      {"drc_plus", "drc_plus"},       {"drc", "drc_plus"},
      {"drcplus", "drc_plus"},        {"recommended", "recommended"},
      {"rec", "recommended"},         {"litho", "litho"},
      {"hotspots", "litho"},          {"dpt", "dpt"},
      {"via_doubling", "via_doubling"}, {"vias", "via_doubling"},
      {"connectivity", "connectivity"}, {"nets", "connectivity"},
      {"caa_yield", "caa_yield"},     {"caa", "caa_yield"},
      {"yield", "caa_yield"},
  };
  const auto it = kNames.find(name);
  return it == kNames.end() ? std::string{} : it->second;
}

std::size_t resolved_memory_budget(const DfmFlowOptions& options) {
  if (options.memory_budget != 0) return options.memory_budget;
  const char* env = std::getenv("DFMKIT_SNAPSHOT_BUDGET");
  if (env == nullptr) return 0;
  std::size_t bytes = 0;
  if (!parse_byte_size(env, &bytes)) {
    throw std::runtime_error(
        "DFMKIT_SNAPSHOT_BUDGET: expected a byte size like 64M, got '" +
        std::string(env) + "'");
  }
  return bytes;
}

namespace {

// A one-shot cold run over the snapshot `build` makes on the run's pool.
DfmFlowReport run_cold(
    const DfmFlowOptions& options,
    const std::function<const LayoutSnapshot&(ThreadPool*)>& build) {
  const PassPool pool(options);
  DfmFlowReport rep;
  detail::run_flow(rep, options, pool, nullptr, {},
                   [&]() -> const LayoutSnapshot& { return build(pool); });
  return rep;
}

}  // namespace

DfmFlowReport run_dfm_flow(const Library& lib, std::uint32_t top,
                           const DfmFlowOptions& options) {
  if (resolved_memory_budget(options) != 0) {
    // Out-of-core path over the in-memory library. The source only
    // aliases `lib` (the caller keeps it alive for the duration of the
    // call), so the shared_ptr carries no ownership.
    return run_dfm_flow(
        std::make_shared<LibrarySource>(
            std::shared_ptr<const Library>(std::shared_ptr<void>{}, &lib),
            top),
        options);
  }
  // Flatten every flow layer (one task per layer), normalized by
  // construction.
  std::optional<LayoutSnapshot> snap;
  return run_cold(options, [&](ThreadPool* pool) -> const LayoutSnapshot& {
    return snap.emplace(lib, top, pool);
  });
}

DfmFlowReport run_dfm_flow(std::shared_ptr<const SnapshotSource> source,
                           const DfmFlowOptions& options) {
  // The lazy snapshot only scans per-layer bboxes up front; geometry
  // hydrates on first touch inside the passes, so the "snapshot" row
  // records just the index scan.
  std::optional<LayoutSnapshot> snap;
  return run_cold(options, [&](ThreadPool*) -> const LayoutSnapshot& {
    return snap.emplace(std::move(source),
                        LayoutSnapshot::standard_flow_layers());
  });
}

DfmFlowReport run_dfm_flow(const LayoutSnapshot& snap,
                           const DfmFlowOptions& options) {
  return run_cold(options,
                  [&](ThreadPool*) -> const LayoutSnapshot& { return snap; });
}

}  // namespace dfm

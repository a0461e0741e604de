#include "core/dfm_flow.h"

#include "core/incremental.h"
#include "core/parallel.h"
#include "core/telemetry.h"
#include "litho/fft.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dfm {
namespace {

// Peak resident set size of this process in KiB, via getrusage (0 where
// that is unavailable). macOS reports ru_maxrss in bytes, Linux in KiB.
[[maybe_unused]] std::int64_t peak_rss_kb() {
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

/// True when the edit's dirty region on any of `on` has positive-area
/// overlap with `window` — i.e. the clipped geometry the window reads
/// may have changed. Requires damage.inc.
bool window_touched(const FlowDamage& damage, const std::vector<LayerKey>& on,
                    const Rect& window) {
  for (const LayerKey k : on) {
    for (const Rect& d : damage.inc->dirty_region(k).rects()) {
      if (d.overlaps(window)) return true;
    }
  }
  return false;
}

using RuleUnits = std::vector<std::vector<std::vector<KeyedViolation>>>;

/// A rule's violations from its unit slots: tile lists re-merge in the
/// component-bbox order check_* emits (stable, so a component's
/// violations keep their relative order).
std::vector<KeyedViolation> merge_units(
    const std::vector<std::vector<KeyedViolation>>& units, bool tiled) {
  std::vector<KeyedViolation> out;
  for (const std::vector<KeyedViolation>& u : units) {
    out.insert(out.end(), u.begin(), u.end());
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

/// True when `r` shares a point (closed) with one of `rects`.
bool touches_any(const Rect& r, const std::vector<Rect>& rects) {
  for (const Rect& d : rects) {
    if (r.touches(d)) return true;
  }
  return false;
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
  /// the PassCounts. Returns whether the pass ran.
  template <class Body>
  bool pass(const char* span_name, Body&& body) {
    const std::string name = span_name + std::strlen("flow/");
    if (!enabled(name)) return false;
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
    return true;
  }

  /// A unit reading layers `on` must recompute when it has no result to
  /// reuse (`cached` false) or the edit dirtied one of those layers.
  bool stale(bool cached, const std::vector<LayerKey>& on) const {
    return !cached || damage_.dirty_any(on);
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

  /// Computes `compute(u)` for every unit in `units` on the pool and
  /// hands each result to `store(u, result)`. Under a budget the units
  /// run in groups sharing one sorted layer set (layers_of(u), in order
  /// of first appearance), evicting down to the budget before each
  /// group; unbudgeted runs compute them as one group. Results land by
  /// unit, so they are identical at any budget and thread count.
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
      evict_keeping(group_layers);
      auto fresh = parallel_map(pool_, batch.size(), [&](std::size_t j) {
        return compute(batch[j]);
      });
      for (std::size_t j = 0; j < batch.size(); ++j) {
        store(batch[j], std::move(fresh[j]));
      }
    }
  }

  /// (rule x tile) splice of `rules` into `slots` ([rule][unit]: one unit
  /// per grid tile for a rule_tiled rule, one for a density rule). Every
  /// unit of a rule recomputes when there is nothing to reuse (cold run,
  /// or the grid changed: `reuse` false) or when the edit dirtied a
  /// density rule's layer. A tiled rule the edit dirtied recomputes only
  /// the tiles its damage reaches (mark_damaged_tiles at rule_reach, plus
  /// every tile under a cached violation within reach of the damage).
  /// Each unit runs under a `span` span with its tile index. Returns the
  /// units recomputed.
  std::size_t splice_rule_tiles(RuleUnits& slots,
                                const std::vector<Rule>& rules,
                                const TileGrid& grid, bool reuse,
                                const char* span) const {
    reuse = reuse && inc_ && slots.size() == rules.size();
    if (!reuse) slots.assign(rules.size(), {});
    std::vector<std::pair<std::size_t, std::size_t>> units;
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      const Rule& rule = rules[ri];
      const std::size_t n = rule_tiled(rule) ? grid.size() : 1;
      const std::vector<LayerKey> on = rule_layers(rule);
      std::vector<char> stale(n, 1);
      if (!reuse || slots[ri].size() != n ||
          (!rule_tiled(rule) && damage_.dirty_any(on))) {
        slots[ri].assign(n, {});
      } else if (!damage_.dirty_any(on)) {
        continue;
      } else {
        const Rect dmg = damage_.inc->damage_bbox(on, 0);
        const Coord reach = rule_reach(rule);
        stale.assign(n, 0);
        mark_damaged_tiles(grid, dmg, reach,
                           &snap_.components(rule_component_layer(rule)),
                           reach, stale);
        std::vector<std::size_t> hit;
        for (const std::vector<KeyedViolation>& unit : slots[ri]) {
          for (const KeyedViolation& kv : unit) {
            const Rect ext = kv.extent.expanded(reach);
            if (ext.touches(dmg)) grid.touching(ext, hit);
          }
        }
        for (const std::size_t t : hit) stale[t] = 1;
      }
      for (std::size_t t = 0; t < n; ++t) {
        if (stale[t] != 0) units.emplace_back(ri, t);
      }
    }
    run_groups(
        units,
        [&](const std::pair<std::size_t, std::size_t>& u) {
          return rule_layers(rules[u.first]);
        },
        [&](const std::pair<std::size_t, std::size_t>& u) {
          TELEM_SPAN_ARG(span, u.second);
          const Rule& rule = rules[u.first];
          return rule_tiled(rule) ? run_rule_tile(snap_, rule, grid, u.second)
                                  : DrcEngine::run_rule_keyed(snap_, rule);
        },
        [&](const std::pair<std::size_t, std::size_t>& u, auto&& found) {
          slots[u.first][u.second] = std::move(found);
        });
    (void)span;
    return units.size();
  }

 private:
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

void run_flow(DfmFlowReport& rep, const DfmFlowOptions& options,
              ThreadPool* pool, FlowCaches& caches, const DfmFlowReport* prev,
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
  // An incremental run may splice cached units only when the damage is
  // partial AND the caches describe the immediately preceding snapshot.
  const bool inc = !damage.full() && caches.valid && prev != nullptr;
  FlowDriver flow(rep, snap, options, pool, damage, inc);

  // The spatial splice grid: density_tile cores over the snapshot bbox.
  // Tiled units reuse their caches only on the grid they were made on.
  const TileGrid grid(snap.bbox(), t.density_tile);
  const bool same_grid = caches.grid == grid;
  caches.grid = grid;

  // 1. DRC + DRC-Plus. Splice units: one per (DRC rule x grid tile),
  // one per density rule, and one per pattern capture window (stale iff
  // the dirty region touches the window on a capture layer). A cold run
  // is the case where every unit is stale.
  flow.pass("flow/drc_plus", [&] {
    if (!caches.engine) {
      caches.engine = std::make_shared<DrcPlusEngine>(DrcPlusDeck::standard(t));
    }
    const DrcPlusEngine& engine = *caches.engine;
    const RuleDeck& deck = engine.deck().drc;
    std::size_t dirty_units =
        flow.splice_rule_tiles(caches.drc_rules, deck.rules, grid, same_grid,
                               "drc/tile");
    std::size_t total_units = 0;
    rep.drcplus.drc.violations.clear();
    for (std::size_t ri = 0; ri < deck.rules.size(); ++ri) {
      total_units += caches.drc_rules[ri].size();
      for (const KeyedViolation& kv :
           merge_units(caches.drc_rules[ri], rule_tiled(deck.rules[ri]))) {
        rep.drcplus.drc.violations.push_back(kv.v);
      }
    }

    // Pattern sets: anchor sites re-enumerate from the edited anchor
    // layer (so windows appear/move/vanish exactly as they would cold)
    // and are kept while it is clean; a site reuses its cached match list
    // iff the same window was scanned last run and no capture layer
    // changed inside it, and a set none of whose capture layers changed
    // reuses its whole flat match list.
    const std::vector<PatternRuleSet>& sets = engine.deck().pattern_sets;
    const bool sets_cached = inc && caches.pattern_sites.size() == sets.size();
    caches.pattern_windows.resize(sets.size());
    caches.pattern_sites.resize(sets.size());
    caches.pattern_flat.resize(sets.size());
    rep.drcplus.matches.clear();
    for (std::size_t si = 0; si < sets.size(); ++si) {
      const PatternRuleSet& set = sets[si];
      // One "drc/pattern_set" span per set, in set order, carrying the
      // number of windows the set rescanned.
      const std::uint64_t t0 = telemetry::now_ns();
      const bool sites_clean = sets_cached && !damage.dirty(set.anchor_layer);
      if (sites_clean && !damage.dirty_any(set.capture_layers)) {
        rep.drcplus.matches.push_back(caches.pattern_flat[si]);
        total_units += caches.pattern_sites[si].size();
        telemetry::record_span("drc/pattern_set", t0, telemetry::now_ns(), 0);
        continue;
      }
      if (!sites_clean) {
        // Streamed capture below reads capture layers per window straight
        // from the source, so only the anchor layer needs to be resident
        // for site enumeration.
        flow.evict_keeping({set.anchor_layer});
        caches.pattern_sites[si] = anchor_windows(
            snap.components(set.anchor_layer).regions, set.radius);
      }
      const std::vector<AnchorWindow>& sites = caches.pattern_sites[si];
      const auto& cache = caches.pattern_windows[si];
      std::vector<std::vector<PatternMatch>> found(sites.size());
      std::vector<std::size_t> stale;
      for (std::size_t w = 0; w < sites.size(); ++w) {
        const auto it = inc ? cache.find(sites[w]) : cache.end();
        if (it != cache.end() &&
            !window_touched(damage, set.capture_layers, sites[w].window)) {
          found[w] = it->second;
        } else {
          stale.push_back(w);
        }
      }
      // Budgeted runs clip capture layers per window straight off the
      // source (transient, uncharged) instead of hydrating full layers
      // and their R-trees; both paths feed identical canonical clips to
      // the encoder, so the matches are bit-identical.
      const bool streamed = flow.budgeted();
      const std::vector<CapturedPattern> captured =
          parallel_map(pool, stale.size(), [&](std::size_t i) {
            const AnchorWindow& site = sites[stale[i]];
            return streamed
                       ? capture_window_streamed(snap, set.capture_layers, site)
                       : capture_window_at(snap, set.capture_layers, site);
          });
      std::vector<std::vector<PatternMatch>> scanned =
          engine.matcher(si).scan_per_window(captured, pool);
      for (std::size_t i = 0; i < stale.size(); ++i) {
        found[stale[i]] = std::move(scanned[i]);
      }
      std::map<AnchorWindow, std::vector<PatternMatch>> next;
      std::vector<PatternMatch> flat;
      for (std::size_t w = 0; w < sites.size(); ++w) {
        flat.insert(flat.end(), found[w].begin(), found[w].end());
        next.emplace(sites[w], std::move(found[w]));
      }
      caches.pattern_windows[si] = std::move(next);
      caches.pattern_flat[si] = flat;
      rep.drcplus.matches.push_back(std::move(flat));
      total_units += sites.size();
      dirty_units += stale.size();
      telemetry::record_span("drc/pattern_set", t0, telemetry::now_ns(),
                             stale.size());
    }

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
    if (caches.recommended_rules.empty()) {
      caches.recommended_rules = standard_recommended_rules(t);
    }
    const std::vector<RecommendedRule>& rules = caches.recommended_rules;
    std::vector<Rule> checked;
    checked.reserve(rules.size());
    for (const RecommendedRule& rr : rules) checked.push_back(rr.rule);
    const std::size_t dirty_units = flow.splice_rule_tiles(
        caches.recommended_tiles, checked, grid, same_grid, "rec/tile");
    std::vector<std::size_t> hits(rules.size(), 0);
    std::size_t total_units = 0;
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      total_units += caches.recommended_tiles[ri].size();
      for (const std::vector<KeyedViolation>& unit :
           caches.recommended_tiles[ri]) {
        hits[ri] += unit.size();
      }
    }
    rep.recommended = assemble_recommended(rules, hits);
    rep.scorecard.add("recommended", rep.recommended.compliance(), 1.0,
                      "rule compliance");
    return PassCounts{rep.recommended.counts.size(), total_units, dirty_units,
                      inc};
  });

  // 3. Litho hotspots (tile-simulated). Splice unit: one simulation
  // tile; a tile is stale when the dirty region touches its core
  // expanded by the optical halo, and a stale tile re-renders only the
  // pixels the edit reaches into its cached print. A cold run is the
  // case where every tile is stale. The cache is valid only while every
  // run refreshes it, so a skipped pass invalidates it. From here on the
  // m1 view below stays live, so every keep set through the caa pass
  // includes kMetal1.
  flow.evict_keeping({layers::kMetal1});
  const NormalizedRegion m1 = snap.layer(layers::kMetal1);
  caches.litho_valid =
      options.run_litho && !m1.empty() && flow.pass("flow/litho", [&] {
        HotspotSimOptions sim{pool};
        sim.model = options.model;
        sim.edge_tolerance = options.litho_edge_tolerance;
        sim.tile = options.litho_tile;
        sim.fast = options.litho_fast;
        if (caches.kernels == nullptr) {
          caches.kernels = std::make_shared<KernelSpectrumCache>();
        }
        sim.kernels = caches.kernels;
        const bool have = inc && caches.litho_valid;
        const Region none;
        caches.litho = resimulate_hotspots(
            snap, layers::kMetal1, m1.bbox(), sim,
            have ? std::move(caches.litho) : HotspotTileSim{},
            have ? damage.inc->dirty_region(layers::kMetal1) : none);
        rep.hotspots = caches.litho.merged();
        rep.scorecard.add("litho", score_from_count(rep.hotspots.size()), 3.0,
                          std::to_string(rep.hotspots.size()) + " hotspots");
        return PassCounts{rep.hotspots.size(), caches.litho.tiles.size(),
                          caches.litho.recomputed, have};
      });

  // 4. Double patterning on Metal 1. Whole-pass splice: reads m1 only.
  flow.pass("flow/dpt", [&] {
    flow.evict_keeping({layers::kMetal1});
    const bool stale = flow.stale(inc, {layers::kMetal1});
    rep.dpt = stale ? decompose_dpt(snap, layers::kMetal1, t) : prev->dpt;
    rep.dpt_score = stale ? score_decomposition(rep.dpt, t) : prev->dpt_score;
    rep.scorecard.add("dpt", rep.dpt.compliant ? rep.dpt_score.composite : 0.0,
                      2.0,
                      rep.dpt.compliant ? "compliant" : "odd cycles remain");
    return PassCounts{static_cast<std::size_t>(rep.dpt.nodes), 1,
                      stale ? 1u : 0u, inc};
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
  caches.vias_valid = flow.pass("flow/via_doubling", [&] {
    flow.evict_keeping(stack);
    std::size_t total_units = caches.via_clusters.size();
    std::size_t dirty_units = 0;
    if (inc && caches.vias_valid && !damage.dirty_any(stack)) {
      rep.vias = prev->vias;
    } else {
      const LayerComponents& vias = snap.components(layers::kVia1);
      const std::vector<std::vector<std::uint32_t>> clusters =
          via_clusters(vias, t);
      const bool reuse = inc && caches.vias_valid;
      const Coord reach = via_reach(t);
      const std::vector<Rect> dirty =
          reuse ? dirty_rects(damage, stack) : std::vector<Rect>{};
      std::map<std::vector<Rect>, ViaDoublingResult> next;
      std::vector<std::vector<Rect>> keys(clusters.size());
      std::vector<std::size_t> stale;
      for (std::size_t c = 0; c < clusters.size(); ++c) {
        bool near = false;
        for (const std::uint32_t v : clusters[c]) {
          keys[c].push_back(vias.boxes[v]);
          near = near || touches_any(vias.boxes[v].expanded(reach), dirty);
        }
        const auto it = reuse && !near ? caches.via_clusters.find(keys[c])
                                       : caches.via_clusters.end();
        if (it != caches.via_clusters.end()) {
          next.emplace(keys[c], std::move(it->second));
        } else {
          stale.push_back(c);
        }
      }
      flow.run_groups(
          stale, [&](std::size_t) { return stack; },
          [&](std::size_t c) {
            TELEM_SPAN_ARG("vias/cluster", c);
            return double_via_cluster(snap, clusters[c], t);
          },
          [&](std::size_t c, ViaDoublingResult&& r) {
            next.emplace(std::move(keys[c]), std::move(r));
          });
      caches.via_clusters = std::move(next);
      rep.vias = ViaDoublingResult{};
      for (const auto& [members, r] : caches.via_clusters) rep.vias += r;
      total_units = clusters.size();
      dirty_units = stale.size();
    }
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
    return PassCounts{static_cast<std::size_t>(singles), total_units,
                      dirty_units, inc};
  });

  // 6. Connectivity: extracted nets and floating (misaligned) vias, one
  // unit per net. After an edit the nets with a piece touching the
  // damage on any stack layer dissolve and are re-extracted together
  // with the edited components there (splice_nets); the rest carry over,
  // and so do the verdicts of cuts whose bbox the damage misses. A cold
  // run is the case where every net dissolves.
  std::optional<NetSplice> spliced;
  caches.nets_valid = flow.pass("flow/connectivity", [&] {
    flow.evict_keeping(stack);
    const std::vector<StackLayer> net_stack = standard_stack();
    std::size_t dissolved = 0;
    if (inc && caches.nets_valid) {
      rep.nets = prev->nets;
      rep.floating_cuts = prev->floating_cuts;
      spliced =
          splice_nets(*damage.inc, net_stack, rep.nets, caches.net_keys);
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
  caches.caa_valid = flow.pass("flow/caa_yield", [&] {
    flow.evict_keeping({layers::kMetal1, layers::kMetal2});
    const DefectModel& defects = options.defects;
    const bool cached = inc && caches.caa_valid;
    std::size_t dirty_units = 0;
    // Runs the stale tiles of one term on the pool into `slots` (one per
    // tile; all of them when `reuse` is false) and returns its integer
    // areas per size, summed in tile order and scaled back to 1x.
    const auto run_tiles = [&](std::vector<std::vector<Area>>& slots,
                               bool reuse, std::vector<char>& stale,
                               const std::vector<Coord>& sizes,
                               const char* span,
                               const std::function<const LayerComponents&()>&
                                   nets) {
      if (!reuse) {
        slots.assign(grid.size(), {});
        stale.assign(grid.size(), 1);
      }
      std::vector<std::size_t> tiles;
      for (std::size_t ti = 0; ti < stale.size(); ++ti) {
        if (stale[ti] != 0) tiles.push_back(ti);
      }
      if (!tiles.empty()) {
        const LayerComponents& comps = nets();
        std::vector<std::vector<Area>> fresh =
            parallel_map(pool, tiles.size(), [&](std::size_t i) {
              TELEM_SPAN_ARG(span, tiles[i]);
              return short_critical_areas_tile(comps, sizes, grid, tiles[i]);
            });
        for (std::size_t i = 0; i < tiles.size(); ++i) {
          slots[tiles[i]] = std::move(fresh[i]);
        }
      }
      (void)span;
      dirty_units += tiles.size();
      std::vector<Area> ca(sizes.size(), 0);
      for (const std::vector<Area>& tile : slots) {
        for (std::size_t i = 0; i < sizes.size(); ++i) ca[i] += tile[i];
      }
      for (Area& a : ca) a /= 4;
      return defects.lambda(integrate_critical_area(ca, defects));
    };

    // M1 shorts: (tile x defect size) integer areas of the >= 2-net
    // coverage each tile owns, nets from the global labelling. A stale
    // tile is one the damage grown by the largest defect's half-width
    // (short_reach, exact) reaches, directly or through a component the
    // edit changed.
    const std::vector<Coord> m1_sizes = defect_size_grid(defects, 24);
    const bool m1_reuse =
        cached && same_grid && caches.caa_m1_tiles.size() == grid.size();
    std::vector<char> m1_stale(grid.size(), 0);
    if (m1_reuse && damage.dirty(layers::kMetal1)) {
      mark_damaged_tiles(grid, damage.inc->damage_bbox({layers::kMetal1}, 0),
                         short_reach(m1_sizes),
                         &snap.components(layers::kMetal1), 0, m1_stale);
    }
    double m1_shorts = 0;
    {
      TELEM_SPAN("caa/m1_shorts");
      m1_shorts = run_tiles(caches.caa_m1_tiles, m1_reuse, m1_stale, m1_sizes,
                            "caa/m1_tile", [&]() -> const LayerComponents& {
                              return snap.components(layers::kMetal1);
                            });
    }
    // M2 net-aware shorts: the same kernel over one region per net (its
    // M2 piece) at 16 sizes. A tile is stale when it lies within
    // short_reach of the old or new M2 bbox of a net the connectivity
    // splice dissolved or created; every other net is the same point
    // set with the same identity.
    const std::vector<Coord> m2_sizes = defect_size_grid(defects, 16);
    const bool m2_reuse = cached && same_grid && spliced.has_value() &&
                          caches.caa_m2_tiles.size() == grid.size();
    std::vector<char> m2_stale(grid.size(), 0);
    if (m2_reuse) {
      const Coord reach = short_reach(m2_sizes);
      std::vector<std::size_t> hit;
      const auto mark = [&](const Net& net) {
        if (const Region* piece = net.on(layers::kMetal2)) {
          grid.touching(bounding_box(piece->raw()).expanded(reach), hit);
        }
      };
      for (const Net& net : spliced->dissolved) mark(net);
      for (const std::size_t n : spliced->created) mark(rep.nets.nets[n]);
      for (const std::size_t ti : hit) m2_stale[ti] = 1;
    }
    LayerComponents m2_nets;
    double m2_shorts = 0;
    {
      TELEM_SPAN("caa/m2_net_shorts");
      m2_shorts = run_tiles(
          caches.caa_m2_tiles, m2_reuse, m2_stale, m2_sizes, "caa/m2_tile",
          [&]() -> const LayerComponents& {
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
            return m2_nets;
          });
    }
    if (flow.stale(cached, {layers::kMetal2})) {
      TELEM_SPAN("caa/m2_opens");
      caches.caa_m2_opens = layer_lambda(snap.layer(layers::kMetal2), defects,
                                         /*shorts=*/false);
      ++dirty_units;
    }
    rep.lambda_shorts = m1_shorts + m2_shorts;
    rep.lambda_opens = caches.caa_m2_opens;
    rep.defect_yield = poisson_yield(rep.lambda_shorts + rep.lambda_opens);
    rep.scorecard.add("defect_yield", rep.defect_yield, 2.0,
                      "Poisson over CAA lambda");
    return PassCounts{rep.nets.size(), 2 * grid.size() + 1, dirty_units, inc};
  });

  caches.valid = true;
  TELEM_GAUGE_SET("snapshot.current_bytes",
                  static_cast<std::int64_t>(snap.budget().current()));
  TELEM_GAUGE_SET("snapshot.peak_bytes",
                  static_cast<std::int64_t>(snap.budget().peak()));
  TELEM_GAUGE_SET("snapshot.limit_bytes",
                  static_cast<std::int64_t>(snap.budget().limit()));
  TELEM_GAUGE_SET("process.peak_rss_kb", peak_rss_kb());
  rep.trace.cache = snap.cache_stats();
  rep.trace.total_ms = flow_clock.close();
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
  if (const char* env = std::getenv("DFMKIT_SNAPSHOT_BUDGET")) {
    std::size_t bytes = 0;
    if (parse_byte_size(env, &bytes)) return bytes;
  }
  return 0;
}

namespace {

// A one-shot cold run over the snapshot `build` makes on the run's pool.
DfmFlowReport run_cold(
    const DfmFlowOptions& options,
    const std::function<const LayoutSnapshot&(ThreadPool*)>& build) {
  const PassPool pool(options);
  DfmFlowReport rep;
  FlowCaches caches;
  detail::run_flow(rep, options, pool, caches, nullptr,
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

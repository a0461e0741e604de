#include "core/dfm_flow.h"

#include "core/incremental.h"
#include "core/parallel.h"
#include "core/shard_backend.h"
#include "core/telemetry.h"
#include "litho/fft.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
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

  /// Splice units: `slots` holds one result per unit, kept from the
  /// previous run. A unit is stale when there is no result to reuse
  /// (cold run, or the unit count changed) or the edit dirtied one of
  /// layers_of(i). `offer(stale)` may settle stale units itself (filling
  /// their slots) and returns the ones it left. Those compute with
  /// `compute(i)` on the pool, in groups sharing one sorted layer set
  /// (in order of first appearance), evicting down to the budget before
  /// each group; unbudgeted runs compute them as one group. Every result
  /// lands at its unit's index, so the slots are identical at any budget
  /// and thread count. Returns the number of stale units.
  template <class T, class LayersOf, class Offer, class Compute>
  std::size_t splice_units(std::vector<T>& slots, std::size_t n,
                           LayersOf&& layers_of, Offer&& offer,
                           Compute&& compute) const {
    const bool cached = inc_ && slots.size() == n;
    if (!cached) slots.assign(n, T{});
    std::vector<std::size_t> stale_units;
    for (std::size_t i = 0; i < n; ++i) {
      if (stale(cached, layers_of(i))) stale_units.push_back(i);
    }
    const std::size_t dirty = stale_units.size();
    std::vector<std::pair<std::vector<LayerKey>, std::vector<std::size_t>>>
        groups;
    for (const std::size_t i : offer(std::move(stale_units))) {
      std::vector<LayerKey> ls;
      if (budgeted()) {
        ls = layers_of(i);
        std::sort(ls.begin(), ls.end());
      }
      const auto it =
          std::find_if(groups.begin(), groups.end(),
                       [&](const auto& g) { return g.first == ls; });
      if (it == groups.end()) {
        groups.emplace_back(std::move(ls), std::vector<std::size_t>{i});
      } else {
        it->second.push_back(i);
      }
    }
    for (const auto& [group_layers, batch] : groups) {
      evict_keeping(group_layers);
      std::vector<T> fresh =
          parallel_map(pool_, batch.size(),
                       [&](std::size_t j) { return compute(batch[j]); });
      for (std::size_t j = 0; j < batch.size(); ++j) {
        slots[batch[j]] = std::move(fresh[j]);
      }
    }
    return dirty;
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

  // 1. DRC + DRC-Plus. Splice units: one per DRC rule (stale iff any of
  // rule_layers(rule) is dirty) and one per pattern capture window
  // (stale iff the dirty region touches the window on a capture layer).
  flow.pass("flow/drc_plus", [&] {
    if (!caches.engine) {
      caches.engine = std::make_shared<DrcPlusEngine>(DrcPlusDeck::standard(t));
    }
    const DrcPlusEngine& engine = *caches.engine;
    const RuleDeck& deck = engine.deck().drc;
    // Distributed path: offer the stale min-width rules to the shard
    // backend — their morphology is window-local, so shards compute it
    // over haloed windows and the stitched union equals the whole-layer
    // bad region. Folding it into markers here, against the full layer,
    // reproduces check_min_width byte for byte. Declined rules (and
    // every other rule kind) run locally.
    const auto offer_width_rules = [&](std::vector<std::size_t> stale) {
      std::vector<std::size_t> offer;  // deck indices of stale width rules
      std::vector<Rule> offer_rules;
      for (const std::size_t ri : stale) {
        if (options.shards != nullptr &&
            deck.rules[ri].kind == RuleKind::kMinWidth) {
          offer.push_back(ri);
          offer_rules.push_back(deck.rules[ri]);
        }
      }
      if (offer.empty()) return stale;
      TELEM_SPAN("shard/drc");
      std::vector<Region> bad2x(offer.size());
      std::vector<char> handled(offer.size(), 0);
      if (!options.shards->shard_drc(offer_rules, &bad2x, &handled)) {
        return stale;
      }
      std::vector<char> done(deck.rules.size(), 0);
      for (std::size_t i = 0; i < offer.size(); ++i) {
        if (handled[i] == 0) continue;
        const Rule& rule = offer_rules[i];
        caches.drc_rules[offer[i]] =
            min_width_markers(bad2x[i], snap.layer(rule.layer).region(),
                              rule.value, rule.name);
        done[offer[i]] = 1;
      }
      std::erase_if(stale, [&](std::size_t ri) { return done[ri] != 0; });
      return stale;
    };
    std::size_t dirty_units = flow.splice_units(
        caches.drc_rules, deck.rules.size(),
        [&](std::size_t ri) { return rule_layers(deck.rules[ri]); },
        offer_width_rules,
        [&](std::size_t ri) {
          return DrcEngine::run_rule(snap, deck.rules[ri]);
        });
    std::size_t total_units = deck.rules.size();
    rep.drcplus.drc.violations.clear();
    for (const std::vector<Violation>& vs : caches.drc_rules) {
      rep.drcplus.drc.violations.insert(rep.drcplus.drc.violations.end(),
                                        vs.begin(), vs.end());
    }

    // Pattern sets: anchor sites re-enumerate from the edited layer every
    // run (so windows appear/move/vanish exactly as they would cold);
    // a site reuses its cached match list iff the same window was scanned
    // last run and no capture layer changed inside it.
    const std::vector<PatternRuleSet>& sets = engine.deck().pattern_sets;
    caches.pattern_windows.resize(sets.size());
    rep.drcplus.matches.clear();
    for (std::size_t si = 0; si < sets.size(); ++si) {
      const PatternRuleSet& set = sets[si];
      // Streamed capture below reads capture layers per window straight
      // from the source, so only the anchor layer needs to be resident
      // for site enumeration.
      flow.evict_keeping({set.anchor_layer});
      const std::vector<AnchorWindow> sites =
          anchor_windows(snap.layer(set.anchor_layer).region(), set.radius);
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
      // Distributed path: stale sites are offered to the shard backend
      // first; a handled site's matches come back exactly as the local
      // capture+scan would produce them (clip-of-clip equals direct
      // clip inside the halo). Declined sites — e.g. a window escaping
      // its owning shard's halo — capture locally below.
      std::vector<std::size_t> local = stale;
      if (options.shards != nullptr && !stale.empty()) {
        TELEM_SPAN_ARG("shard/match", si);
        std::vector<AnchorWindow> offer;
        offer.reserve(stale.size());
        for (const std::size_t w : stale) offer.push_back(sites[w]);
        std::vector<std::vector<PatternMatch>> out(offer.size());
        std::vector<char> handled(offer.size(), 0);
        if (options.shards->shard_match(si, offer, &out, &handled)) {
          local.clear();
          for (std::size_t i = 0; i < stale.size(); ++i) {
            if (handled[i] != 0) {
              found[stale[i]] = std::move(out[i]);
            } else {
              local.push_back(stale[i]);
            }
          }
        }
      }
      // Budgeted runs clip capture layers per window straight off the
      // source (transient, uncharged) instead of hydrating full layers
      // and their R-trees; both paths feed identical canonical clips to
      // the encoder, so the matches are bit-identical.
      const bool streamed = flow.budgeted();
      const std::vector<CapturedPattern> captured =
          parallel_map(pool, local.size(), [&](std::size_t i) {
            const AnchorWindow& site = sites[local[i]];
            return streamed
                       ? capture_window_streamed(snap, set.capture_layers, site)
                       : capture_window_at(snap, set.capture_layers, site);
          });
      std::vector<std::vector<PatternMatch>> scanned =
          engine.matcher(si).scan_per_window(captured, pool);
      for (std::size_t i = 0; i < local.size(); ++i) {
        found[local[i]] = std::move(scanned[i]);
      }
      std::map<AnchorWindow, std::vector<PatternMatch>> next;
      std::vector<PatternMatch> flat;
      for (std::size_t w = 0; w < sites.size(); ++w) {
        flat.insert(flat.end(), found[w].begin(), found[w].end());
        next.emplace(sites[w], std::move(found[w]));
      }
      caches.pattern_windows[si] = std::move(next);
      rep.drcplus.matches.push_back(std::move(flat));
      total_units += sites.size();
      dirty_units += stale.size();
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

  // 2. Recommended rules, spliced per rule like DRC.
  flow.pass("flow/recommended", [&] {
    if (caches.recommended_rules.empty()) {
      caches.recommended_rules = standard_recommended_rules(t);
    }
    const std::vector<RecommendedRule>& rules = caches.recommended_rules;
    const std::size_t dirty_units = flow.splice_units(
        caches.recommended_hits, rules.size(),
        [&](std::size_t ri) { return rule_layers(rules[ri].rule); },
        [](std::vector<std::size_t> stale) { return stale; },
        [&](std::size_t ri) {
          return check_recommended_rule(snap, rules[ri]);
        });
    rep.recommended = assemble_recommended(rules, caches.recommended_hits);
    rep.scorecard.add("recommended", rep.recommended.compliance(), 1.0,
                      "rule compliance");
    return PassCounts{rep.recommended.counts.size(), rules.size(),
                      dirty_units, inc};
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
            have ? damage.inc->dirty_region(layers::kMetal1) : none,
            options.shards);
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

  // 5. Redundant vias (reads the via layer plus both metals). The
  // derived yield scalars are pure functions of the counts, so they
  // recompute bit-identically either way.
  const std::vector<LayerKey> stack = {layers::kMetal1, layers::kVia1,
                                       layers::kMetal2};
  flow.pass("flow/via_doubling", [&] {
    flow.evict_keeping(stack);
    const bool stale = flow.stale(inc, stack);
    rep.vias = stale ? double_vias(snap, t) : prev->vias;
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
    return PassCounts{static_cast<std::size_t>(singles), 1, stale ? 1u : 0u,
                      inc};
  });

  // 6. Connectivity: extracted nets and floating (misaligned) vias.
  // Whole-pass splice over the full stack.
  flow.pass("flow/connectivity", [&] {
    flow.evict_keeping(stack);
    const bool stale = flow.stale(inc, stack);
    rep.nets = stale ? extract_nets(snap, standard_stack()) : prev->nets;
    rep.floating_cuts = stale ? find_floating_cuts(snap, standard_stack())
                              : prev->floating_cuts;
    rep.scorecard.add("connectivity",
                      score_from_count(rep.floating_cuts.size(), 2.0), 1.0,
                      std::to_string(rep.nets.size()) + " nets, " +
                          std::to_string(rep.floating_cuts.size()) +
                          " floating vias");
    return PassCounts{rep.nets.size(), 1, stale ? 1u : 0u, inc};
  });

  // 7. Critical area / defect-limited yield: three units, each spliced
  // on its own input layers. M1 uses the conservative layer-local shorts
  // estimate; shorts on M2 are net-aware (stubs strapped through vias
  // are not shorts), so that unit reads every layer the nets span. Each
  // unit fans its defect sizes out on the pool.
  caches.caa_valid = flow.pass("flow/caa_yield", [&] {
    flow.evict_keeping({layers::kMetal1, layers::kMetal2});
    const DefectModel& defects = options.defects;
    const bool cached = inc && caches.caa_valid;
    std::size_t dirty_units = 0;
    if (flow.stale(cached, {layers::kMetal1})) {
      TELEM_SPAN("caa/m1_shorts");
      caches.caa_m1_shorts = defects.lambda(average_short_critical_area(
          ShortNets::of_layer(m1), defects, 24, pool));
      ++dirty_units;
    }
    if (flow.stale(cached, stack)) {
      TELEM_SPAN("caa/m2_net_shorts");
      std::vector<Region> pieces;
      std::vector<int> net_of;
      for (std::size_t ni = 0; ni < rep.nets.nets.size(); ++ni) {
        if (const Region* piece = rep.nets.nets[ni].on(layers::kMetal2)) {
          pieces.push_back(*piece);
          net_of.push_back(static_cast<int>(ni));
        }
      }
      caches.caa_m2_net_shorts = defects.lambda(average_short_critical_area(
          ShortNets::of_pieces(pieces, net_of), defects, 16, pool));
      ++dirty_units;
    }
    if (flow.stale(cached, {layers::kMetal2})) {
      TELEM_SPAN("caa/m2_opens");
      caches.caa_m2_opens = layer_lambda(snap.layer(layers::kMetal2), defects,
                                         /*shorts=*/false);
      ++dirty_units;
    }
    rep.lambda_shorts = caches.caa_m1_shorts + caches.caa_m2_net_shorts;
    rep.lambda_opens = caches.caa_m2_opens;
    rep.defect_yield = poisson_yield(rep.lambda_shorts + rep.lambda_opens);
    rep.scorecard.add("defect_yield", rep.defect_yield, 2.0,
                      "Poisson over CAA lambda");
    return PassCounts{rep.nets.size(), 3, dirty_units, inc};
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

#include "core/dfm_flow.h"

#include "core/incremental.h"
#include "core/parallel.h"
#include "core/report.h"
#include "core/shard_backend.h"
#include "core/telemetry.h"
#include "litho/fft.h"
#include "litho/prefilter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dfm {
namespace {

using Clock = std::chrono::steady_clock;

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

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Scope-free pass timer: start(name) then finish(...) appends one
// PassTrace, attributing the snapshot cache activity in between to the
// pass. Builds happen at most once per derived product, so the recorded
// hit/miss split is deterministic at any thread count. Each
// start/finish pair also opens a telemetry span "flow/<name>", so the
// per-item child spans the passes record nest under it in the trace.
class PassTimer {
 public:
  PassTimer(FlowTrace& trace, const LayoutSnapshot& snap)
      : trace_(trace), snap_(snap) {}

  /// `name` must be a string literal (it outlives the flow trace and is
  /// exported by pointer from the telemetry ring).
  void start(const char* name) {
    name_ = name;
    t0_ = Clock::now();
    stats0_ = snap_.cache_stats();
    span_ = telemetry::enabled()
                ? std::make_unique<telemetry::Span>(
                      telemetry::intern(std::string("flow/") + name))
                : nullptr;
  }

  void finish(std::size_t items, std::size_t total_units,
              std::size_t dirty_units, bool incremental) {
    span_.reset();  // close "flow/<name>" before the trace row is built
    const SnapshotCacheStats d = snap_.cache_stats() - stats0_;
    PassTrace p;
    p.name = name_;
    p.ms = ms_since(t0_);
    p.items = items;
    p.cache_hits = d.hits();
    p.cache_misses = d.builds();
    p.total_units = total_units;
    p.dirty_units = dirty_units;
    p.incremental = incremental;
    trace_.passes.push_back(std::move(p));
    TELEM_COUNTER_ADD("flow.units_total", total_units);
    TELEM_COUNTER_ADD("flow.units_dirty", dirty_units);
    TELEM_COUNTER_ADD("flow.units_reused", total_units - dirty_units);
  }

 private:
  FlowTrace& trace_;
  const LayoutSnapshot& snap_;
  const char* name_ = "";
  Clock::time_point t0_;
  SnapshotCacheStats stats0_;
  std::unique_ptr<telemetry::Span> span_;
};

/// Which of the seven flow passes the options enable. caa_yield reads
/// the extracted netlist, so requesting it pulls connectivity in.
struct EnabledPasses {
  bool drc_plus = true;
  bool recommended = true;
  bool litho = true;
  bool dpt = true;
  bool vias = true;
  bool connectivity = true;
  bool caa = true;
};

EnabledPasses enabled_passes(const DfmFlowOptions& options) {
  if (options.passes.empty()) return EnabledPasses{};
  EnabledPasses e{};
  e.drc_plus = e.recommended = e.litho = e.dpt = e.vias = e.connectivity =
      e.caa = false;
  for (const std::string& p : options.passes) {
    const std::string c = canonical_flow_pass(p);
    if (c == "drc_plus") e.drc_plus = true;
    else if (c == "recommended") e.recommended = true;
    else if (c == "litho") e.litho = true;
    else if (c == "dpt") e.dpt = true;
    else if (c == "via_doubling") e.vias = true;
    else if (c == "connectivity") e.connectivity = true;
    else if (c == "caa_yield") e.caa = e.connectivity = true;
  }
  return e;
}

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

// JSON string escaping for the small set that can appear in rule names
// and scorecard details.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

namespace detail {

void run_flow_passes(DfmFlowReport& rep, const LayoutSnapshot& snap,
                     const DfmFlowOptions& options, ThreadPool* pool,
                     FlowCaches& caches, const FlowDamage& damage,
                     const DfmFlowReport* prev) {
  const Tech& t = options.tech;
  const EnabledPasses enabled = enabled_passes(options);
  PassTimer pass(rep.trace, snap);

  // Out-of-core scheduling: with a byte budget on the snapshot, evict
  // hydrated state down to the budget at every pass (and rule-group)
  // boundary, keeping only the next working set's geometry. Eviction and
  // re-hydration are deterministic and never change what a pass
  // computes, so the report is bit-identical at any budget. Boundaries
  // are quiescent (single-threaded driver code), which the eviction API
  // requires.
  const bool budgeted = snap.budget().limit() != 0;
  const auto evict_keeping = [&](std::vector<LayerKey> keep) {
    // Headroom: release down to half the limit so the next working set
    // hydrates into slack instead of starting at the ceiling and
    // overshooting mid-pass (eviction cannot run inside a pass).
    if (budgeted) snap.evict_to_budget(keep, snap.budget().limit() / 2);
  };

  // An incremental run may splice cached units only when the damage is
  // partial AND the caches describe the immediately preceding snapshot.
  const bool inc = !damage.full() && caches.valid && prev != nullptr;

  if (!caches.engine) {
    caches.engine = std::make_shared<DrcPlusEngine>(DrcPlusDeck::standard(t));
  }
  const DrcPlusEngine& engine = *caches.engine;

  // 1. DRC + DRC-Plus. Splice units: one per DRC rule (stale iff any of
  // rule_layers(rule) is dirty) and one per pattern capture window
  // (stale iff the dirty region touches the window on a capture layer).
  if (enabled.drc_plus) {
    pass.start("drc_plus");
    const RuleDeck& deck = engine.deck().drc;
    std::size_t total_units = deck.rules.size();
    std::size_t dirty_units = 0;

    // Dimensional rules, spliced per rule in deck order.
    const bool have_rules = inc && caches.drc_rules.size() == deck.rules.size();
    std::vector<std::size_t> stale_rules;
    for (std::size_t ri = 0; ri < deck.rules.size(); ++ri) {
      if (!have_rules || damage.dirty_any(rule_layers(deck.rules[ri]))) {
        stale_rules.push_back(ri);
      }
    }
    if (!have_rules) caches.drc_rules.assign(deck.rules.size(), {});
    dirty_units += stale_rules.size();
    // Distributed path: offer the stale min-width rules to the shard
    // backend — their morphology is window-local, so shards compute it
    // over haloed windows and the stitched union equals the whole-layer
    // bad region. Folding it into markers here, against the full layer,
    // reproduces check_min_width byte for byte. Declined rules (and
    // every other rule kind) run locally below.
    if (options.shards != nullptr && !stale_rules.empty()) {
      std::vector<std::size_t> offer;  // deck indices of stale width rules
      for (const std::size_t ri : stale_rules) {
        if (deck.rules[ri].kind == RuleKind::kMinWidth) offer.push_back(ri);
      }
      if (!offer.empty()) {
        TELEM_SPAN("shard/drc");
        std::vector<Rule> batch_rules;
        batch_rules.reserve(offer.size());
        for (const std::size_t ri : offer) batch_rules.push_back(deck.rules[ri]);
        std::vector<Region> bad2x(offer.size());
        std::vector<char> handled(offer.size(), 0);
        if (options.shards->shard_drc(batch_rules, &bad2x, &handled)) {
          std::vector<char> done(deck.rules.size(), 0);
          for (std::size_t i = 0; i < offer.size(); ++i) {
            if (handled[i] == 0) continue;
            const Rule& rule = deck.rules[offer[i]];
            caches.drc_rules[offer[i]] =
                min_width_markers(bad2x[i], snap.layer(rule.layer).region(),
                                  rule.value, rule.name);
            done[offer[i]] = 1;
          }
          std::erase_if(stale_rules,
                        [&](std::size_t ri) { return done[ri] != 0; });
        }
      }
    }
    const auto run_rule_batch = [&](const std::vector<std::size_t>& batch) {
      std::vector<std::vector<Violation>> fresh = parallel_map(
          pool, batch.size(), [&](std::size_t i) {
            return DrcEngine::run_rule(snap, deck.rules[batch[i]]);
          });
      for (std::size_t i = 0; i < batch.size(); ++i) {
        caches.drc_rules[batch[i]] = std::move(fresh[i]);
      }
    };
    if (!budgeted) {
      run_rule_batch(stale_rules);
    } else {
      // Group the stale rules by their layer working set (deck order of
      // first appearance); hydrate one group at a time, evicting down to
      // the budget between groups. Each rule's result lands at its deck
      // index, so the assembled violation list is identical to the
      // single-batch path.
      std::vector<std::pair<std::vector<LayerKey>, std::vector<std::size_t>>>
          groups;
      for (const std::size_t ri : stale_rules) {
        std::vector<LayerKey> ls = rule_layers(deck.rules[ri]);
        std::sort(ls.begin(), ls.end());
        const auto it =
            std::find_if(groups.begin(), groups.end(),
                         [&](const auto& g) { return g.first == ls; });
        if (it == groups.end()) {
          groups.emplace_back(std::move(ls), std::vector<std::size_t>{ri});
        } else {
          it->second.push_back(ri);
        }
      }
      for (const auto& [group_layers, batch] : groups) {
        evict_keeping(group_layers);
        run_rule_batch(batch);
      }
    }
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
    if (caches.pattern_windows.size() != sets.size()) {
      caches.pattern_windows.assign(sets.size(), {});
    }
    rep.drcplus.matches.clear();
    rep.drcplus.matches.reserve(sets.size());
    for (std::size_t si = 0; si < sets.size(); ++si) {
      const PatternRuleSet& set = sets[si];
      if (budgeted) {
        // Streamed capture below reads capture layers per window straight
        // from the source, so only the anchor layer needs to be resident
        // for site enumeration.
        evict_keeping({set.anchor_layer});
      }
      const std::vector<AnchorWindow> sites =
          anchor_windows(snap.layer(set.anchor_layer).region(), set.radius);
      const auto& cache = caches.pattern_windows[si];
      std::vector<const std::vector<PatternMatch>*> reused(sites.size(),
                                                           nullptr);
      std::vector<std::size_t> stale_sites;
      for (std::size_t w = 0; w < sites.size(); ++w) {
        const std::vector<PatternMatch>* hit = nullptr;
        if (inc) {
          const auto it = cache.find(sites[w]);
          if (it != cache.end() &&
              !window_touched(damage, set.capture_layers, sites[w].window)) {
            hit = &it->second;
          }
        }
        if (hit) {
          reused[w] = hit;
        } else {
          stale_sites.push_back(w);
        }
      }
      // Distributed path: stale sites are offered to the shard backend
      // first; a handled site's matches come back exactly as the local
      // capture+scan would produce them (clip-of-clip equals direct
      // clip inside the halo). Declined sites — e.g. a window escaping
      // its owning shard's halo — capture locally below.
      std::vector<const std::vector<PatternMatch>*> from_shard(sites.size(),
                                                               nullptr);
      std::vector<std::vector<PatternMatch>> shard_out;
      std::vector<std::size_t> local_sites = stale_sites;
      if (options.shards != nullptr && !stale_sites.empty()) {
        TELEM_SPAN_ARG("shard/match", si);
        std::vector<AnchorWindow> offer;
        offer.reserve(stale_sites.size());
        for (const std::size_t w : stale_sites) offer.push_back(sites[w]);
        shard_out.assign(offer.size(), {});
        std::vector<char> handled(offer.size(), 0);
        if (options.shards->shard_match(si, offer, &shard_out, &handled)) {
          local_sites.clear();
          for (std::size_t i = 0; i < stale_sites.size(); ++i) {
            if (handled[i] != 0) {
              from_shard[stale_sites[i]] = &shard_out[i];
            } else {
              local_sites.push_back(stale_sites[i]);
            }
          }
        }
      }
      // Budgeted runs clip capture layers per window straight off the
      // source (transient, uncharged) instead of hydrating full layers
      // and their R-trees; both paths feed identical canonical clips to
      // the encoder, so the matches are bit-identical.
      const std::vector<CapturedPattern> captured = parallel_map(
          pool, local_sites.size(), [&](std::size_t i) {
            return budgeted
                       ? capture_window_streamed(snap, set.capture_layers,
                                                 sites[local_sites[i]])
                       : capture_window_at(snap, set.capture_layers,
                                           sites[local_sites[i]]);
          });
      const std::vector<std::vector<PatternMatch>> scanned =
          engine.matcher(si).scan_per_window(captured, pool);
      std::map<AnchorWindow, std::vector<PatternMatch>> next;
      std::vector<PatternMatch> flat;
      std::size_t j = 0;
      for (std::size_t w = 0; w < sites.size(); ++w) {
        const std::vector<PatternMatch>& m =
            reused[w] != nullptr
                ? *reused[w]
                : from_shard[w] != nullptr ? *from_shard[w] : scanned[j++];
        flat.insert(flat.end(), m.begin(), m.end());
        next.emplace(sites[w], m);
      }
      caches.pattern_windows[si] = std::move(next);
      rep.drcplus.matches.push_back(std::move(flat));
      total_units += sites.size();
      dirty_units += stale_sites.size();
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
    pass.finish(rep.drcplus.drc.violations.size() +
                    rep.drcplus.pattern_match_count(),
                total_units, dirty_units, inc);
  }

  // 2. Recommended rules, spliced per rule like DRC.
  if (enabled.recommended) {
    pass.start("recommended");
    if (caches.recommended_rules.empty()) {
      caches.recommended_rules = standard_recommended_rules(t);
    }
    const std::vector<RecommendedRule>& rules = caches.recommended_rules;
    const bool have = inc && caches.recommended_hits.size() == rules.size();
    std::vector<std::size_t> stale;
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      if (!have || damage.dirty_any(rule_layers(rules[ri].rule))) {
        stale.push_back(ri);
      }
    }
    if (!have) caches.recommended_hits.assign(rules.size(), 0);
    const auto run_rec_batch = [&](const std::vector<std::size_t>& batch) {
      const std::vector<std::size_t> fresh = parallel_map(
          pool, batch.size(), [&](std::size_t i) {
            return check_recommended_rule(snap, rules[batch[i]]);
          });
      for (std::size_t i = 0; i < batch.size(); ++i) {
        caches.recommended_hits[batch[i]] = fresh[i];
      }
    };
    if (!budgeted) {
      run_rec_batch(stale);
    } else {
      // Same layer-set grouping as the DRC rules above.
      std::vector<std::pair<std::vector<LayerKey>, std::vector<std::size_t>>>
          groups;
      for (const std::size_t ri : stale) {
        std::vector<LayerKey> ls = rule_layers(rules[ri].rule);
        std::sort(ls.begin(), ls.end());
        const auto it =
            std::find_if(groups.begin(), groups.end(),
                         [&](const auto& g) { return g.first == ls; });
        if (it == groups.end()) {
          groups.emplace_back(std::move(ls), std::vector<std::size_t>{ri});
        } else {
          it->second.push_back(ri);
        }
      }
      for (const auto& [group_layers, batch] : groups) {
        evict_keeping(group_layers);
        run_rec_batch(batch);
      }
    }
    rep.recommended = assemble_recommended(rules, caches.recommended_hits);
    rep.scorecard.add("recommended", rep.recommended.compliance(), 1.0,
                      "rule compliance");
    pass.finish(rep.recommended.counts.size(), rules.size(),
                stale.size(), inc);
  }

  // 3. Litho hotspots (tile-simulated). Splice unit: one simulation
  // tile; a tile is stale when the dirty region touches its core
  // expanded by the optical halo. The cache is valid only while every
  // run refreshes it, so a skipped pass invalidates it.
  // From here on the m1 view below stays live, so every keep set through
  // the caa pass includes kMetal1.
  evict_keeping({layers::kMetal1});
  const NormalizedRegion m1 = snap.layer(layers::kMetal1);
  if (enabled.litho && options.run_litho && !m1.empty()) {
    pass.start("litho");
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
    // Distributed path: the coordinator mirrors the tiled run's
    // bookkeeping exactly — same make_tiles grid, same 6-sigma stale
    // selection, same fallback-to-full conditions — and outsources only
    // the per-tile simulation. A declined batch falls through to the
    // in-process engines, byte-identically either way (the snapshot
    // density gate is a pure shortcut, see simulate_litho_tile).
    bool sharded = false;
    if (options.shards != nullptr) {
      TELEM_SPAN("shard/litho");
      HotspotTileSim next;
      next.extent = m1.bbox();
      next.tile = sim.tile;
      next.tiles = make_tiles(next.extent, sim.tile);
      std::vector<std::size_t> stale;
      const bool carry = have && caches.litho.extent == next.extent &&
                         caches.litho.tile == next.tile &&
                         caches.litho.per_tile.size() ==
                             caches.litho.tiles.size();
      if (carry) {
        next.per_tile = caches.litho.per_tile;
        const Region dirty = damage.inc->dirty_region(layers::kMetal1);
        const Coord margin = 6 * sim.model.sigma;
        for (std::size_t ti = 0; ti < next.tiles.size(); ++ti) {
          const Rect window = next.tiles[ti].expanded(margin);
          for (const Rect& d : dirty.rects()) {
            if (d.overlaps(window)) {
              stale.push_back(ti);
              break;
            }
          }
        }
      } else {
        next.per_tile.resize(next.tiles.size());
        stale.resize(next.tiles.size());
        std::iota(stale.begin(), stale.end(), std::size_t{0});
      }
      std::vector<Rect> cores;
      cores.reserve(stale.size());
      for (const std::size_t ti : stale) cores.push_back(next.tiles[ti]);
      std::vector<std::vector<Hotspot>> per_core(cores.size());
      std::vector<char> skipflags(cores.size(), 0);
      std::vector<char> handled(cores.size(), 0);
      if (options.shards->shard_litho(cores, &per_core, &skipflags,
                                      &handled)) {
        // Declined cores (halo escapes every shard window) run through
        // the same exported tile simulator the workers use.
        std::vector<std::size_t> local;
        for (std::size_t i = 0; i < cores.size(); ++i) {
          if (handled[i] == 0) local.push_back(i);
        }
        if (!local.empty()) {
          const PrefilterCalibration cal = resolve_litho_calibration(sim);
          const PrefilterCalibration* calp = cal.valid ? &cal : nullptr;
          const std::vector<std::vector<Hotspot>> redone = parallel_map(
              pool, local.size(), [&](std::size_t i) {
                bool skip = false;
                auto hs = simulate_litho_tile(m1, cores[local[i]], sim, pool,
                                              calp, skip);
                skipflags[local[i]] = skip ? 1 : 0;
                return hs;
              });
          for (std::size_t i = 0; i < local.size(); ++i) {
            per_core[local[i]] = std::move(redone[i]);
          }
        }
        for (std::size_t i = 0; i < stale.size(); ++i) {
          next.per_tile[stale[i]] = std::move(per_core[i]);
        }
        next.recomputed = stale.size();
        next.skipped = static_cast<std::size_t>(
            std::count(skipflags.begin(), skipflags.end(), 1));
        caches.litho = std::move(next);
        sharded = true;
      }
    }
    if (!sharded) {
      caches.litho =
          have ? resimulate_hotspots(snap, layers::kMetal1, m1.bbox(), sim,
                                     caches.litho,
                                     damage.inc->dirty_region(layers::kMetal1))
               : simulate_hotspots_tiled(snap, layers::kMetal1, m1.bbox(), sim);
    }
    caches.litho_valid = true;
    rep.hotspots = caches.litho.merged();
    rep.scorecard.add("litho", score_from_count(rep.hotspots.size()), 3.0,
                      std::to_string(rep.hotspots.size()) + " hotspots");
    pass.finish(rep.hotspots.size(), caches.litho.tiles.size(),
                caches.litho.recomputed, have);
  } else {
    caches.litho_valid = false;
  }

  // 4. Double patterning on Metal 1. Whole-pass splice: reads m1 only.
  if (enabled.dpt) {
    evict_keeping({layers::kMetal1});
    pass.start("dpt");
    const bool reuse = inc && !damage.dirty(layers::kMetal1);
    if (reuse) {
      rep.dpt = prev->dpt;
      rep.dpt_score = prev->dpt_score;
    } else {
      rep.dpt = decompose_dpt(snap, layers::kMetal1, t);
      rep.dpt_score = score_decomposition(rep.dpt, t);
    }
    rep.scorecard.add("dpt", rep.dpt.compliant ? rep.dpt_score.composite : 0.0,
                      2.0,
                      rep.dpt.compliant ? "compliant" : "odd cycles remain");
    pass.finish(static_cast<std::size_t>(rep.dpt.nodes), 1,
                reuse ? 0 : 1, inc);
  }

  // 5. Redundant vias (reads the via layer plus both metals). The
  // derived yield scalars are pure functions of the counts, so they
  // recompute bit-identically either way.
  if (enabled.vias) {
    evict_keeping({layers::kMetal1, layers::kVia1, layers::kMetal2});
    pass.start("via_doubling");
    const bool reuse =
        inc && !damage.dirty_any(
                   {layers::kVia1, layers::kMetal1, layers::kMetal2});
    rep.vias = reuse ? prev->vias : double_vias(snap, t);
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
    pass.finish(static_cast<std::size_t>(singles), 1,
                reuse ? 0 : 1, inc);
  }

  // 6. Connectivity: extracted nets and floating (misaligned) vias.
  // Whole-pass splice over the full stack.
  if (enabled.connectivity) {
    evict_keeping({layers::kMetal1, layers::kVia1, layers::kMetal2});
    pass.start("connectivity");
    const bool reuse =
        inc && !damage.dirty_any(
                   {layers::kMetal1, layers::kVia1, layers::kMetal2});
    if (reuse) {
      rep.nets = prev->nets;
      rep.floating_cuts = prev->floating_cuts;
    } else {
      rep.nets = extract_nets(snap, standard_stack());
      rep.floating_cuts = find_floating_cuts(snap, standard_stack());
    }
    rep.scorecard.add("connectivity",
                      score_from_count(rep.floating_cuts.size(), 2.0), 1.0,
                      std::to_string(rep.nets.size()) + " nets, " +
                          std::to_string(rep.floating_cuts.size()) +
                          " floating vias");
    pass.finish(rep.nets.size(), 1, reuse ? 0 : 1, inc);
  }

  // 7. Critical area / defect-limited yield: three units, each spliced
  // on its own input layers. M1 uses the conservative layer-local shorts
  // estimate; shorts on M2 are net-aware (stubs strapped through vias
  // are not shorts), so that unit reads every layer the nets span.
  if (enabled.caa) {
    evict_keeping({layers::kMetal1, layers::kMetal2});
    pass.start("caa_yield");
    const DefectModel& defects = options.defects;
    const bool have = inc && caches.caa_valid;
    std::size_t dirty_units = 0;
    if (!have || damage.dirty(layers::kMetal1)) {
      TELEM_SPAN("caa/m1_shorts");
      caches.caa_m1_shorts = defects.lambda(average_short_critical_area(
          ShortNets::of_layer(m1), defects, 24, pool));
      ++dirty_units;
    }
    if (!have || damage.dirty_any(
                     {layers::kMetal1, layers::kVia1, layers::kMetal2})) {
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
    if (!have || damage.dirty(layers::kMetal2)) {
      TELEM_SPAN("caa/m2_opens");
      caches.caa_m2_opens = layer_lambda(snap.layer(layers::kMetal2), defects,
                                         /*shorts=*/false);
      ++dirty_units;
    }
    caches.caa_valid = true;
    rep.lambda_shorts = caches.caa_m1_shorts + caches.caa_m2_net_shorts;
    rep.lambda_opens = caches.caa_m2_opens;
    rep.defect_yield = poisson_yield(rep.lambda_shorts + rep.lambda_opens);
    rep.scorecard.add("defect_yield", rep.defect_yield, 2.0,
                      "Poisson over CAA lambda");
    pass.finish(rep.nets.size(), 3, dirty_units, inc);
  } else {
    caches.caa_valid = false;
  }

  caches.valid = true;
  TELEM_GAUGE_SET("snapshot.current_bytes",
                  static_cast<std::int64_t>(snap.budget().current()));
  TELEM_GAUGE_SET("snapshot.peak_bytes",
                  static_cast<std::int64_t>(snap.budget().peak()));
  TELEM_GAUGE_SET("snapshot.limit_bytes",
                  static_cast<std::int64_t>(snap.budget().limit()));
  TELEM_GAUGE_SET("process.peak_rss_kb", peak_rss_kb());
  rep.trace.cache = snap.cache_stats();
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

bool reports_equivalent(const DfmFlowReport& a, const DfmFlowReport& b) {
  return a.drcplus == b.drcplus && a.nets == b.nets &&
         a.floating_cuts == b.floating_cuts && a.recommended == b.recommended &&
         a.hotspots == b.hotspots && a.dpt == b.dpt &&
         a.dpt_score == b.dpt_score && a.vias == b.vias &&
         a.lambda_shorts == b.lambda_shorts &&
         a.lambda_opens == b.lambda_opens && a.defect_yield == b.defect_yield &&
         a.via_yield_before == b.via_yield_before &&
         a.via_yield_after == b.via_yield_after && a.scorecard == b.scorecard;
}

double FlowTrace::passes_ms() const {
  double sum = 0;
  for (const PassTrace& p : passes) sum += p.ms;
  return sum;
}

const PassTrace* FlowTrace::find(const std::string& name) const {
  for (const PassTrace& p : passes) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::size_t resolved_memory_budget(const DfmFlowOptions& options) {
  if (options.memory_budget != 0) return options.memory_budget;
  if (const char* env = std::getenv("DFMKIT_SNAPSHOT_BUDGET")) {
    std::size_t bytes = 0;
    if (parse_byte_size(env, &bytes)) return bytes;
  }
  return 0;
}

DfmFlowReport run_dfm_flow(const Library& lib, std::uint32_t top,
                           const DfmFlowOptions& options) {
  const std::size_t budget = resolved_memory_budget(options);
  if (budget != 0) {
    // Out-of-core path over the in-memory library. The source only
    // aliases `lib` (the caller keeps it alive for the duration of the
    // call), so the shared_ptr carries no ownership.
    return run_dfm_flow(
        std::make_shared<LibrarySource>(
            std::shared_ptr<const Library>(std::shared_ptr<void>{}, &lib),
            top),
        options);
  }

  DfmFlowReport rep;
  const auto t0 = Clock::now();
  telemetry::Span flow_span("flow");
  const PassPool pool(options);

  // Build the shared substrate once: flatten every flow layer (one task
  // per layer) and normalize by construction.
  const auto snap_t0 = Clock::now();
  const std::uint64_t snap_t0_ns = telemetry::now_ns();
  const LayoutSnapshot snap(lib, top, pool);
  telemetry::record_span("flow/snapshot", snap_t0_ns, telemetry::now_ns());
  rep.trace.passes.push_back(
      PassTrace{"snapshot", ms_since(snap_t0), snap.layer_keys().size()});

  FlowCaches caches;
  detail::run_flow_passes(rep, snap, options, pool, caches, FlowDamage{},
                          nullptr);
  rep.trace.total_ms = ms_since(t0);
  return rep;
}

DfmFlowReport run_dfm_flow(std::shared_ptr<const SnapshotSource> source,
                           const DfmFlowOptions& options) {
  DfmFlowReport rep;
  const auto t0 = Clock::now();
  telemetry::Span flow_span("flow");
  const PassPool pool(options);

  // The lazy snapshot only scans per-layer bboxes up front; geometry
  // hydrates on first touch inside the passes, so the "snapshot" row
  // records just the index scan.
  const auto snap_t0 = Clock::now();
  const std::uint64_t snap_t0_ns = telemetry::now_ns();
  const LayoutSnapshot snap(std::move(source),
                            LayoutSnapshot::standard_flow_layers());
  snap.budget().set_limit(resolved_memory_budget(options));
  telemetry::record_span("flow/snapshot", snap_t0_ns, telemetry::now_ns());
  rep.trace.passes.push_back(
      PassTrace{"snapshot", ms_since(snap_t0), snap.layer_keys().size()});

  FlowCaches caches;
  detail::run_flow_passes(rep, snap, options, pool, caches, FlowDamage{},
                          nullptr);
  rep.trace.total_ms = ms_since(t0);
  return rep;
}

DfmFlowReport run_dfm_flow(const LayoutSnapshot& snap,
                           const DfmFlowOptions& options) {
  DfmFlowReport rep;
  const auto t0 = Clock::now();
  telemetry::Span flow_span("flow");
  const PassPool pool(options);
  if (const std::size_t budget = resolved_memory_budget(options)) {
    snap.budget().set_limit(budget);
  }
  rep.trace.passes.push_back(
      PassTrace{"snapshot", 0.0, snap.layer_keys().size()});
  FlowCaches caches;
  detail::run_flow_passes(rep, snap, options, pool, caches, FlowDamage{},
                          nullptr);
  rep.trace.total_ms = ms_since(t0);
  return rep;
}

Table flow_trace_table(const FlowTrace& trace) {
  Table t("flow trace");
  t.set_header({"pass", "ms", "items", "dirty/total", "reuse", "cache hit/miss"});
  for (const PassTrace& p : trace.passes) {
    // A skipped pass has no units at all: its reuse column renders as
    // "-" (reuse_ratio() itself clamps the 0/0 case to 1.0).
    t.add_row({p.name, Table::num(p.ms),
               Table::num(static_cast<std::int64_t>(p.items)),
               p.total_units == 0
                   ? std::string{"-"}
                   : Table::num(static_cast<std::int64_t>(p.dirty_units)) +
                         "/" +
                         Table::num(static_cast<std::int64_t>(p.total_units)),
               p.total_units == 0 ? std::string{"-"}
                                  : Table::percent(p.reuse_ratio()),
               Table::num(static_cast<std::int64_t>(p.cache_hits)) + "/" +
                   Table::num(static_cast<std::int64_t>(p.cache_misses))});
  }
  t.add_row({"(total)", Table::num(trace.total_ms), "", "", "", ""});
  return t;
}

std::string flow_trace_json(const DfmFlowReport& rep,
                            const telemetry::MetricsSnapshot* metrics) {
  std::string out = "{\n";
  out += "  \"schema_version\": " + std::to_string(kFlowJsonSchemaVersion) +
         ",\n";
  out += "  \"total_ms\": " + json_num(rep.trace.total_ms) + ",\n";
  out += "  \"passes\": [\n";
  for (std::size_t i = 0; i < rep.trace.passes.size(); ++i) {
    const PassTrace& p = rep.trace.passes[i];
    out += "    {\"name\": \"" + json_escape(p.name) +
           "\", \"ms\": " + json_num(p.ms) +
           ", \"items\": " + std::to_string(p.items) +
           ", \"total_units\": " + std::to_string(p.total_units) +
           ", \"dirty_units\": " + std::to_string(p.dirty_units) +
           ", \"reuse_ratio\": " + json_num(p.reuse_ratio()) +
           ", \"incremental\": " + (p.incremental ? "true" : "false") +
           ", \"cache_hits\": " + std::to_string(p.cache_hits) +
           ", \"cache_misses\": " + std::to_string(p.cache_misses) + "}";
    out += i + 1 < rep.trace.passes.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  const SnapshotCacheStats& c = rep.trace.cache;
  out += "  \"cache\": {\"reads\": " + std::to_string(c.reads()) +
         ", \"builds\": " + std::to_string(c.builds()) +
         ", \"hits\": " + std::to_string(c.hits()) + "},\n";
  if (metrics != nullptr) {
    out += "  \"telemetry\": " + telemetry::metrics_json(*metrics) + ",\n";
  }
  out += "  \"scorecard\": {\n    \"composite\": " +
         json_num(rep.scorecard.composite()) + ",\n    \"metrics\": [\n";
  for (std::size_t i = 0; i < rep.scorecard.metrics.size(); ++i) {
    const MetricScore& m = rep.scorecard.metrics[i];
    out += "      {\"name\": \"" + json_escape(m.name) +
           "\", \"value\": " + json_num(m.value) +
           ", \"weight\": " + json_num(m.weight) + ", \"detail\": \"" +
           json_escape(m.detail) + "\"}";
    out += i + 1 < rep.scorecard.metrics.size() ? ",\n" : "\n";
  }
  out += "    ]\n  }\n}\n";
  return out;
}

std::string flow_report_canonical_json(const DfmFlowReport& rep) {
  DfmFlowReport copy = rep;
  copy.trace.total_ms = 0;
  // Wall clock and cache activity are run artifacts, not analysis
  // content: a budgeted run re-hydrates (and a streamed capture skips
  // index builds entirely) without changing any result, so both are
  // zeroed for the canonical form.
  for (PassTrace& p : copy.trace.passes) {
    p.ms = 0;
    p.cache_hits = 0;
    p.cache_misses = 0;
  }
  copy.trace.cache = SnapshotCacheStats{};
  return flow_trace_json(copy);
}

}  // namespace dfm

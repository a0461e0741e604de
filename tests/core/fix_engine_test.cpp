// FixEngine: plan determinism and ordering, move filtering,
// normalize/inverse delta round-trips, and the score-gated loop's
// contract — accepted fixes strictly raise the composite, rejected ones
// roll back bit for bit, and the post-fix report equals a cold re-run
// over the fixed layout at every thread count.
#include "core/fix_engine.h"

#include "drc/engine.h"
#include "gen/generators.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dfm {
namespace {

/// A small design with enough trouble to propose against: generated
/// routes and via fields (the heavy-tailed style mix includes borderless
/// vias) plus injected pathologies in a strip below the core.
Library violation_rich(std::uint64_t seed) {
  DesignParams p;
  p.seed = seed;
  p.name = "fix" + std::to_string(seed);
  p.rows = 1;
  p.cells_per_row = 3;
  p.routes = 5;
  p.via_fields = 1;
  p.vias_per_field = 12;
  Library lib = generate_design(p);
  const std::uint32_t top = lib.top_cells()[0];
  Rng rng(seed ^ 0xF1F1);
  const Rect core = lib.bbox(top);
  const Rect strip{core.lo.x, core.lo.y - 20000, core.hi.x,
                   core.lo.y - 2000};
  inject_pathologies(lib.cell(top), rng, p.tech, strip, 4);
  return lib;
}

DfmFlowOptions fix_flow_options(unsigned threads) {
  DfmFlowOptions o;
  o.threads = threads;
  o.tech = Tech::standard();
  o.model.sigma = 20;
  o.model.px = 10;
  o.litho_tile = 8000;
  o.run_litho = false;  // the loop re-runs the flow constantly; keep it fast
  return o;
}

LayerMap flow_layers(const Library& lib, std::uint32_t top) {
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, lib.flatten(top, k));
  }
  return m;
}

std::string plan_signature(const FixPlan& plan) {
  std::string sig;
  for (const FixProposal& p : plan.proposals) {
    sig += fix_kind_name(p.kind);
    sig += '|';
    sig += p.rule;
    sig += '|';
    sig += to_string(p.site);
    sig += '\n';
  }
  return sig;
}

// ---- repair primitives ------------------------------------------------------

LayerMap cell_layers(const Cell& c) {
  LayerMap m;
  for (const LayerKey k : {layers::kMetal1, layers::kMetal2, layers::kVia1}) {
    m.emplace(k, c.local_region(k));
  }
  return m;
}

std::size_t borderless_hits(const DrcPlusDeck& deck, const DrcPlusResult& r) {
  std::size_t hits = 0;
  for (std::size_t si = 0; si < deck.pattern_sets.size(); ++si) {
    for (const PatternMatch& m : r.matches[si]) {
      if (deck.pattern_sets[si].rules[m.rule_index].name ==
          "DFM.VIA.BORDERLESS") {
        ++hits;
      }
    }
  }
  return hits;
}

TEST(FixPrimitives, BorderlessViaRepairGivesFullEnclosure) {
  const Tech& t = Tech::standard();
  Cell c{"c"};
  add_via(c, t, {0, 0}, ViaStyle::kBorderless);  // bare via: exact match
  LayerMap layers = cell_layers(c);
  const DrcPlusDeck deck = DrcPlusDeck::standard(t);
  const DrcPlusEngine engine{deck};
  const DrcPlusResult before = engine.run(LayoutSnapshot(layers));
  ASSERT_GE(borderless_hits(deck, before), 1u);

  // Repair every borderless match in turn, each against the layout the
  // repairs before it left.
  std::size_t fixed = 0;
  for (std::size_t si = 0; si < deck.pattern_sets.size(); ++si) {
    for (const PatternMatch& m : before.matches[si]) {
      if (deck.pattern_sets[si].rules[m.rule_index].name !=
          "DFM.VIA.BORDERLESS") {
        continue;
      }
      Region a1;
      Region a2;
      if (!fix_detail::borderless_via_additions(
              layers.at(layers::kVia1), layers.at(layers::kMetal1),
              layers.at(layers::kMetal2), m.anchor, t, a1, a2)) {
        continue;
      }
      EXPECT_FALSE(a1.empty());
      layers.at(layers::kMetal1).add(a1);
      layers.at(layers::kMetal2).add(a2);
      ++fixed;
    }
  }
  EXPECT_GE(fixed, 1u);

  // The repaired via is fully enclosed on both metals, and the matcher
  // no longer fires on it.
  const Region& via = layers.at(layers::kVia1);
  EXPECT_TRUE(
      (via.bloated(t.via_enclosure) - layers.at(layers::kMetal1)).empty());
  EXPECT_TRUE(
      (via.bloated(t.via_enclosure) - layers.at(layers::kMetal2)).empty());
  EXPECT_EQ(borderless_hits(deck, engine.run(LayoutSnapshot(layers))), 0u);
}

TEST(FixPrimitives, BorderlessViaRepairRefusedWhenSpacingWouldBreak) {
  const Tech& t = Tech::standard();
  Cell c{"c"};
  add_via(c, t, {0, 0}, ViaStyle::kBorderless);
  // A hostile neighbour too close to where the pad must grow.
  const Coord pad_edge = t.via_size / 2 + t.via_enclosure;
  c.add(layers::kMetal1,
        Rect{pad_edge + t.m1_space - 5, -100, pad_edge + t.m1_space + 95, 100});
  const LayerMap layers = cell_layers(c);
  Region a1;
  Region a2;
  EXPECT_FALSE(fix_detail::borderless_via_additions(
      layers.at(layers::kVia1), layers.at(layers::kMetal1),
      layers.at(layers::kMetal2), Point{0, 0}, t, a1, a2));
  EXPECT_TRUE(a1.empty());
  EXPECT_TRUE(a2.empty());
}

TEST(FixPrimitives, PinchRepairWidensWhenRoomExists) {
  const Tech& t = Tech::standard();
  // A pinch-like corridor with relaxed gaps (1.5x min space): room to
  // widen the middle line. The window is aimed by hand (the relaxed
  // corridor is not the exact deck pattern).
  const Coord w = t.m1_width;
  const Coord s = t.m1_space + t.m1_space / 2;
  const Coord len = 14 * w;
  Region m1;
  m1.add(Rect{0, 0, len, 3 * w});
  m1.add(Rect{0, 3 * w + s, len, 4 * w + s});
  m1.add(Rect{0, 4 * w + 2 * s, len, 7 * w + 2 * s});
  const Region middle_before = m1.clipped(Rect{0, 3 * w + s, len, 4 * w + s});

  Region a1;
  ASSERT_TRUE(fix_detail::pinch_addition(
      m1, Rect{len / 2 - 400, 0, len / 2 + 400, 7 * w + 2 * s}, t, a1));
  m1.add(a1);
  // The middle line is wider now, and no spacing violation was created.
  EXPECT_GT(m1.clipped(Rect{0, 2 * w, len, 5 * w + 2 * s}).area(),
            middle_before.area());
  EXPECT_TRUE(check_min_spacing(m1, t.m1_space, "S").empty());
}

TEST(FixPlan, NoPatternMatchesNoPatternRepairs) {
  const Tech& t = Tech::standard();
  Cell c{"c"};
  add_via(c, t, {0, 0}, ViaStyle::kSymmetric);
  const LayoutSnapshot snap(cell_layers(c));
  DfmFlowReport report;
  report.drcplus = DrcPlusEngine{DrcPlusDeck::standard(t)}.run(snap);
  ASSERT_EQ(report.drcplus.pattern_match_count(), 0u);
  FixOptions fo;
  fo.moves = {"pattern_via", "pattern_pinch"};
  EXPECT_TRUE(FixEngine::run(snap, report, fo, t).empty());
}

TEST(FixKindNames, RoundTrip) {
  for (const FixKind k :
       {FixKind::kPatternVia, FixKind::kPatternPinch, FixKind::kViaDouble,
        FixKind::kSpread, FixKind::kRetarget, FixKind::kFill}) {
    const auto parsed = parse_fix_kind(fix_kind_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_fix_kind("bogus").has_value());
  EXPECT_FALSE(parse_fix_kind("").has_value());
}

TEST(FixOptions, MovesFilter) {
  FixOptions all;
  EXPECT_TRUE(all.enabled(FixKind::kViaDouble));
  EXPECT_TRUE(all.enabled(FixKind::kFill));
  FixOptions some;
  some.moves = {"via_double", "spread"};
  EXPECT_TRUE(some.enabled(FixKind::kViaDouble));
  EXPECT_TRUE(some.enabled(FixKind::kSpread));
  EXPECT_FALSE(some.enabled(FixKind::kPatternVia));
  EXPECT_FALSE(some.enabled(FixKind::kFill));
}

TEST(FixPlan, DeterministicAndPure) {
  const Library lib = violation_rich(11);
  DfmFlowSession session(lib, lib.top_cells()[0], fix_flow_options(2));
  const FixOptions fo;
  const FixPlan a =
      FixEngine::run(session.snapshot(), session.report(), fo);
  const FixPlan b =
      FixEngine::run(session.snapshot(), session.report(), fo);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(plan_signature(a), plan_signature(b));
  // Planning is side-effect-free: the session's report is untouched.
  const FixPlan c =
      FixEngine::run(session.snapshot(), session.report(), fo);
  EXPECT_EQ(plan_signature(a), plan_signature(c));
}

TEST(FixPlan, MovesRestrictTheProposalKinds) {
  const Library lib = violation_rich(11);
  DfmFlowSession session(lib, lib.top_cells()[0], fix_flow_options(1));
  FixOptions only_vias;
  only_vias.moves = {"via_double"};
  const FixPlan plan =
      FixEngine::run(session.snapshot(), session.report(), only_vias);
  for (const FixProposal& p : plan.proposals) {
    EXPECT_EQ(p.kind, FixKind::kViaDouble);
  }
  const FixPlan full =
      FixEngine::run(session.snapshot(), session.report(), FixOptions{});
  EXPECT_LE(plan.proposals.size(), full.proposals.size());
}

TEST(FixDelta, NormalizeInverseRestoresReportBitForBit) {
  const Library lib = violation_rich(23);
  DfmFlowSession session(lib, lib.top_cells()[0], fix_flow_options(2));
  const DfmFlowReport before = session.report();  // copy

  // An edit that half-overlaps existing metal (normalization must trim
  // the overlap for the inverse to be exact) plus a removal.
  const Rect bb = session.snapshot().bbox();
  LayoutDelta delta;
  delta.add(layers::kMetal1,
            Rect{bb.lo.x + 100, bb.lo.y + 100, bb.lo.x + 900, bb.lo.y + 400});
  delta.remove(layers::kMetal2,
               Rect{bb.lo.x + 2000, bb.lo.y + 2000, bb.lo.x + 2600,
                    bb.lo.y + 2500});
  const LayoutDelta norm = normalize_delta(delta, session.snapshot());

  session.apply(norm);
  session.apply(inverse_delta(norm));
  // Every analysis field restored exactly (doubles compared bitwise);
  // only the trace's incremental accounting moved.
  EXPECT_TRUE(reports_equivalent(session.report(), before));
}

// The loop rolls a rejected candidate back with DfmFlowSession::rollback.
// The same loop by hand, rolling back by applying the inverse delta
// instead (a second flow run), must measure the same gains bit for bit
// and end on the same report.
TEST(FixDelta, RollbackMatchesInverseApply) {
  const Library lib = violation_rich(23);
  const std::uint32_t top = lib.top_cells()[0];
  FixOptions fo;
  fo.max_iters = 2;
  DfmFlowSession looped(lib, top, fix_flow_options(2));
  const FixOutcome out = FixEngine::fix(looped, fo);
  ASSERT_GT(out.accepted, 0);
  ASSERT_GT(out.rejected, 0);

  DfmFlowSession manual(lib, top, fix_flow_options(2));
  std::vector<double> gains;
  for (int iter = 1; iter <= fo.max_iters; ++iter) {
    const FixPlan plan = FixEngine::run(manual.snapshot(), manual.report(),
                                        fo, manual.options().tech);
    if (plan.empty()) break;
    int accepted = 0;
    for (const FixProposal& p : plan.proposals) {
      const std::size_t k = gains.size();
      const LayoutDelta norm = normalize_delta(p.delta, manual.snapshot());
      if (norm.empty()) {
        gains.push_back(0);
        continue;
      }
      const double pre = manual.report().scorecard.composite();
      gains.push_back(manual.apply(norm).scorecard.composite() - pre);
      // The accept decision is the loop's; the gains are measured here.
      ASSERT_LT(k, out.steps.size());
      if (out.steps[k].accepted) {
        ++accepted;
      } else {
        manual.apply(inverse_delta(norm));
      }
    }
    if (accepted == 0) break;
  }
  ASSERT_EQ(gains.size(), out.steps.size());
  for (std::size_t k = 0; k < gains.size(); ++k) {
    EXPECT_EQ(gains[k], out.steps[k].gain) << "step " << k;
  }
  EXPECT_TRUE(reports_equivalent(manual.report(), looped.report()));
  EXPECT_EQ(manual.report().scorecard.composite(), out.composite_after);
}

TEST(FixDelta, NormalizedApplyReachesTheSameEndState) {
  const Library lib = violation_rich(23);
  const std::uint32_t top = lib.top_cells()[0];
  const Rect bb = lib.bbox(top);
  LayoutDelta delta;
  delta.add(layers::kMetal1,
            Rect{bb.lo.x + 100, bb.lo.y + 100, bb.lo.x + 900, bb.lo.y + 400});
  delta.remove(layers::kVia1, Rect{bb.lo.x, bb.lo.y, bb.center().x,
                                   bb.center().y});

  DfmFlowSession raw(lib, top, fix_flow_options(1));
  DfmFlowSession normed(lib, top, fix_flow_options(1));
  const LayoutDelta norm = normalize_delta(delta, normed.snapshot());
  raw.apply(delta);
  normed.apply(norm);
  // Same end state (the normalized delta may dirty less, so the traces'
  // incremental accounting can differ — compare the analysis content).
  EXPECT_TRUE(reports_equivalent(raw.report(), normed.report()));
}

TEST(FixLoop, AcceptsOnlyStrictCompositeImprovements) {
  const Library lib = violation_rich(31);
  DfmFlowSession session(lib, lib.top_cells()[0], fix_flow_options(2));
  FixOptions fo;
  fo.max_iters = 3;
  const FixOutcome out = FixEngine::fix(session, fo);

  EXPECT_EQ(out.accepted + out.rejected, out.proposed);
  EXPECT_EQ(static_cast<int>(out.steps.size()), out.proposed);
  EXPECT_GE(out.composite_after, out.composite_before);
  for (const FixStep& s : out.steps) {
    if (s.accepted) {
      EXPECT_GT(s.gain, fo.min_gain) << fix_kind_name(s.kind);
      EXPECT_TRUE(s.reject.empty());
    } else {
      EXPECT_FALSE(s.reject.empty());
    }
  }
  // The outcome's composite_after is the session's live composite.
  EXPECT_EQ(out.composite_after, session.report().scorecard.composite());
}

TEST(FixLoop, PostFixReportMatchesColdRerunAtEveryThreadCount) {
  const Library lib = violation_rich(47);
  const std::uint32_t top = lib.top_cells()[0];
  DfmFlowSession session(lib, top, fix_flow_options(2));
  const FixOutcome out = FixEngine::fix(session, FixOptions{});

  // `applied` replayed onto the pre-fix layout, cold, at 1/2/8 threads:
  // every cold run matches the incremental session field for field, and
  // the cold runs themselves are byte-identical to each other.
  std::string cold_bytes;
  for (const unsigned threads : {1u, 2u, 8u}) {
    LayerMap layers = flow_layers(lib, top);
    out.applied.apply(layers);
    const LayoutSnapshot snap(std::move(layers));
    const DfmFlowReport cold = run_dfm_flow(snap, fix_flow_options(threads));
    EXPECT_TRUE(reports_equivalent(cold, session.report()))
        << "threads=" << threads;
    const std::string bytes = flow_report_canonical_json(cold);
    if (cold_bytes.empty()) {
      cold_bytes = bytes;
    } else {
      EXPECT_EQ(bytes, cold_bytes) << "threads=" << threads;
    }
  }
}

TEST(FixLoop, OutcomeBytesIdenticalAcrossThreadCounts) {
  const Library lib = violation_rich(59);
  const std::uint32_t top = lib.top_cells()[0];
  std::vector<std::string> outcomes;
  for (const unsigned threads : {1u, 2u, 8u}) {
    DfmFlowSession session(lib, top, fix_flow_options(threads));
    outcomes.push_back(fix_outcome_json(FixEngine::fix(session, FixOptions{})));
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
  EXPECT_EQ(outcomes[0], outcomes[2]);
}

TEST(FixLoop, MaxItersZeroStillRunsOneRound) {
  const Library lib = violation_rich(11);
  DfmFlowSession session(lib, lib.top_cells()[0], fix_flow_options(1));
  FixOptions fo;
  fo.max_iters = 0;
  const FixOutcome out = FixEngine::fix(session, fo);
  EXPECT_LE(out.iterations, 1);
}

}  // namespace
}  // namespace dfm

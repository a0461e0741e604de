// Figure 3b — Incremental re-analysis vs cold re-run.
//
// The fix→recheck loop the paper's sign-off story implies: a designer
// patches one spot, the flow re-checks. A cold run pays the full-chip
// cost every time; the delta path re-normalizes only the dirty layers
// and re-runs each pass over its damage region, splicing cached results
// for the rest. The claim under test: for a local edit (well under 1%
// of the layout), the incremental flow is >= 5x faster than a cold run
// while producing a bit-identical report at every thread count.
#include "bench_common.h"

#include "core/dfm_flow.h"
#include "core/incremental.h"
#include "core/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

using namespace dfm;
using namespace dfm::bench;

namespace {

DfmFlowOptions flow_options(unsigned threads) {
  DfmFlowOptions o;
  o.threads = threads;
  // Finer litho tiles than the sign-off default: tile size is the litho
  // pass's splice granule, and a local edit should re-simulate a
  // neighbourhood, not half the chip.
  o.litho_tile = 4000;
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The p90 and the max of `v`, as "p90 / max".
std::string tail(std::vector<double> v, int digits) {
  std::sort(v.begin(), v.end());
  return Table::num(telemetry::sample_percentile(v, 0.9), digits) + " / " +
         Table::num(v.empty() ? 0.0 : v.back(), digits);
}

// The median and the max of a count, as "median / max".
std::string median_max(const std::vector<double>& v) {
  return Table::num(median(v), 0) + " / " +
         Table::num(v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()),
                    0);
}

const char* const kPasses[] = {"snapshot",     "drc_plus",     "recommended",
                               "litho",        "dpt",          "via_doubling",
                               "connectivity", "caa_yield"};

// A seeded 200 x 200 patch on `layer` in empty space: a 100-dbu margin
// to every shape and 800 dbu inside the bbox, so no edit moves the
// extent.
Rect empty_patch(const LayoutSnapshot& index, LayerKey layer, Rng& rng) {
  const Rect box = index.bbox().expanded(-800);
  while (true) {
    const Coord x = rng.uniform(box.lo.x, box.hi.x - 200);
    const Coord y = rng.uniform(box.lo.y, box.hi.y - 200);
    const Rect r{x, y, x + 200, y + 200};
    if (index.rtree(layer).query(r.expanded(100)).empty()) return r;
  }
}

// What a run of applies records: per apply, the ms of "apply" and of
// every pass's PassTrace (`ms`), the same for the adds alone (`add_ms`),
// and caa_yield's dirty units.
struct ApplySamples {
  std::map<std::string, std::vector<double>> ms, add_ms;
  std::vector<double> caa_dirty;
};

// Adds `patch` to the session's design and removes it again, one sample
// each in `samples`. With `cold_check`, the report after the add is
// compared with a cold run over the edited layout; returns false when
// they differ.
bool add_then_remove(DfmFlowSession& session, const Library& lib,
                     std::uint32_t top, LayerKey layer, const Rect& patch,
                     bool cold_check, ApplySamples& samples) {
  bool equal = true;
  for (const bool add : {true, false}) {
    LayoutDelta d;
    if (add) {
      d.add(layer, patch);
    } else {
      d.remove(layer, patch);
    }
    Stopwatch t;
    const DfmFlowReport& rep = session.apply(d);
    const double apply_ms = t.ms();
    const auto record = [&](std::map<std::string, std::vector<double>>& ms) {
      ms["apply"].push_back(apply_ms);
      for (const PassTrace& pt : rep.trace.passes) ms[pt.name].push_back(pt.ms);
    };
    record(samples.ms);
    if (add) record(samples.add_ms);
    if (const PassTrace* caa = rep.trace.find("caa_yield")) {
      samples.caa_dirty.push_back(static_cast<double>(caa->dirty_units));
    }
    if (cold_check && add) {
      LayerMap edited;
      for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
        edited.emplace(k, lib.flatten(top, k));
      }
      d.apply(edited);
      const LayoutSnapshot snap{edited};
      equal = reports_equivalent(rep, run_dfm_flow(snap, session.options()));
    }
  }
  return equal;
}

// The edit probe: perfbench's scale-8 design (seed 7) under a warm
// session at default options and 4 threads. Each layer gets `per_layer`
// empty_patch()es, each added and then removed; every apply is one
// sample. Prints the cold flow time, the per-layer apply medians and,
// per layer, the median of every pass's PassTrace ms, then per layer the
// p90 and the max over the adds of the apply and of every pass, and
// caa_yield's dirty units per apply. Returns false when a spliced report
// diverges from a cold run over the same layout.
bool edit_probe(int per_layer) {
  const Library lib = scaling_design(7, 8);
  const std::uint32_t top = lib.top_cell();
  DfmFlowOptions options;
  options.threads = 4;

  Stopwatch t_cold;
  DfmFlowSession session(lib, top, options);
  const double cold_ms = t_cold.ms();

  const LayerKey layers_[3] = {layers::kMetal1, layers::kMetal2,
                               layers::kVia1};
  const char* names[3] = {"m1", "m2", "via1"};
  const LayoutSnapshot index(lib, top,
                             std::vector<LayerKey>(std::begin(layers_),
                                                   std::end(layers_)));
  Rng rng(7);
  ApplySamples apply_ms[3];
  bool equal = true;
  for (int n = 0; n < 3 * per_layer; ++n) {
    const int l = n % 3;
    const Rect patch = empty_patch(index, layers_[l], rng);
    // One cold check per layer keeps the probe's own cost bounded.
    equal = add_then_remove(session, lib, top, layers_[l], patch, n < 3,
                            apply_ms[l]) &&
            equal;
  }

  std::printf("\nEdit probe: scale-8 (seed 7), default options, 4 threads, "
              "%d patches per layer, each added then removed\n",
              per_layer);
  std::printf("cold flow: %.1f ms\n", cold_ms);
  Table table("edit probe: per-layer medians (ms)");
  std::vector<std::string> header = {"layer", "apply"};
  for (const char* pass : kPasses) header.emplace_back(pass);
  table.set_header(header);
  for (int l = 0; l < 3; ++l) {
    std::map<std::string, std::vector<double>>& ms = apply_ms[l].ms;
    std::vector<std::string> row = {names[l],
                                    Table::num(median(ms["apply"]), 1)};
    for (const char* pass : kPasses) {
      row.push_back(Table::num(median(ms[pass]), 1));
    }
    table.add_row(row);
  }
  table.print();
  // The medians hide a slow mode; the tail over the adds shows it.
  Table tails("edit probe: per-layer p90 / max over adds (ms)");
  header.emplace_back("caa_yield dirty units, median / max");
  tails.set_header(header);
  for (int l = 0; l < 3; ++l) {
    std::map<std::string, std::vector<double>>& ms = apply_ms[l].add_ms;
    std::vector<std::string> row = {names[l], tail(ms["apply"], 1)};
    for (const char* pass : kPasses) row.push_back(tail(ms[pass], 1));
    row.push_back(median_max(apply_ms[l].caa_dirty));
    tails.add_row(row);
  }
  tails.print();
  std::printf("spliced reports equal a cold run: %s\n", equal ? "yes" : "NO");
  return equal;
}

// The M1 sweep: how an M1 edit's cost grows with the chip. For each of
// perfbench's designs at scale 4, 8 and 16 (seed 7), a session at
// default options and 4 threads takes `patches` M1 empty_patch()es, each
// added and then removed. Prints, per scale, the M1 rect count, the
// session's cold open, and the medians of the apply and of each pass
// over every apply; then the p90 and the max of each over the adds, and
// caa_yield's dirty units per apply. The patches touch no shape, so the
// damage is the same at every scale and whatever grows is a whole-layer
// cost. Returns false when the one cold check per scale diverges.
bool m1_sweep(int patches) {
  const int scales[] = {4, 8, 16};
  std::vector<std::vector<std::string>> columns, tail_columns;
  bool equal = true;
  for (const int scale : scales) {
    const Library lib = scaling_design(7, scale);
    const std::uint32_t top = lib.top_cell();
    DfmFlowOptions options;
    options.threads = 4;
    Stopwatch t_cold;
    DfmFlowSession session(lib, top, options);
    const double cold_ms = t_cold.ms();

    const LayoutSnapshot index(lib, top, {layers::kMetal1});
    Rng rng(7);
    ApplySamples samples;
    for (int n = 0; n < patches; ++n) {
      const Rect patch = empty_patch(index, layers::kMetal1, rng);
      equal = add_then_remove(session, lib, top, layers::kMetal1, patch,
                              n == 0, samples) &&
              equal;
    }
    std::map<std::string, std::vector<double>>& ms = samples.ms;
    // Per apply, the time outside every pass and the apply without dpt.
    std::vector<double> outside, without_dpt;
    for (std::size_t i = 0; i < ms["apply"].size(); ++i) {
      double passes = 0;
      for (const char* pass : kPasses) {
        if (ms[pass].size() > i) passes += ms[pass][i];
      }
      outside.push_back(ms["apply"][i] - passes);
      without_dpt.push_back(ms["apply"][i] -
                            (ms["dpt"].size() > i ? ms["dpt"][i] : 0.0));
    }
    std::vector<std::string> col = {
        std::to_string(index.layer(layers::kMetal1).rect_count()),
        Table::num(cold_ms, 0), Table::num(median(ms["apply"]), 1),
        Table::num(median(without_dpt), 1)};
    for (const char* pass : kPasses) {
      col.push_back(Table::num(median(ms[pass]), 2));
    }
    col.push_back(Table::num(median(outside), 2));
    columns.push_back(col);
    std::vector<std::string> tail_col = {tail(samples.add_ms["apply"], 1)};
    for (const char* pass : kPasses) {
      tail_col.push_back(tail(samples.add_ms[pass], 2));
    }
    tail_col.push_back(median_max(samples.caa_dirty));
    tail_columns.push_back(tail_col);
  }

  std::printf("\nM1 sweep: perfbench designs (seed 7), default options, "
              "4 threads, %d M1 patches each added then removed\n",
              patches);
  Table table("M1 sweep: medians over every apply (ms)");
  std::vector<std::string> header = {""};
  for (const int scale : scales) {
    header.push_back("scale " + std::to_string(scale));
  }
  table.set_header(header);
  std::vector<std::string> rows = {"M1 rects", "cold session open", "apply",
                                   "apply without dpt"};
  for (const char* pass : kPasses) rows.emplace_back(pass);
  rows.emplace_back("outside every pass");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> row = {rows[r]};
    for (const auto& col : columns) row.push_back(col[r]);
    table.add_row(row);
  }
  table.print();
  Table tails("M1 sweep: p90 / max over the adds (ms)");
  tails.set_header(header);
  std::vector<std::string> tail_rows = {"apply"};
  for (const char* pass : kPasses) tail_rows.emplace_back(pass);
  tail_rows.emplace_back("caa_yield dirty units, median / max");
  for (std::size_t r = 0; r < tail_rows.size(); ++r) {
    std::vector<std::string> row = {tail_rows[r]};
    for (const auto& col : tail_columns) row.push_back(col[r]);
    tails.add_row(row);
  }
  tails.print();
  std::printf("spliced reports equal a cold run: %s\n", equal ? "yes" : "NO");
  return equal;
}

}  // namespace

int main() {
  const int scale = 8;
  const Library lib = scaling_design(scale, scale);
  const std::uint32_t top = lib.top_cell();

  // The edit: one small M1 patch in the middle of the core — the shape a
  // hotspot fix or an ECO buffer drop leaves behind.
  const Rect bb = lib.bbox(top);
  const Point c{(bb.lo.x + bb.hi.x) / 2, (bb.lo.y + bb.hi.y) / 2};
  const Rect patch{c.x, c.y, c.x + 400, c.y + 400};
  LayoutDelta delta;
  delta.add(layers::kMetal1, patch);
  const double dirty_pct = 100.0 * static_cast<double>(patch.area()) /
                           static_cast<double>(bb.area());

  // Edited layers for the cold-run baseline, snapshotted once outside
  // every timed region (bench_common's fixture discipline).
  LayerMap edited;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    edited.emplace(k, lib.flatten(top, k));
  }
  delta.apply(edited);
  const LayoutSnapshot cold_snap{edited};

  Table table("Figure 3b: incremental re-analysis vs cold re-run");
  table.set_header(
      {"threads", "cold ms", "incr ms", "speedup", "drc reuse", "litho reuse"});

  const unsigned thread_counts[] = {1, 2, 8};
  bool all_equal = true;
  double min_speedup = 1e300;
  const DfmFlowReport* first = nullptr;
  std::vector<DfmFlowReport> reports;
  reports.reserve(3);

  for (const unsigned threads : thread_counts) {
    // Cold baseline: full flow over the pre-built edited snapshot.
    Stopwatch t_cold;
    const DfmFlowReport cold = run_dfm_flow(cold_snap, flow_options(threads));
    const double cold_ms = t_cold.ms();

    // Incremental: session already warm on the pre-edit design; time
    // only the delta application (snapshot derive + dirty re-analysis).
    DfmFlowSession session(lib, top, flow_options(threads));
    Stopwatch t_inc;
    const DfmFlowReport& inc = session.apply(delta);
    const double inc_ms = t_inc.ms();

    const bool equal = reports_equivalent(inc, cold);
    all_equal = all_equal && equal;
    const double speedup = cold_ms / inc_ms;
    if (speedup < min_speedup) min_speedup = speedup;

    const PassTrace* drc = inc.trace.find("drc_plus");
    const PassTrace* litho = inc.trace.find("litho");
    table.add_row({std::to_string(threads), Table::num(cold_ms, 1),
                   Table::num(inc_ms, 1), Table::num(speedup, 1) + "x",
                   drc ? Table::num(100.0 * drc->reuse_ratio(), 0) + "%" : "-",
                   litho ? Table::num(100.0 * litho->reuse_ratio(), 0) + "%"
                         : "-"});

    reports.push_back(inc);
    if (!first) first = &reports.front();
  }

  for (std::size_t i = 1; i < reports.size(); ++i) {
    all_equal = all_equal && reports_equivalent(reports[0], reports[i]);
  }

  table.print();
  std::printf(
      "\nedit dirties %.4f%% of the layout (%d flat shapes at scale %d)\n",
      dirty_pct, static_cast<int>(lib.flat_shape_count(top)), scale);
  std::printf("reports bit-identical across cold/incremental and threads "
              "1/2/8: %s\n",
              all_equal ? "yes" : "NO");

  // The report-equality gate is a correctness invariant and stays hard.
  // The speedup gate is a *timing* claim measured on whatever machine
  // runs the bench: on a contended CI host the cold/incremental ratio
  // wobbles for reasons that have nothing to do with the splice logic.
  // DFMKIT_BENCH_SPEEDUP_MIN relaxes (or tightens) only that threshold;
  // the default stays the paper's 5x.
  const bool probe_equal = edit_probe(30);
  const bool sweep_equal = m1_sweep(20);
  all_equal = all_equal && probe_equal && sweep_equal;

  double speedup_min = 5.0;
  if (const char* env = std::getenv("DFMKIT_BENCH_SPEEDUP_MIN")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0) {
      speedup_min = v;
      std::printf("DFMKIT_BENCH_SPEEDUP_MIN=%s: speedup gate set to %.1fx\n",
                  env, speedup_min);
    } else {
      std::fprintf(stderr,
                   "WARNING: ignoring unparseable DFMKIT_BENCH_SPEEDUP_MIN"
                   "=\"%s\" (want a positive number); gate stays %.1fx\n",
                   env, speedup_min);
    }
  }
  std::printf("verdict: incremental re-analysis is a HIT when the speedup "
              "column stays >= %.1fx\nwith identical reports — the "
              "fix->recheck loop runs at edit cost, not chip cost.\n",
              speedup_min);
  if (all_equal && min_speedup < speedup_min) {
    std::fprintf(stderr,
                 "WARNING: reports are identical but the measured speedup "
                 "(%.1fx) misses the %.1fx gate.\nThis is a wall-clock "
                 "threshold — on a loaded or throttled host it can fail "
                 "without any\nregression in the splice logic. Re-run on a "
                 "quiet machine, or set\nDFMKIT_BENCH_SPEEDUP_MIN to relax "
                 "the gate for this environment.\n",
                 min_speedup, speedup_min);
  }
  return (all_equal && min_speedup >= speedup_min) ? 0 : 1;
}

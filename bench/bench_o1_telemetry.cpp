// Observability 1 — Telemetry self-profiling: what does watching cost?
//
// The telemetry subsystem promises to be cheap enough to leave on for
// every sign-off run: spans are one clock sample + one ring-buffer store
// per scope, metrics are single relaxed RMWs, and with recording
// disabled a span costs one relaxed load. This bench puts a number on
// that promise by running the full DFM flow with span recording off and
// on at several thread counts and comparing min-of-reps wall times —
// and, since observability must never change the answer, asserting the
// flow reports are bit-identical in both modes.
//
// Output is parseable (one "TELEM threads=..." line per thread count);
// tools/run_benches.sh folds these into BENCH_flow.json.
#include "bench_common.h"

#include "core/dfm_flow.h"
#include "core/telemetry.h"

#include <algorithm>
#include <cstdio>

using namespace dfm;
using namespace dfm::bench;

namespace {

DfmFlowOptions flow_options(unsigned threads) {
  DfmFlowOptions o;
  o.threads = threads;
  o.litho_tile = 4000;  // more tiles -> more spans: the worst case
  return o;
}

}  // namespace

int main() {
  const TestDesign d = make_design_with_defects(11, 4, 16, 40, 0);
  const LayoutSnapshot base_snap(d.lib, d.top);

  // Pre-building the snapshot outside the timed region would let both
  // modes share memoized R-trees and skew the comparison toward
  // whichever runs second — so every timed rep flattens its own.
  LayerMap layers;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    layers.emplace(k, base_snap.layer(k).region());
  }

  constexpr int kReps = 25;
  const unsigned thread_counts[] = {1, 2, 8};

  Table table("Observability 1: telemetry overhead on the full flow");
  table.set_header({"threads", "off ms", "on ms", "overhead", "spans",
                    "depth", "identical"});

  bool all_equal = true;
  bool depth_ok = true;
  double max_overhead_pct = 0;

  for (const unsigned threads : thread_counts) {
    double off_ms = 1e300;
    double on_ms = 1e300;
    DfmFlowReport off_rep;
    DfmFlowReport on_rep;
    std::size_t spans = 0;
    std::uint32_t depth = 0;

    const auto timed_run = [&](bool record) {
      telemetry::set_enabled(record);
      Stopwatch t;
      DfmFlowReport r =
          run_dfm_flow(LayoutSnapshot{layers}, flow_options(threads));
      const double ms = t.ms();
      double& best = record ? on_ms : off_ms;
      if (ms < best) {
        best = ms;
        (record ? on_rep : off_rep) = std::move(r);
      }
      return ms;
    };

    // Overhead estimator: each rep runs both modes back to back (order
    // alternating, so neither mode systematically inherits a warm
    // cache), then the two arms are compared by interquartile-trimmed
    // mean. Scheduler noise on a shared box is mostly one-sided — a
    // hiccup only ever inflates a run — so trimming both tails leaves
    // each arm's clean plateau, and averaging the middle half beats a
    // single median order-statistic on variance. Min-of-reps and
    // per-rep paired differences both proved too fragile here: the real
    // span cost (~100 ns x a few hundred spans) is orders of magnitude
    // below the run-to-run jitter, and a single stall landing inside
    // one run swings either of those estimators by several percent.
    std::vector<double> off_samples;
    std::vector<double> on_samples;
    off_samples.reserve(static_cast<std::size_t>(kReps));
    on_samples.reserve(static_cast<std::size_t>(kReps));
    for (int rep = -1; rep < kReps; ++rep) {
      const bool on_first = rep % 2 != 0;
      const double a = timed_run(on_first);
      const double b = timed_run(!on_first);
      if (rep >= 0) {  // rep -1 warms caches and the CPU governor
        off_samples.push_back(on_first ? b : a);
        on_samples.push_back(on_first ? a : b);
      }
      telemetry::set_enabled(false);
      const telemetry::TraceSnapshot trace = telemetry::drain();
      spans = trace.total_events();
      depth = trace.max_depth();
      // Pool workers are joined once run_dfm_flow returns, so the rings
      // are quiescent and safe to reclaim between reps.
      telemetry::clear();
    }

    const auto trimmed_mean = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      const std::size_t trim = v.size() / 4;  // drop each quartile tail
      double sum = 0;
      for (std::size_t i = trim; i < v.size() - trim; ++i) sum += v[i];
      const std::size_t kept = v.size() - 2 * trim;
      return kept > 0 ? sum / static_cast<double>(kept) : 0.0;
    };
    const double off_med = trimmed_mean(off_samples);
    const double on_med = trimmed_mean(on_samples);
    const double overhead_pct =
        off_med > 0 ? 100.0 * (on_med - off_med) / off_med : 0.0;
    if (overhead_pct > max_overhead_pct) max_overhead_pct = overhead_pct;
    const bool equal = reports_equivalent(off_rep, on_rep);
    all_equal = all_equal && equal;
    if (depth < 4) depth_ok = false;

    table.add_row({std::to_string(threads), Table::num(off_ms, 1),
                   Table::num(on_ms, 1), Table::num(overhead_pct, 2) + "%",
                   std::to_string(spans), std::to_string(depth),
                   equal ? "yes" : "NO"});
    std::printf("TELEM threads=%u base_ms=%.3f telem_ms=%.3f "
                "overhead_pct=%.3f spans=%zu depth=%u identical=%d\n",
                threads, off_ms, on_ms, overhead_pct, spans, depth,
                equal ? 1 : 0);
  }

  table.print();
  std::printf(
      "\nverdict: telemetry is free-to-watch when overhead stays < 2%% with\n"
      "span depth >= 4 (flow -> pass -> tile/rule -> kernel) and reports\n"
      "bit-identical with recording on/off at every thread count.\n");
  const bool pass = all_equal && depth_ok && max_overhead_pct < 2.0;
  if (!pass) {
    std::printf("FAILED: max overhead %.2f%%, depth ok: %s, identical: %s\n",
                max_overhead_pct, depth_ok ? "yes" : "no",
                all_equal ? "yes" : "no");
  }
  return pass ? 0 : 1;
}

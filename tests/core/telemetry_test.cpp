// The telemetry subsystem's contracts: span nesting stays consistent
// under multi-thread contention (with a concurrent drain — the TSan
// target), the Chrome-trace exporter's output is byte-stable, rings drop
// (and count) instead of wrapping, histograms clamp into their edge
// buckets, the flow's spans and trace rows come from one clock and nest
// the same way for cold and incremental runs, and — the one that
// matters for sign-off — recording never changes the flow's answer.
#include "core/telemetry.h"

#include "core/dfm_flow.h"
#include "core/incremental.h"
#include "gen/generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace dfm {
namespace {

namespace telem = ::dfm::telemetry;

/// Every test leaves the registry the way it found it: recording off,
/// rings empty, default capacity.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telem::set_enabled(false);
    telem::clear();
    telem::reset_metrics();
  }
  void TearDown() override {
    telem::set_enabled(false);
    telem::set_ring_capacity(std::size_t{1} << 16);
    telem::clear();
    telem::reset_metrics();
  }
};

constexpr const char* kDepthName[] = {"nest/d0", "nest/d1", "nest/d2",
                                      "nest/d3"};

void nested_spans(int depth) {
  if (depth >= 4) return;
  telem::Span s(kDepthName[depth]);
  nested_spans(depth + 1);
}

TEST_F(TelemetryTest, SpanNestingUnderContention) {
  telem::set_enabled(true);

  // 8 recording threads, each running the same 4-deep recursion, while
  // a drainer snapshots mid-flight: drain() must only ever see fully
  // published events (this is the TSan hot spot).
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const telem::TraceSnapshot mid = telem::drain();
      for (const telem::ThreadTrace& t : mid.threads) {
        for (const telem::SpanEvent& e : t.events) {
          ASSERT_NE(e.name, nullptr);
          ASSERT_LE(e.start_ns, e.end_ns);
        }
      }
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w] {
      telem::set_thread_name("worker " + std::to_string(w));
      for (int i = 0; i < kIters; ++i) nested_spans(0);
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true, std::memory_order_relaxed);
  drainer.join();
  telem::set_enabled(false);

  const telem::TraceSnapshot trace = telem::drain();
  EXPECT_EQ(trace.max_depth(), 4u);
  int worker_tracks = 0;
  for (const telem::ThreadTrace& t : trace.threads) {
    if (t.name.rfind("worker ", 0) != 0) continue;
    ++worker_tracks;
    EXPECT_EQ(t.dropped, 0u);
    ASSERT_EQ(t.events.size(), std::size_t{4} * kIters);
    for (const telem::SpanEvent& e : t.events) {
      // The recorded depth must agree with the name's nesting level.
      for (std::uint32_t d = 0; d < 4; ++d) {
        if (std::string(e.name) == kDepthName[d]) {
          EXPECT_EQ(e.depth, d);
        }
      }
    }
    // Spans close inner-first, so within each recursion the ring holds
    // d3, d2, d1, d0 — and every parent's interval contains its child's.
    for (std::size_t i = 0; i + 3 < t.events.size(); i += 4) {
      for (int d = 0; d < 3; ++d) {
        const telem::SpanEvent& child = t.events[i + static_cast<std::size_t>(d)];
        const telem::SpanEvent& parent =
            t.events[i + static_cast<std::size_t>(d) + 1];
        EXPECT_LE(parent.start_ns, child.start_ns);
        EXPECT_GE(parent.end_ns, child.end_ns);
        EXPECT_EQ(parent.depth + 1, child.depth);
      }
    }
  }
  EXPECT_EQ(worker_tracks, kThreads);
}

TEST_F(TelemetryTest, ChromeTraceExporterGoldenFile) {
  // Hand-built snapshot -> exact bytes. If this breaks, the exporter's
  // format changed: update the golden string only after loading the new
  // output in Perfetto.
  telem::TraceSnapshot trace;
  trace.epoch_ns = 1000;
  telem::ThreadTrace t;
  t.tid = 0;
  t.name = "main";
  t.dropped = 2;
  t.events.push_back(telem::SpanEvent{"flow", 1000, 501000, 0, 0});
  t.events.push_back(telem::SpanEvent{"flow/litho", 2500, 400000, 7, 1});
  trace.threads.push_back(std::move(t));

  telem::MetricsSnapshot metrics;
  metrics.counters["pool.steals"] = 3;
  metrics.gauges["snapshot.rtree_bytes"] = 45528;
  metrics.histograms["pool.queue_depth"] =
      telem::HistogramSnapshot{{0, 1, 2}, {4, 2, 1, 0}, 7};

  const std::string expected =
      "{\n"
      "\"traceEvents\": [\n"
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"dfmkit\"}},\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"main\"}},\n"
      "{\"name\": \"flow\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 0.000, \"dur\": 500.000, \"args\": {\"arg\": 0, "
      "\"depth\": 0}},\n"
      "{\"name\": \"flow/litho\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 1.500, \"dur\": 397.500, \"args\": {\"arg\": 7, "
      "\"depth\": 1}}\n"
      "],\n"
      "\"displayTimeUnit\": \"ms\",\n"
      "\"otherData\": {\"tool\": \"dfmkit\", \"dropped_events\": 2},\n"
      "\"metrics\": {\"counters\": {\"pool.steals\": 3}, "
      "\"gauges\": {\"snapshot.rtree_bytes\": 45528}, "
      "\"histograms\": {\"pool.queue_depth\": {\"bounds\": [0, 1, 2], "
      "\"counts\": [4, 2, 1, 0], \"total\": 7}}}\n"
      "}\n";
  EXPECT_EQ(telem::chrome_trace_json(trace, metrics), expected);
}

TEST_F(TelemetryTest, ExporterOrdersParentsBeforeChildren) {
  // Events arrive in close order (children first); the exporter must
  // re-sort by start time so viewers nest them correctly.
  telem::TraceSnapshot trace;
  telem::ThreadTrace t;
  t.tid = 3;
  t.name = "w";
  t.events.push_back(telem::SpanEvent{"child", 200, 300, 0, 1});
  t.events.push_back(telem::SpanEvent{"parent", 100, 400, 0, 0});
  trace.threads.push_back(std::move(t));
  const std::string json =
      telem::chrome_trace_json(trace, telem::MetricsSnapshot{});
  EXPECT_LT(json.find("\"parent\""), json.find("\"child\""));
}

TEST_F(TelemetryTest, RingOverflowDropsAndCounts) {
  telem::set_ring_capacity(8);
  telem::set_enabled(true);
  // A fresh thread registers a fresh (8-slot) ring.
  std::thread rec([] {
    telem::set_thread_name("overflow");
    for (int i = 0; i < 20; ++i) {
      telem::Span s("ring/span");
    }
  });
  rec.join();
  telem::set_enabled(false);

  const telem::TraceSnapshot trace = telem::drain();
  const telem::ThreadTrace* t = nullptr;
  for (const telem::ThreadTrace& tt : trace.threads) {
    if (tt.name == "overflow") t = &tt;
  }
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->events.size(), 8u);  // never wraps: first 8 survive
  EXPECT_EQ(t->dropped, 12u);
}

TEST_F(TelemetryTest, DisabledSpansRecordNothing) {
  {
    TELEM_SPAN("off/span");
  }
  EXPECT_EQ(telem::drain().total_events(), 0u);

  // A span born disabled stays inert even if recording starts before it
  // closes — half-open epochs never leak partial scopes.
  {
    telem::Span s("off/straddler");
    telem::set_enabled(true);
  }
  EXPECT_EQ(telem::drain().total_events(), 0u);
  {
    TELEM_SPAN("on/span");
  }
  telem::set_enabled(false);
  EXPECT_EQ(telem::drain().total_events(), 1u);
}

TEST_F(TelemetryTest, HistogramClampsIntoEdgeBuckets) {
  telem::Histogram h({0.0, 1.0, 4.0});
  h.observe(-100.0);  // below every bound: first bucket
  h.observe(0.0);     // at a bound: that bucket (v <= bounds[i])
  h.observe(3.0);
  h.observe(4.0);
  h.observe(1e9);  // above every bound: overflow bucket
  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST_F(TelemetryTest, MetricsRegistrySemantics) {
  // Kinds are separate namespaces; lookups are stable references.
  telem::Counter& c = telem::counter("reg/x");
  telem::Gauge& g = telem::gauge("reg/x");
  c.add(2);
  g.set(1.5);
  EXPECT_EQ(&telem::counter("reg/x"), &c);
  EXPECT_EQ(telem::counter("reg/x").value(), 2u);
  EXPECT_DOUBLE_EQ(telem::gauge("reg/x").value(), 1.5);

  // First registration fixes histogram bounds.
  telem::Histogram& h = telem::histogram("reg/h", {1.0, 2.0});
  telem::Histogram& h2 = telem::histogram("reg/h", {99.0});
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));

  // reset_metrics zeroes values but keeps registrations (and cached
  // references, which the TELEM_* macros hold in function statics).
  telem::reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  const telem::MetricsSnapshot snap = telem::metrics_snapshot();
  EXPECT_EQ(snap.counters.count("reg/x"), 1u);
  EXPECT_EQ(snap.gauges.count("reg/x"), 1u);
  EXPECT_EQ(snap.histograms.count("reg/h"), 1u);
}

TEST_F(TelemetryTest, HistogramQuantileEmptySnapshotIsZero) {
  const telem::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(empty, 0.5), 0.0);
  // All-zero counts are equally empty, whatever the bounds say.
  const telem::HistogramSnapshot zeros{{1.0}, {0, 0}, 0, 0.0};
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(zeros, 0.99), 0.0);
}

TEST_F(TelemetryTest, HistogramQuantileSingleBucketInterpolates) {
  // All 4 observations land in the one finite bucket (0, 10]; the
  // estimate interpolates linearly from the zero anchor.
  const telem::HistogramSnapshot h{{10.0}, {4, 0}, 4, 0.0};
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(h, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(h, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(h, 1.0), 10.0);
}

TEST_F(TelemetryTest, HistogramQuantileOverflowClampsToLastBound) {
  // Every observation blew past the finite bounds: the estimator must
  // not extrapolate, it reports the last bound it can vouch for.
  const telem::HistogramSnapshot h{{1.0, 2.0}, {0, 0, 5}, 5, 0.0};
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(h, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(h, 0.99), 2.0);
}

TEST_F(TelemetryTest, HistogramQuantileExactBucketBoundaries) {
  // Ranks that land exactly on a cumulative-count edge resolve to that
  // bucket's upper bound (frac == 1), matching Prometheus' estimator.
  const telem::HistogramSnapshot h{{1.0, 2.0, 4.0}, {2, 2, 4, 0}, 8, 0.0};
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(h, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(h, 0.50), 2.0);
  EXPECT_DOUBLE_EQ(telem::histogram_quantile(h, 1.00), 4.0);
}

TEST_F(TelemetryTest, SamplePercentileNearestRank) {
  EXPECT_DOUBLE_EQ(telem::sample_percentile({}, 0.5), 0.0);
  const std::vector<double> sorted{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(telem::sample_percentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(telem::sample_percentile(sorted, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(telem::sample_percentile(sorted, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(telem::sample_percentile(sorted, 1.0), 5.0);
}

TEST_F(TelemetryTest, PrometheusExpositionGoldenFile) {
  // Hand-built snapshot -> exact exposition bytes (text format 0.0.4).
  // If this breaks the scrape format changed: update the golden string
  // only after checking a real Prometheus accepts the new output.
  telem::MetricsSnapshot metrics;
  metrics.counters["pool.steals"] = 3;
  metrics.gauges["snapshot.rtree_bytes"] = 45528;
  metrics.histograms["service.op.flow.request_ms"] =
      telem::HistogramSnapshot{{1, 5, 10}, {4, 2, 1, 1}, 8, 42.5};

  const std::string expected =
      "# TYPE pool_steals counter\n"
      "pool_steals 3\n"
      "# TYPE snapshot_rtree_bytes gauge\n"
      "snapshot_rtree_bytes 45528\n"
      "# TYPE service_op_flow_request_ms histogram\n"
      "service_op_flow_request_ms_bucket{le=\"1\"} 4\n"
      "service_op_flow_request_ms_bucket{le=\"5\"} 6\n"
      "service_op_flow_request_ms_bucket{le=\"10\"} 7\n"
      "service_op_flow_request_ms_bucket{le=\"+Inf\"} 8\n"
      "service_op_flow_request_ms_sum 42.5\n"
      "service_op_flow_request_ms_count 8\n";
  EXPECT_EQ(telem::metrics_text(metrics), expected);
}

TEST_F(TelemetryTest, DroppedEventsSurfaceAsAGauge) {
  telem::set_ring_capacity(4);
  telem::set_enabled(true);
  std::thread rec([] {
    telem::set_thread_name("dropper");
    for (int i = 0; i < 10; ++i) {
      telem::Span s("drop/span");
    }
  });
  rec.join();
  telem::set_enabled(false);

  EXPECT_EQ(telem::dropped_events(), 6u);
  const telem::MetricsSnapshot snap = telem::metrics_snapshot();
  const auto it = snap.gauges.find("telemetry.dropped_events");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_DOUBLE_EQ(it->second, 6.0);
  // ... and through it, the JSON metrics block every export carries.
  EXPECT_NE(telem::metrics_json(snap).find("\"telemetry.dropped_events\": 6"),
            std::string::npos);
}

TEST_F(TelemetryTest, ChromeExporterEmitsSpanIdsOnlyWhenSet) {
  telem::TraceSnapshot trace;
  telem::ThreadTrace t;
  t.tid = 0;
  t.name = "main";
  t.events.push_back(telem::SpanEvent{"plain", 100, 200, 0, 0});
  t.events.push_back(telem::SpanEvent{"linked", 300, 400, 0, 0, 7, 3});
  trace.threads.push_back(std::move(t));
  const std::string json =
      telem::chrome_trace_json(trace, telem::MetricsSnapshot{});
  // The id-less span keeps its historical bytes (no span_id key at all);
  // the linked span carries both ids for trace-merge to stitch on.
  EXPECT_NE(json.find("\"span_id\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"parent_span\": 3"), std::string::npos);
  const std::size_t plain = json.find("\"plain\"");
  const std::size_t linked = json.find("\"linked\"");
  ASSERT_NE(plain, std::string::npos);
  ASSERT_NE(linked, std::string::npos);
  EXPECT_EQ(json.find("span_id", plain), json.find("span_id", linked));
}

TEST_F(TelemetryTest, SpanIdsAreUniqueAndNonZero) {
  const std::uint64_t a = telem::next_span_id();
  const std::uint64_t b = telem::next_span_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TelemetryTest, RecordingDoesNotChangeTheFlowReport) {
  DesignParams p;
  p.seed = 7;
  p.rows = 2;
  p.cells_per_row = 4;
  p.routes = 8;
  const Library lib = generate_design(p);
  LayerMap layers;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    layers.emplace(k, lib.flatten(lib.top_cells()[0], k));
  }
  DfmFlowOptions opt;
  opt.threads = 2;
  opt.run_litho = false;  // keep the suite fast; litho is covered by o1

  const DfmFlowReport off = run_dfm_flow(LayoutSnapshot{layers}, opt);
  telem::set_enabled(true);
  const DfmFlowReport on = run_dfm_flow(LayoutSnapshot{layers}, opt);
  telem::set_enabled(false);
  EXPECT_TRUE(reports_equivalent(off, on));
  EXPECT_GT(telem::drain().total_events(), 0u);
}

// The counter keys of a metrics snapshot do not depend on which counters
// fired. A flow at 4 threads may or may not steal a task, and it fires
// no fix-loop or service counter, yet two runs report the same keys as
// a snapshot taken before either: every counter the toolkit records is
// registered at zero up front, so `flow --json` outputs compare by value.
TEST_F(TelemetryTest, FlowRunsReportTheSameCounterKeys) {
  DesignParams p;
  p.seed = 7;
  p.rows = 2;
  p.cells_per_row = 4;
  p.routes = 8;
  const Library lib = generate_design(p);
  DfmFlowOptions opt;
  opt.threads = 4;
  opt.run_litho = false;
  const auto counter_keys = [] {
    std::set<std::string> keys;
    for (const auto& [name, value] : telem::metrics_snapshot().counters) {
      keys.insert(name);
    }
    return keys;
  };
  const std::set<std::string> before = counter_keys();
  for (const char* name : {"pool.steals", "fix.accepted", "service.requests",
                           "flow.units_total"}) {
    EXPECT_EQ(before.count(name), 1u) << name;
  }
  std::set<std::string> runs[2];
  for (std::set<std::string>& keys : runs) {
    telem::reset_metrics();
    (void)run_dfm_flow(lib, lib.top_cell(), opt);
    keys = counter_keys();
  }
  EXPECT_EQ(runs[0], before);
  EXPECT_EQ(runs[1], before);
  EXPECT_EQ(telem::metrics_snapshot().counters.at("fix.accepted"), 0u);
}

/// A small session layout and litho options quick enough for a unit
/// test; one thread, so every span lands on the calling thread.
struct SessionFixture {
  LayerMap layers;
  DfmFlowOptions options;
  LayoutDelta edit;

  SessionFixture() {
    DesignParams p;
    p.seed = 7;
    p.rows = 2;
    p.cells_per_row = 4;
    p.routes = 8;
    const Library lib = generate_design(p);
    for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
      layers.emplace(k, lib.flatten(lib.top_cells()[0], k));
    }
    options.threads = 1;
    options.model.sigma = 20;
    options.model.px = 10;
    options.litho_tile = 6000;
    const Point c = lib.bbox(lib.top_cells()[0]).center();
    edit.add(layers::kMetal1, Rect{c.x - 100, c.y - 100, c.x + 100, c.y + 100});
  }
};

/// (span name, parent span name) for every span at depth <= 1; a root's
/// parent is "". The parent is the depth-0 span on the same thread whose
/// interval holds the child.
std::set<std::pair<std::string, std::string>> top_span_pairs(
    const telem::TraceSnapshot& trace) {
  std::set<std::pair<std::string, std::string>> out;
  for (const telem::ThreadTrace& t : trace.threads) {
    for (const telem::SpanEvent& e : t.events) {
      if (e.depth > 1) continue;
      std::string parent;
      for (const telem::SpanEvent& r : t.events) {
        if (e.depth == 1 && r.depth == 0 && r.start_ns <= e.start_ns &&
            e.end_ns <= r.end_ns) {
          parent = r.name;
        }
      }
      out.emplace(e.name, parent);
    }
  }
  return out;
}

TEST_F(TelemetryTest, IncrementalRunHasTheColdSpanTree) {
  const SessionFixture f;
  telem::set_enabled(true);
  DfmFlowSession session(LayerMap(f.layers), f.options);
  telem::set_enabled(false);
  const auto cold = top_span_pairs(telem::drain());
  telem::clear();

  telem::set_enabled(true);
  session.apply(f.edit);
  telem::set_enabled(false);
  const auto incremental = top_span_pairs(telem::drain());

  // The derive is the incremental run's "snapshot" pass, and every pass
  // nests under the "flow" root exactly as in the cold run.
  EXPECT_EQ(cold, incremental);
  const std::pair<std::string, std::string> want[] = {
      {"flow", ""},
      {"flow/snapshot", "flow"},
      {"flow/drc_plus", "flow"},
      {"flow/litho", "flow"},
      {"flow/caa_yield", "flow"}};
  for (const auto& pair : want) {
    EXPECT_EQ(incremental.count(pair), 1u) << pair.first;
  }
}

TEST_F(TelemetryTest, PassTimesAreTheirSpans) {
  const SessionFixture f;
  // Every "flow/<pass>" span lasts exactly its PassTrace.ms and the
  // "flow" root exactly total_ms: both come from the same clock reads.
  const auto check = [&](const DfmFlowReport& rep) {
    EXPECT_LE(rep.trace.passes_ms(), rep.trace.total_ms);
    std::map<std::string, double> span_ms;
    for (const telem::ThreadTrace& t : telem::drain().threads) {
      for (const telem::SpanEvent& e : t.events) {
        span_ms[e.name] = static_cast<double>(e.end_ns - e.start_ns) / 1e6;
      }
    }
    ASSERT_EQ(span_ms.count("flow"), 1u);
    EXPECT_EQ(span_ms["flow"], rep.trace.total_ms);
    for (const PassTrace& p : rep.trace.passes) {
      ASSERT_EQ(span_ms.count("flow/" + p.name), 1u) << p.name;
      EXPECT_EQ(span_ms["flow/" + p.name], p.ms) << p.name;
    }
  };
  telem::set_enabled(true);
  DfmFlowSession session(LayerMap(f.layers), f.options);
  telem::set_enabled(false);
  check(session.report());
  telem::clear();

  telem::set_enabled(true);
  session.apply(f.edit);
  telem::set_enabled(false);
  check(session.report());
}

}  // namespace
}  // namespace dfm

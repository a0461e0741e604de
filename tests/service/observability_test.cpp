// The service observability plane (protocol v3): trace-context
// propagation from client to server spans, the metrics op's Prometheus
// text + JSON expositions with per-op latency histograms, the flight
// recorder drained through the debug op, the slow-request threshold,
// and trace-merge stitching a client + server Chrome trace pair into
// one timeline with the server span nested under its client parent.
#include "service/server.h"

#include "core/telemetry.h"
#include "gdsii/gdsii.h"
#include "gen/generators.h"
#include "service/client.h"
#include "service/trace_merge.h"

#include "temp_file.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <unistd.h>

namespace dfm::service {
namespace {

namespace telem = ::dfm::telemetry;

const std::vector<std::string> kFastPasses = {"drc", "nets", "vias", "caa"};

std::string demo_gds() {
  static const TempFile design = [] {
    DesignParams p;
    p.seed = 3;
    p.rows = 2;
    p.cells_per_row = 5;
    p.routes = 10;
    const std::string out = ::testing::TempDir() + "dfm_obs_demo_" +
                            std::to_string(::getpid()) + ".gds";
    write_gdsii_file(generate_design(p), out);
    return TempFile{out};
  }();
  return design.path();
}

ServiceOptions base_options(const std::string& tag) {
  ServiceOptions opt;
  opt.unix_path = ::testing::TempDir() + "dfm_obs_" + tag + "_" +
                  std::to_string(::getpid()) + ".sock";
  opt.workers = 2;
  opt.pool_threads = 2;
  opt.flow.passes = kFastPasses;
  return opt;
}

/// Leaves telemetry the way it found it: other service tests assert on
/// byte-identical wire traffic, which an open recording epoch would
/// perturb (a traced client adds trace_id fields to its requests).
class Observability : public ::testing::Test {
 protected:
  void SetUp() override {
    telem::set_enabled(false);
    telem::clear();
    telem::reset_metrics();
  }
  void TearDown() override {
    telem::set_enabled(false);
    telem::clear();
    telem::reset_metrics();
  }
};

TEST_F(Observability, TraceContextPropagatesAndIsEchoed) {
  ServiceServer server(base_options("trace"));
  server.start();

  telem::set_enabled(true);
  ServiceClient client = ServiceClient::connect_unix(
      server.options().unix_path);
  const Json opened = client.open(demo_gds());
  telem::set_enabled(false);

  // The client minted a stable per-connection trace id...
  ASSERT_EQ(client.trace_id().size(), 32u);
  // ...and the server echoed its span alongside the payload.
  const Json* trace = opened.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->get_int("span_id", 0), 0);
  EXPECT_GE(trace->get_int("end_ns", 0), trace->get_int("start_ns", -1));

  // The flight recorder captured the same trace id and parent span.
  const Json debug = client.debug();
  const Json* requests = debug.find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_FALSE(requests->as_array().empty());
  const Json& rec = requests->as_array().front();  // newest first
  EXPECT_EQ(rec.get_string("op", ""), "open");
  EXPECT_EQ(rec.get_string("trace_id", ""), client.trace_id());
  EXPECT_GT(rec.get_int("parent_span", 0), 0);

  // The client-side span carries the id the server parented under.
  const telem::TraceSnapshot snap = telem::drain();
  bool found = false;
  for (const telem::ThreadTrace& t : snap.threads) {
    for (const telem::SpanEvent& e : t.events) {
      if (std::string(e.name) != "client/request") continue;
      found = true;
      EXPECT_EQ(static_cast<std::int64_t>(e.id),
                rec.get_int("parent_span", 0));
    }
  }
  EXPECT_TRUE(found);

  client.close_session(opened.get_string("session", ""));
  server.request_shutdown();
  server.wait();
}

TEST_F(Observability, UntracedClientSendsNoTraceFields) {
  ServiceServer server(base_options("untraced"));
  server.start();
  ServiceClient client = ServiceClient::connect_unix(
      server.options().unix_path);
  client.ping();
  EXPECT_TRUE(client.trace_id().empty());
  const Json opened = client.open(demo_gds());
  // No recording epoch -> no trace context on the wire, no echo back.
  EXPECT_EQ(opened.find("trace"), nullptr);
  client.close_session(opened.get_string("session", ""));
  server.request_shutdown();
  server.wait();
}

TEST_F(Observability, MetricsOpExposesPerOpHistograms) {
  ServiceServer server(base_options("metrics"));
  server.start();
  ServiceClient client = ServiceClient::connect_unix(
      server.options().unix_path);
  const Json opened = client.open(demo_gds());
  client.flow(opened.get_string("session", ""));

  const Json metrics = client.metrics();
  ASSERT_TRUE(metrics.get_bool("ok", false));
  const std::string text = metrics.get_string("text", "");
  const Json exposition = Json::parse(metrics.get_string("json", "{}"));

  // Per-op latency series, in both expositions of the one snapshot.
  EXPECT_NE(text.find("# TYPE service_op_open_request_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("service_op_flow_request_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("service_op_open_queue_wait_ms_count 1"),
            std::string::npos);
  const Json* hists = exposition.find("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* open_hist = hists->find("service.op.open.request_ms");
  ASSERT_NE(open_hist, nullptr);
  EXPECT_EQ(open_hist->get_int("total", 0), 1);
  EXPECT_EQ(open_hist->find("bounds")->as_array().size() + 1,
            open_hist->find("counts")->as_array().size());

  client.close_session(opened.get_string("session", ""));
  server.request_shutdown();
  server.wait();
}

TEST_F(Observability, DebugOpDrainsFlightRecorderNewestFirst) {
  ServiceOptions opt = base_options("flight");
  opt.flight_records = 8;
  ServiceServer server(std::move(opt));
  server.start();
  ServiceClient client = ServiceClient::connect_unix(
      server.options().unix_path);

  const Json opened = client.open(demo_gds());
  const std::string session = opened.get_string("session", "");
  client.flow(session);
  // A failing request is recorded with its error code as the outcome.
  EXPECT_THROW(client.flow("no-such-session"), ServiceError);
  client.close_session(session);

  const Json debug = client.debug();
  ASSERT_TRUE(debug.get_bool("ok", false));
  EXPECT_EQ(debug.get_int("capacity", 0), 8);
  EXPECT_EQ(debug.get_int("recorded", 0), 4);
  const Json* requests = debug.find("requests");
  ASSERT_NE(requests, nullptr);
  const Json::Array& recs = requests->as_array();
  ASSERT_EQ(recs.size(), 4u);
  // Newest first: close, failed flow, flow, open.
  EXPECT_EQ(recs[0].get_string("op", ""), "close");
  EXPECT_EQ(recs[1].get_string("op", ""), "flow");
  EXPECT_EQ(recs[1].get_string("outcome", ""), errc::kUnknownSession);
  EXPECT_EQ(recs[2].get_string("op", ""), "flow");
  EXPECT_EQ(recs[2].get_string("outcome", ""), "ok");
  EXPECT_EQ(recs[3].get_string("op", ""), "open");
  for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
    EXPECT_GT(recs[i].get_int("seq", 0), recs[i + 1].get_int("seq", 0));
  }
  // The "n" knob clamps to what was asked for.
  const Json two = client.debug(2);
  EXPECT_EQ(two.find("requests")->as_array().size(), 2u);

  server.request_shutdown();
  server.wait();
}

TEST_F(Observability, SlowRequestThresholdCountsAndLogs) {
  ServiceOptions opt = base_options("slow");
  opt.enable_debug_ops = true;  // the sleep op
  opt.slow_request_ms = 5;
  ServiceServer server(std::move(opt));
  server.start();
  ServiceClient client = ServiceClient::connect_unix(
      server.options().unix_path);

  client.call_ok(Json(Json::Object{{"op", Json("sleep")}, {"ms", Json(20)}}));
  const Json stats = client.stats();
  EXPECT_EQ(stats.get_int("slow_requests", 0), 1);
  // A fast request does not trip the threshold.
  client.call_ok(Json(Json::Object{{"op", Json("sleep")}, {"ms", Json(0)}}));
  EXPECT_EQ(client.stats().get_int("slow_requests", 0), 1);

  server.request_shutdown();
  server.wait();
}

TEST_F(Observability, TraceMergeNestsServerUnderClientSpan) {
  // Synthetic client trace: one traced request span, id 7.
  telem::TraceSnapshot client_snap;
  client_snap.epoch_ns = 0;
  telem::ThreadTrace ct;
  ct.tid = 0;
  ct.name = "client";
  ct.events.push_back(
      telem::SpanEvent{"client/request", 1'000'000, 5'000'000, 1, 0, 7, 0});
  client_snap.threads.push_back(std::move(ct));

  // Synthetic server trace on a clock ~95 ms ahead: the request span
  // parents under client span 7 and wraps one pass span.
  telem::TraceSnapshot server_snap;
  server_snap.epoch_ns = 0;
  telem::ThreadTrace st;
  st.tid = 1;
  st.name = "exec 0";
  st.events.push_back(telem::SpanEvent{"flow/drc", 100'500'000, 101'500'000,
                                       0, 1});
  st.events.push_back(telem::SpanEvent{"service/request", 100'000'000,
                                       102'000'000, 1, 0, 9, 7});
  server_snap.threads.push_back(std::move(st));

  const std::string client_json =
      telem::chrome_trace_json(client_snap, telem::MetricsSnapshot{});
  const std::string server_json =
      telem::chrome_trace_json(server_snap, telem::MetricsSnapshot{});

  TraceMergeStats stats;
  const std::string merged =
      merge_chrome_traces(client_json, server_json, &stats);

  EXPECT_EQ(stats.client_events, 1u);
  EXPECT_EQ(stats.server_events, 2u);
  EXPECT_EQ(stats.linked_requests, 1u);
  EXPECT_EQ(stats.nested, 1u);
  // Midpoint alignment: client center 3 ms, server center 101 ms.
  EXPECT_NEAR(stats.offset_us, -98'000.0, 1.0);

  // The merged trace parses, keeps both processes, and links them with
  // a flow arrow pair.
  const Json doc = Json::parse(merged);
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  double client_start = 0, client_end = 0, server_start = 0, server_end = 0;
  int arrows = 0;
  for (const Json& e : events->as_array()) {
    const std::string ph = e.get_string("ph", "");
    if (ph == "s" || ph == "f") ++arrows;
    if (ph != "X") continue;
    const std::string name = e.get_string("name", "");
    const double ts = e.find("ts")->as_double();
    const double dur = e.find("dur")->as_double();
    if (name == "client/request") {
      EXPECT_EQ(e.get_int("pid", 0), 1);
      client_start = ts;
      client_end = ts + dur;
    } else if (name == "service/request") {
      EXPECT_EQ(e.get_int("pid", 0), 2);
      server_start = ts;
      server_end = ts + dur;
    }
  }
  EXPECT_EQ(arrows, 2);
  // The acceptance gate: after clock alignment the server request span
  // (and with it every pass span it wraps) sits inside the client span.
  EXPECT_LE(client_start, server_start);
  EXPECT_LE(server_end, client_end);
}

TEST_F(Observability, TraceMergeManyStitchesDaemonTraces) {
  // Client trace: three traced requests (span ids 7, 8 and 9), each
  // answered by a different daemon.
  telem::TraceSnapshot client_snap;
  client_snap.epoch_ns = 0;
  telem::ThreadTrace ct;
  ct.tid = 0;
  ct.name = "client";
  ct.events.push_back(
      telem::SpanEvent{"client/request", 1'000'000, 5'000'000, 1, 0, 7, 0});
  ct.events.push_back(
      telem::SpanEvent{"client/request", 6'000'000, 9'000'000, 1, 0, 8, 0});
  ct.events.push_back(
      telem::SpanEvent{"client/request", 10'000'000, 14'000'000, 1, 0, 9, 0});
  client_snap.threads.push_back(std::move(ct));

  // Each daemon on its own clock, recording service/request parented
  // under one client span.
  const auto daemon_json = [](std::uint64_t epoch_shift_ns,
                              std::uint64_t parent) {
    telem::TraceSnapshot snap;
    snap.epoch_ns = 0;
    telem::ThreadTrace wt;
    wt.tid = 1;
    wt.name = "executor";
    wt.events.push_back(telem::SpanEvent{
        "service/request", epoch_shift_ns, epoch_shift_ns + 2'000'000, 1, 0,
        99, parent});
    snap.threads.push_back(std::move(wt));
    return telem::chrome_trace_json(snap, telem::MetricsSnapshot{});
  };

  TraceMergeStats stats;
  const std::string merged = merge_chrome_traces_many(
      telem::chrome_trace_json(client_snap, telem::MetricsSnapshot{}),
      {daemon_json(50'000'000, 7), daemon_json(300'000'000, 8),
       daemon_json(20'000'000, 9)},
      &stats);

  EXPECT_EQ(stats.client_events, 3u);
  EXPECT_EQ(stats.server_events, 3u);
  EXPECT_EQ(stats.linked_requests, 3u);
  // Per-file clock alignment nests each daemon span in its request.
  EXPECT_EQ(stats.nested, 3u);

  const Json doc = Json::parse(merged);
  std::vector<std::int64_t> daemon_pids;
  int arrows = 0;
  for (const Json& e : doc.find("traceEvents")->as_array()) {
    const std::string ph = e.get_string("ph", "");
    if (ph == "s" || ph == "f") ++arrows;
    if (ph != "X" || e.get_string("name", "") != "service/request") continue;
    daemon_pids.push_back(e.get_int("pid", 0));
  }
  // Daemon i lands on pid 2 + i, never on the client's pid 1.
  EXPECT_EQ(daemon_pids, (std::vector<std::int64_t>{2, 3, 4}));
  EXPECT_EQ(arrows, 6);
}

TEST_F(Observability, TraceMergeWithNoLinksStillMerges) {
  telem::TraceSnapshot a;
  a.epoch_ns = 0;
  telem::ThreadTrace t;
  t.tid = 0;
  t.name = "main";
  t.events.push_back(telem::SpanEvent{"flow", 0, 1'000'000, 0, 0});
  a.threads.push_back(std::move(t));
  const std::string json =
      telem::chrome_trace_json(a, telem::MetricsSnapshot{});

  TraceMergeStats stats;
  const std::string merged = merge_chrome_traces(json, json, &stats);
  EXPECT_EQ(stats.linked_requests, 0u);
  EXPECT_EQ(stats.offset_us, 0.0);
  EXPECT_NE(Json::parse(merged).find("traceEvents"), nullptr);
}

}  // namespace
}  // namespace dfm::service

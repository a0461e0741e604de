// S2 — served-flow latency vs the direct library call.
//
// The service wraps DfmFlowSession behind a socket; this bench measures
// what that costs and what stays true. An in-process server is driven
// by the load generator at 1/4/8 concurrent clients in two modes: cold
// (every request is a fresh open, i.e. a full cold flow) and inc (a
// warm session absorbing small edits through the incremental splicer).
// The direct-library baseline runs the same work with no socket.
//
// Claims under test:
//  * a served report is byte-identical to the direct library call;
//  * served incremental edits are >= 3x faster than served cold flows
//    at 8 clients — the session/service machinery preserves the
//    incremental win (queue depth telemetry shows where time goes).
//
// Prints one parseable "SERVICE ..." line per (clients, mode) cell;
// tools/run_benches.sh folds them into BENCH_flow.json.
#include "bench_common.h"

#include "core/dfm_flow.h"
#include "core/incremental.h"
#include "gdsii/gdsii.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/server.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

using namespace dfm;
using namespace dfm::bench;

namespace {

// Finer litho tiles than the sign-off default, same reasoning as
// bench_f3: the tile is the litho splice granule, and a local edit
// should re-simulate a neighbourhood, not half the chip.
constexpr Coord kLithoTile = 2000;
constexpr std::int64_t kPatch = 200;

DfmFlowOptions flow_options() {
  DfmFlowOptions o;
  o.litho_tile = kLithoTile;
  return o;
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t trim = v.size() / 4;
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = trim; i < v.size() - trim; ++i, ++n) sum += v[i];
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

}  // namespace

int main() {
  // The CLI demo design: big enough that litho dominates a cold flow,
  // small enough that 8 clients' sessions fit comfortably.
  DesignParams p;
  p.seed = 42;
  p.name = "bench_s2";
  p.rows = 4;
  p.cells_per_row = 10;
  p.routes = 30;
  const Library lib = generate_design(p);
  const std::uint32_t top = lib.top_cell();
  const std::string gds_path =
      "/tmp/dfm_bench_s2_" + std::to_string(::getpid()) + ".gds";
  write_gdsii_file(lib, gds_path);

  const Rect bb = lib.bbox(top);
  const Point c{(bb.lo.x + bb.hi.x) / 2, (bb.lo.y + bb.hi.y) / 2};

  // --- Direct-library baselines (no socket, no queue) ---------------------
  std::vector<double> direct_cold_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch t;
    const DfmFlowReport rep_cold = run_dfm_flow(lib, top, flow_options());
    direct_cold_ms.push_back(t.ms());
    (void)rep_cold;
  }

  DfmFlowSession direct(lib, top, flow_options());
  const std::string direct_report =
      flow_report_canonical_json(direct.report());
  std::vector<double> direct_inc_ms;
  for (int rep = 0; rep < 6; ++rep) {
    LayoutDelta delta;
    const Rect patch{c.x, c.y, c.x + kPatch, c.y + kPatch};
    if (rep % 2 == 0) {
      delta.add(layers::kMetal1, patch);
    } else {
      delta.remove(layers::kMetal1, patch);
    }
    Stopwatch t;
    direct.apply(delta);
    direct_inc_ms.push_back(t.ms());
  }

  // --- The server under test ----------------------------------------------
  service::ServiceOptions sopt;
  sopt.unix_path = "/tmp/dfm_bench_s2_" + std::to_string(::getpid()) + ".sock";
  sopt.workers = 8;
  sopt.pool_threads = 0;  // hardware concurrency, like the baseline
  sopt.max_sessions = 12;
  sopt.max_queue = 32;
  sopt.flow = flow_options();
  service::ServiceServer server(std::move(sopt));
  server.start();

  // Byte-equality gate: a served cold report vs the direct call.
  bool identical = false;
  {
    service::ServiceClient probe =
        service::ServiceClient::connect_unix(server.options().unix_path);
    const service::Json opened = probe.open(gds_path);
    identical = opened.get_string("report", "") == direct_report;
    probe.close_session(opened.get_string("session", ""));
  }

  Table table("S2: served flow latency (unix socket, 8 workers)");
  table.set_header({"clients", "mode", "p50 ms", "p95 ms", "trim ms",
                    "direct ms", "queue max"});

  const double direct_cold = trimmed_mean(direct_cold_ms);
  const double direct_inc = trimmed_mean(direct_inc_ms);
  double served_cold_8 = 0;
  double served_inc_8 = 0;

  for (const unsigned clients : {1u, 4u, 8u}) {
    for (const std::string mode : {"cold", "inc"}) {
      service::LoadGenOptions lopt;
      lopt.unix_path = server.options().unix_path;
      lopt.clients = clients;
      lopt.requests_per_client = mode == "cold" ? 3u : 6u;
      lopt.mode = mode;
      lopt.layout_path = gds_path;
      lopt.patch = kPatch;
      const service::LoadGenReport rep = service::run_load(lopt);
      const std::uint64_t queue_max = server.stats().max_queue_depth;
      const double direct_ms = mode == "cold" ? direct_cold : direct_inc;
      if (clients == 8 && mode == "cold") served_cold_8 = rep.trimmed_mean_ms;
      if (clients == 8 && mode == "inc") served_inc_8 = rep.trimmed_mean_ms;

      table.add_row({std::to_string(clients), mode, Table::num(rep.p50_ms, 1),
                     Table::num(rep.p95_ms, 1),
                     Table::num(rep.trimmed_mean_ms, 1),
                     Table::num(direct_ms, 1), std::to_string(queue_max)});
      std::printf(
          "SERVICE clients=%u mode=%s requests=%llu p50_ms=%.3f p95_ms=%.3f "
          "p99_ms=%.3f trimmed_mean_ms=%.3f direct_ms=%.3f queue_max=%llu "
          "backpressure=%llu errors=%llu\n",
          clients, mode.c_str(),
          static_cast<unsigned long long>(rep.requests), rep.p50_ms,
          rep.p95_ms, rep.p99_ms, rep.trimmed_mean_ms, direct_ms,
          static_cast<unsigned long long>(queue_max),
          static_cast<unsigned long long>(rep.backpressure),
          static_cast<unsigned long long>(rep.errors));
    }
  }

  server.request_shutdown();
  server.wait();
  ::unlink(gds_path.c_str());

  table.print();
  const double speedup =
      served_inc_8 > 0 ? served_cold_8 / served_inc_8 : 0;
  std::printf("\nserved report byte-identical to direct library call: %s\n",
              identical ? "yes" : "NO");
  std::printf("served incremental vs served cold at 8 clients: %.1fx\n",
              speedup);
  std::printf(
      "verdict: the service is a HIT when served reports stay "
      "byte-identical\nand the incremental win survives the socket "
      "(>= 3x at 8 clients).\n");
  return (identical && speedup >= 3.0) ? 0 : 1;
}

#include "layers.h"

#include "core/drc_plus.h"
#include "core/recommended_rules.h"
#include "litho/fft.h"
#include "litho/prefilter.h"
#include "service/server.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include <unistd.h>

namespace perfbench {

void PassAcc::add(const FlowTrace& trace, double wall_ms) {
  ++ops;
  op_ms += wall_ms;
  for (const PassTrace& p : trace.passes) {
    passes_ms += p.ms;
    pass_ms[p.name] += p.ms;
    units_total += p.total_units;
    units_dirty += p.dirty_units;
    if (p.name == "drc_plus") {
      drc_total += p.total_units;
      drc_dirty += p.dirty_units;
    } else if (p.name == "litho") {
      litho_ms += p.ms;
      litho_recomputed += p.dirty_units;
      litho_ran = true;
    }
  }
}

void PassAcc::merge(const PassAcc& o) {
  ops += o.ops;
  op_ms += o.op_ms;
  passes_ms += o.passes_ms;
  for (const auto& [name, ms] : o.pass_ms) pass_ms[name] += ms;
  units_total += o.units_total;
  units_dirty += o.units_dirty;
  drc_total += o.drc_total;
  drc_dirty += o.drc_dirty;
  litho_ms += o.litho_ms;
  litho_recomputed += o.litho_recomputed;
  litho_ran = litho_ran || o.litho_ran;
  derive_ms += o.derive_ms;
  derives += o.derives;
}

void time_derive(const LayoutSnapshot& base, const LayoutDelta& delta,
                 PassAcc& acc, std::uint64_t op) {
  const auto span = tracer().span("snapshot.derive", op);
  Stopwatch w;
  const IncrementalSnapshot derived(base, delta);
  acc.derive_ms += w.ms();
  ++acc.derives;
}

const DfmFlowReport& timed_apply(DfmFlowSession& session,
                                 const LayoutDelta& delta, PassAcc* acc,
                                 std::uint64_t op, double* ms) {
  if (acc != nullptr) time_derive(session.snapshot(), delta, *acc, op);
  const auto span = tracer().span("incremental.apply", op);
  Stopwatch w;
  const DfmFlowReport& rep = session.apply(delta);
  *ms = w.ms();
  if (acc != nullptr) acc->add(rep.trace, *ms);
  return rep;
}

void ServiceAcc::merge(const ServiceAcc& o) {
  edit_ms.insert(edit_ms.end(), o.edit_ms.begin(), o.edit_ms.end());
  read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
  overhead_ms.insert(overhead_ms.end(), o.overhead_ms.begin(),
                     o.overhead_ms.end());
  queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
  requests += o.requests;
  reply_bytes += o.reply_bytes;
  backpressure += o.backpressure;
}

service::Json served_call(service::ServiceClient& client, service::Json req,
                          bool traced, ServiceAcc& acc, std::uint64_t op,
                          double* rtt_ms) {
  if (traced) req.set("trace_id", service::Json("00000000000000000000000070657266"));
  const std::string op_name = req.get_string("op", "");
  const auto span = tracer().span(op_name == "edit"   ? "service.edit"
                                  : op_name == "flow" ? "service.flow"
                                                      : "service.request",
                                  op);
  const std::uint64_t start = now_ns();
  service::Json reply = client.call(std::move(req));
  const std::uint64_t end = now_ns();
  *rtt_ms = static_cast<double>(end - start) / 1e6;
  ++acc.requests;
  acc.reply_bytes += reply.dump().size();
  if (!reply.get_bool("ok", false) &&
      reply.get_string("error", "") == service::errc::kQueueFull) {
    ++acc.backpressure;
  }
  if (const service::Json* t = reply.find("trace")) {
    const auto s_start = static_cast<std::uint64_t>(t->get_int("start_ns", 0));
    const auto s_end = static_cast<std::uint64_t>(t->get_int("end_ns", 0));
    const double server_ms = static_cast<double>(s_end - s_start) / 1e6;
    const double queue_ms =
        static_cast<double>(t->get_int("queue_ns", 0)) / 1e6;
    acc.queue_ms.push_back(queue_ms);
    acc.overhead_ms.push_back(std::max(0.0, *rtt_ms - queue_ms - server_ms));
    // The server's span on the benchmark's clock: it ended at most one
    // reply-transfer before `end`, so anchor it there.
    const std::uint64_t dur = s_end - s_start;
    tracer().record("service.server", end - std::min(dur, end - start), end,
                    op);
  }
  return reply;
}

namespace {

// ---- the layer walk --------------------------------------------------------

struct WalkOut {
  double snapshot_ms = 0;
  double litho_ms = 0;
  std::size_t tiles = 0;
  std::size_t skipped = 0;
  SnapshotCacheStats cache;
  std::vector<std::pair<std::string, double>> rows;  // pass, ms
};

// Calls each flow pass's public entry on one snapshot, in flow order, and
// checks each result against the flow report `ref`. Litho runs even when
// the workload's flow leaves it off, so the walk always measures it.
WalkOut layer_walk(const Library& lib, const DfmFlowOptions& o,
                   const DfmFlowReport& ref, Result& res) {
  const auto walk_span = tracer().span("walk");
  WalkOut out;
  const PassPool pool(o);
  const Tech& t = o.tech;
  const auto timed = [&](const char* name, auto&& fn) {
    const auto span = tracer().span(name);
    Stopwatch w;
    fn();
    out.rows.emplace_back(name, w.ms());
  };

  std::unique_ptr<LayoutSnapshot> snap;
  timed("snapshot.build", [&] {
    snap = std::make_unique<LayoutSnapshot>(lib, lib.top_cells()[0],
                                            pool.get());
  });
  out.snapshot_ms = out.rows.back().second;

  timed("drc.run", [&] {
    const DrcPlusEngine engine(DrcPlusDeck::standard(t));
    DrcPlusOptions dopt;
    dopt.pool = pool.get();
    if (!(engine.run(*snap, dopt) == ref.drcplus)) {
      res.fail("walk: DrcPlusEngine::run differs from the flow report");
    }
  });
  timed("recommended.run", [&] {
    RecommendedOptions ropt;
    ropt.pool = pool.get();
    if (!(check_recommended(*snap, standard_recommended_rules(t), ropt) ==
          ref.recommended)) {
      res.fail("walk: check_recommended differs from the flow report");
    }
  });
  timed("litho.tiled", [&] {
    HotspotSimOptions sim{pool.get()};
    sim.model = o.model;
    sim.edge_tolerance = o.litho_edge_tolerance;
    sim.tile = o.litho_tile;
    sim.fast = o.litho_fast;
    sim.kernels = std::make_shared<KernelSpectrumCache>();
    const NormalizedRegion m1 = snap->layer(layers::kMetal1);
    const HotspotTileSim tiles =
        simulate_hotspots_tiled(*snap, layers::kMetal1, m1.bbox(), sim);
    out.tiles = tiles.tiles.size();
    out.skipped = tiles.skipped;
    if (ref.trace.find("litho") != nullptr && !(tiles.merged() == ref.hotspots)) {
      res.fail("walk: simulate_hotspots_tiled differs from the flow report");
    }
  });
  out.litho_ms = out.rows.back().second;
  timed("dpt.run", [&] {
    const Decomposition d = decompose_dpt(*snap, layers::kMetal1, t);
    if (!(d == ref.dpt) || !(score_decomposition(d, t) == ref.dpt_score)) {
      res.fail("walk: decompose_dpt differs from the flow report");
    }
  });
  timed("vias.run", [&] {
    if (!(double_vias(*snap, t) == ref.vias)) {
      res.fail("walk: double_vias differs from the flow report");
    }
  });
  Netlist nets;
  timed("connectivity.run", [&] {
    nets = extract_nets(*snap, standard_stack());
    if (!(nets == ref.nets) ||
        !(find_floating_cuts(*snap, standard_stack()) == ref.floating_cuts)) {
      res.fail("walk: extract_nets/find_floating_cuts differ from the report");
    }
  });
  timed("caa.run", [&] {
    // The flow's defect-yield arithmetic, over the public CAA entries.
    std::vector<Region> pieces;
    std::vector<int> net_of;
    for (std::size_t ni = 0; ni < nets.nets.size(); ++ni) {
      if (const Region* piece = nets.nets[ni].on(layers::kMetal2)) {
        pieces.push_back(*piece);
        net_of.push_back(static_cast<int>(ni));
      }
    }
    const auto m2_shorts = [&](Coord s) {
      return short_critical_area_nets(pieces, net_of, s);
    };
    const double eca_nm2 = average_critical_area(m2_shorts, o.defects, 16);
    const double shorts =
        layer_lambda(snap->layer(layers::kMetal1).region(), o.defects, true) +
        o.defects.d0 * (eca_nm2 / 1e14);
    const double opens =
        layer_lambda(snap->layer(layers::kMetal2).region(), o.defects, false);
    if (shorts != ref.lambda_shorts || opens != ref.lambda_opens ||
        poisson_yield(shorts + opens) != ref.defect_yield) {
      res.fail("walk: critical-area yield differs from the flow report");
    }
  });
  out.cache = snap->cache_stats();
  return out;
}

// ---- probes ----------------------------------------------------------------

// Three add/remove pairs (M1, M2, Via1) on `session`; each remove must
// restore `base`.
PassAcc edit_probe(DfmFlowSession& session, const Library& lib,
                   std::uint64_t seed, Result& res) {
  const auto span = tracer().span("probe.edits");
  const DfmFlowReport base = session.report();
  PatchStream stream(lib, seed);
  PassAcc acc;
  double ms = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Patch p = stream.next();
    timed_apply(session, add_delta(p), &acc, 2 * i + 1, &ms);
    timed_apply(session, remove_delta(p), &acc, 2 * i + 2, &ms);
    if (!reports_equivalent(session.report(), base)) {
      res.fail("edit probe: removing a patch did not restore the report");
    }
  }
  return acc;
}

// Plans on `session`'s report, then applies and rolls back the first two
// candidates with a real change; the report must come back exactly.
FixAcc fix_probe(DfmFlowSession& session, Result& res) {
  const auto span = tracer().span("probe.fix");
  FixAcc acc;
  const DfmFlowReport before = session.report();
  Stopwatch w;
  FixPlan plan;
  {
    const auto plan_span = tracer().span("fix.plan");
    plan = FixEngine::run(session.snapshot(), session.report(), FixOptions{},
                          session.options().tech);
  }
  acc.plan_ms = w.ms();
  acc.plans = 1;
  acc.proposed = plan.proposals.size();
  std::uint64_t op = 0;
  for (const FixProposal& prop : plan.proposals) {
    if (acc.apply_ms.size() == 2) break;
    const LayoutDelta norm = normalize_delta(prop.delta, session.snapshot());
    if (norm.empty()) continue;
    ++op;
    double ms = 0;
    {
      const auto s = tracer().span("fix.apply", op);
      timed_apply(session, norm, nullptr, op, &ms);
    }
    acc.apply_ms.push_back(ms);
    {
      const auto s = tracer().span("fix.rollback", op);
      timed_apply(session, inverse_delta(norm), nullptr, op, &ms);
    }
    acc.rollback_ms.push_back(ms);
    if (!reports_equivalent(session.report(), before)) {
      res.fail("fix probe: rollback did not restore the report");
    }
  }
  return acc;
}

// One client on a one-worker server over the workload's GDSII: two
// served edit cycles.
ServiceAcc service_probe(const RunConfig& cfg, const Library& lib,
                         const DfmFlowOptions& o, const std::string& gds,
                         Result& res) {
  const auto span = tracer().span("probe.service");
  service::ServiceOptions so;
  so.unix_path = cfg.out_dir + "/probe-" + std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  so.pool_threads = bench_threads();
  so.max_sessions = 2;
  so.flow = o;
  service::ServiceServer server(std::move(so));
  server.start();
  ServiceAcc acc;
  try {
    service::ServiceClient client =
        service::ServiceClient::connect_unix(server.options().unix_path);
    double ms = 0;
    const service::Json opened = served_call(
        client, service::Json(service::Json::Object{
                    {"op", service::Json("open")}, {"path", service::Json(gds)}}),
        true, acc, 0, &ms);
    const std::string sid = opened.get_string("session", "");
    PatchStream stream(lib, cfg.seed);
    for (std::uint64_t i = 0; i < 2; ++i) {
      for (const std::string& r :
           served_cycle(client, sid, stream.next(), true, acc, i + 1)) {
        if (r == "error") res.fail("service probe: a request failed");
      }
    }
    client.close_session(sid);
  } catch (const std::exception& e) {
    res.fail(std::string("service probe: ") + e.what());
  }
  server.request_shutdown();
  server.wait();
  return acc;
}

double per(double total, std::size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

std::vector<std::string> served_cycle(service::ServiceClient& client,
                                      const std::string& session,
                                      const Patch& p, bool traced,
                                      ServiceAcc& acc, std::uint64_t op) {
  std::vector<std::string> reports;
  const auto edit = [&](bool remove) {
    service::Json::Array edits{service::ServiceClient::make_edit(
        p.layer_name, p.rect.lo.x, p.rect.lo.y, p.rect.hi.x, p.rect.hi.y,
        remove)};
    double ms = 0;
    const service::Json r = served_call(
        client,
        service::Json(service::Json::Object{
            {"op", service::Json("edit")},
            {"session", service::Json(session)},
            {"edits", service::Json(std::move(edits))}}),
        traced, acc, op, &ms);
    acc.edit_ms.push_back(ms);
    reports.push_back(r.get_bool("ok", false) ? r.get_string("report", "")
                                              : std::string("error"));
  };
  const auto read = [&] {
    double ms = 0;
    const service::Json r = served_call(
        client,
        service::Json(service::Json::Object{
            {"op", service::Json("flow")}, {"session", service::Json(session)}}),
        traced, acc, op, &ms);
    acc.read_ms.push_back(ms);
    reports.push_back(r.get_bool("ok", false) ? r.get_string("report", "")
                                              : std::string("error"));
  };
  edit(false);
  read();
  edit(true);
  read();
  return reports;
}

double time_first_calibration(const DfmFlowOptions& o) {
  const auto span = tracer().span("litho.calibration");
  HotspotSimOptions sim;
  sim.model = o.model;
  sim.edge_tolerance = o.litho_edge_tolerance;
  sim.tile = o.litho_tile;
  sim.fast = o.litho_fast;
  Stopwatch w;
  (void)resolve_litho_calibration(sim);
  return w.ms();
}

namespace {

// Every per-layer metric the traced run emits, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"gdsii.read_ms", "ms"},
      {"gdsii.file_bytes", "bytes"},
      {"snapshot.build_ms", "ms"},
      {"snapshot.cache_builds", "count"},
      {"snapshot.cache_hits", "count"},
      {"snapshot.derive_ms", "ms"},
      {"drc.run_ms", "ms"},
      {"drc.dirty_units", "count"},
      {"drc.total_units", "count"},
      {"recommended.run_ms", "ms"},
      {"litho.tiled_ms", "ms"},
      {"litho.tiles", "count"},
      {"litho.tiles_skipped", "count"},
      {"litho.calibration_ms", "ms"},
      {"litho.resim_ms", "ms"},
      {"litho.tiles_recomputed", "count"},
      {"dpt.run_ms", "ms"},
      {"connectivity.run_ms", "ms"},
      {"vias.run_ms", "ms"},
      {"caa.run_ms", "ms"},
      {"incremental.apply_ms", "ms"},
      {"incremental.driver_ms", "ms"},
      {"incremental.reuse_ratio", "ratio"},
      {"incremental.total_units", "count"},
      {"parallel.cpu_util", "ratio"},
      {"parallel.threads", "count"},
      {"fix.plan_ms", "ms"},
      {"fix.apply_ms", "ms"},
      {"fix.rollback_ms", "ms"},
      {"fix.accepted", "count"},
      {"fix.proposed", "count"},
      {"service.overhead_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.read_ms", "ms"},
      {"service.reply_bytes", "bytes"},
      {"service.backpressure", "count"},
      {"service.requests", "count"},
  };
  return kUnits;
}

}  // namespace

void finish_traced_run(const RunConfig& cfg, const Library& lib,
                       const DfmFlowOptions& o, const DfmFlowReport& ref,
                       const std::string& gds_path, LayerInputs& in,
                       Result& res) {
  const WalkOut walk = layer_walk(lib, o, ref, res);

  // Probes for the layers this workload's loop does not reach, run on
  // the workload's own design. The probe session always simulates litho,
  // so litho.resim_ms is measured even where the workload turns it off.
  PassAcc litho_edits = in.edits;
  const bool need_edits = !in.loop_has_edits || !in.edits.litho_ran;
  if (need_edits || !in.loop_has_fix) {
    DfmFlowOptions po = o;
    po.run_litho = true;
    DfmFlowSession session(lib, lib.top_cells()[0], po);
    if (need_edits) {
      const PassAcc probe = edit_probe(session, lib, cfg.seed, res);
      if (!in.loop_has_edits) in.edits = probe;
      litho_edits = probe;
    }
    if (!in.loop_has_fix) in.fix = fix_probe(session, res);
  }
  if (!in.loop_has_service) {
    in.service = service_probe(cfg, lib, o, gds_path, res);
  }

  const PassAcc& l = in.loop;
  const PassAcc& e = in.edits;
  auto& m = res.layers;
  const auto set = [&](const char* name, double v) { m[name].value = v; };
  set("gdsii.read_ms", in.read_ms);
  set("gdsii.file_bytes", static_cast<double>(in.file_bytes));
  set("snapshot.build_ms", walk.snapshot_ms);
  set("snapshot.cache_builds", static_cast<double>(walk.cache.builds()));
  set("snapshot.cache_hits", static_cast<double>(walk.cache.hits()));
  set("snapshot.derive_ms", per(e.derive_ms, e.derives));
  set("drc.run_ms", per(l.pass_ms.count("drc_plus") ? l.pass_ms.at("drc_plus") : 0, l.ops));
  set("drc.dirty_units", per(static_cast<double>(e.drc_dirty), e.ops));
  set("drc.total_units", per(static_cast<double>(e.drc_total), e.ops));
  const auto pass = [&](const char* name) {
    const auto it = l.pass_ms.find(name);
    return per(it == l.pass_ms.end() ? 0.0 : it->second, l.ops);
  };
  set("recommended.run_ms", pass("recommended"));
  set("litho.tiled_ms", walk.litho_ms);
  set("litho.tiles", static_cast<double>(walk.tiles));
  set("litho.tiles_skipped", static_cast<double>(walk.skipped));
  set("litho.calibration_ms", in.calibration_ms);
  set("litho.resim_ms", per(litho_edits.litho_ms, litho_edits.ops));
  set("litho.tiles_recomputed",
      per(static_cast<double>(litho_edits.litho_recomputed), litho_edits.ops));
  set("dpt.run_ms", pass("dpt"));
  set("connectivity.run_ms", pass("connectivity"));
  set("vias.run_ms", pass("via_doubling"));
  set("caa.run_ms", pass("caa_yield"));
  set("incremental.apply_ms", per(e.op_ms, e.ops));
  set("incremental.driver_ms", per(e.op_ms - e.passes_ms, e.ops));
  set("incremental.reuse_ratio",
      e.units_total == 0 ? 0.0
                         : 1.0 - static_cast<double>(e.units_dirty) /
                                     static_cast<double>(e.units_total));
  set("incremental.total_units", per(static_cast<double>(e.units_total), e.ops));
  const double threads = static_cast<double>(bench_threads());
  set("parallel.cpu_util",
      in.wall_s > 0 ? in.cpu_s / (in.wall_s * threads) : 0.0);
  set("parallel.threads", threads);
  set("fix.plan_ms", per(in.fix.plan_ms, in.fix.plans));
  set("fix.apply_ms", mean(in.fix.apply_ms));
  set("fix.rollback_ms", mean(in.fix.rollback_ms));
  set("fix.accepted", static_cast<double>(in.fix.accepted));
  set("fix.proposed", static_cast<double>(in.fix.proposed));
  set("service.overhead_ms", quantile(in.service.overhead_ms, 0.5));
  set("service.queue_wait_ms", quantile(in.service.queue_ms, 0.5));
  set("service.read_ms", quantile(in.service.read_ms, 0.5));
  set("service.reply_bytes",
      per(static_cast<double>(in.service.reply_bytes), in.service.requests));
  set("service.backpressure", static_cast<double>(in.service.backpressure));
  set("service.requests", static_cast<double>(in.service.requests));
  for (const auto& [name, unit] : layer_metric_units()) m[name].unit = unit;

  // Where the time went, by the benchmark's own spans.
  std::printf("\nlayer walk (public pass entries on one snapshot, flow order):\n");
  double walk_passes = 0;
  for (const auto& [name, ms] : walk.rows) {
    std::printf("  %-18s %10.3f ms\n", name.c_str(), ms);
    walk_passes += ms;
  }
  std::printf("  %-18s %10.3f ms  (flow wall %.3f ms; the gap is the flow "
              "driver's own cost: %.3f ms)\n",
              "sum", walk_passes, ref.trace.total_ms,
              ref.trace.total_ms - walk_passes);
  std::vector<std::pair<std::string, double>> self;
  for (const auto& kv : tracer().self_ms()) self.push_back(kv);
  std::sort(self.begin(), self.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("\nself time by span (ms):\n");
  for (const auto& [name, ms] : self) {
    std::printf("  %-22s %12.3f\n", name.c_str(), ms);
  }
  const std::string span_path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                                std::to_string(cfg.seed) + "-spans.json";
  tracer().write(span_path);
  std::printf("spans recorded: %zu\n", tracer().spans().size());
}

}  // namespace perfbench

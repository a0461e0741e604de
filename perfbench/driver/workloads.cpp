#include "workloads.h"

#include "layers.h"

#include "gdsii/gdsii.h"
#include "service/server.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include <unistd.h>

namespace perfbench {

namespace {

std::string stem(const RunConfig& cfg) {
  return cfg.workload + "-seed" + std::to_string(cfg.seed) + "-" +
         std::to_string(::getpid());
}

Library read_design(const std::string& path, LayerInputs& in) {
  const auto span = tracer().span("gdsii.read");
  Stopwatch w;
  Library lib = read_gdsii_file(path);
  in.read_ms = w.ms();
  return lib;
}

// Runs `op(i)` back to back until `seconds` of wall time have passed,
// and at least `min_ops` times.
template <class Op>
void loop_for(double seconds, std::size_t min_ops, Op&& op) {
  Stopwatch w;
  for (std::size_t i = 0; i < min_ops || w.s() < seconds; ++i) op(i);
}

// The measuring phases of a run. Untraced: one phase of cfg.seconds.
// Traced: an untraced half, whose samples stay the run's end-to-end
// numbers, then a traced half; the difference is the tracing overhead.
// `phase(seconds, traced, samples)` runs one phase.
template <class Phase>
void run_phases(const RunConfig& cfg, Result& res, LayerInputs& in,
                Phase&& phase) {
  if (!cfg.trace) {
    phase(cfg.seconds, false, res.op_ms);
    return;
  }
  tracer().set_on(false);
  phase(cfg.seconds / 2, false, res.op_ms);
  tracer().set_on(true);
  std::vector<double> traced;
  const double cpu0 = process_cpu_s();
  Stopwatch w;
  phase(cfg.seconds / 2, true, traced);
  in.wall_s = w.s();
  in.cpu_s = process_cpu_s() - cpu0;
  const double p50 = quantile(res.op_ms, 0.5);
  const double p50_traced = quantile(traced, 0.5);
  std::printf(
      "tracing overhead: op p50 %.3f ms untraced (n=%zu), %.3f ms traced "
      "(n=%zu), %+.2f%%\n",
      p50, res.op_ms.size(), p50_traced, traced.size(),
      p50 > 0 ? 100.0 * (p50_traced - p50) / p50 : 0.0);
}

double per_second(std::size_t n, const std::vector<double>& ms) {
  double total = 0;
  for (const double v : ms) total += v;
  return total > 0 ? 1000.0 * static_cast<double>(n) / total : 0.0;
}

void add_named(Result& res, const std::string& name, double value,
               const char* unit) {
  res.named.push_back({name, Metric{value, unit}});
}

// The report counts and composite that perfbench/meta.json pins for the
// default design.
std::string report_summary_json(const DfmFlowReport& rep) {
  std::size_t recommended = 0;
  for (const auto& [rule, hits] : rep.recommended.counts) {
    recommended += static_cast<std::size_t>(hits);
  }
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"drc_violations\": %zu, \"pattern_matches\": %zu, "
      "\"recommended_hits\": %zu, \"hotspots\": %zu, \"dpt_nodes\": %d, "
      "\"nets\": %zu, \"floating_cuts\": %zu, \"single_vias\": %zu, "
      "\"composite\": %.17g}",
      rep.drcplus.drc.violations.size(), rep.drcplus.pattern_match_count(),
      recommended, rep.hotspots.size(), static_cast<int>(rep.dpt.nodes),
      rep.nets.size(), rep.floating_cuts.size(),
      static_cast<std::size_t>(rep.vias.singles_before),
      rep.scorecard.composite());
  return buf;
}

// ---- signoff_cold ----------------------------------------------------------

void signoff_cold(const RunConfig& cfg, Result& res) {
  const auto [gds, bytes] = write_design(
      scaling_design(cfg.design_seed, cfg.tiny ? 2 : 8), cfg.out_dir, stem(cfg));
  DfmFlowOptions o;
  o.threads = bench_threads();
  LayerInputs in;
  in.file_bytes = bytes;
  if (cfg.trace) in.calibration_ms = time_first_calibration(o);

  Stopwatch setup;
  const Library lib = read_design(gds, in);
  const std::uint32_t top = lib.top_cells()[0];
  DfmFlowReport first;
  {
    const auto span = tracer().span("flow.run");
    first = run_dfm_flow(lib, top, o);
  }
  res.setup_s = setup.s();
  res.peak_rss_mb = peak_rss_mb();
  if (cfg.setup_only) return;
  res.summary = report_summary_json(first);

  run_phases(cfg, res, in, [&](double secs, bool traced, std::vector<double>& ms) {
    loop_for(secs, 3, [&](std::size_t i) {
      Stopwatch w;
      DfmFlowReport rep;
      {
        const auto span = tracer().span("flow.run", i + 1);
        rep = run_dfm_flow(lib, top, o);
      }
      const double t = w.ms();
      ms.push_back(t);
      ++res.attempted;
      if (traced) in.loop.add(rep.trace, t);
      if (!reports_equivalent(rep, first)) {
        res.fail("signoff_cold: flow " + std::to_string(i + 1) +
                 " differs from the first");
      }
    });
  });
  res.ops_per_s = per_second(res.op_ms.size(), res.op_ms);
  add_named(res, "cold_flow_p50_ms", quantile(res.op_ms, 0.5), "ms");
  add_named(res, "flows_per_s", res.ops_per_s, "1/s");
  if (cfg.trace) finish_traced_run(cfg, lib, o, first, gds, in, res);
}

// ---- eco_edits -------------------------------------------------------------

void eco_edits(const RunConfig& cfg, Result& res) {
  const auto [gds, bytes] = write_design(
      scaling_design(cfg.design_seed, cfg.tiny ? 2 : 8), cfg.out_dir, stem(cfg));
  DfmFlowOptions o;
  o.threads = bench_threads();
  LayerInputs in;
  in.file_bytes = bytes;
  if (cfg.trace) in.calibration_ms = time_first_calibration(o);

  Stopwatch setup;
  const Library lib = read_design(gds, in);
  std::unique_ptr<DfmFlowSession> session;
  {
    const auto span = tracer().span("session.open");
    session = std::make_unique<DfmFlowSession>(lib, lib.top_cells()[0], o);
  }
  res.setup_s = setup.s();
  res.peak_rss_mb = peak_rss_mb();
  if (cfg.setup_only) return;

  const DfmFlowReport base = session->report();
  PatchStream stream(lib, cfg.seed);
  std::vector<double> by_layer[3];  // M1, M2, Via1 edit times
  std::uint64_t pairs = 0;
  run_phases(cfg, res, in, [&](double secs, bool traced, std::vector<double>& ms) {
    PassAcc* acc = traced ? &in.loop : nullptr;
    // Whole rotations only (an M1, an M2 and a Via1 pair), so every run
    // mixes the layers in the same proportion.
    loop_for(secs, 2, [&](std::size_t) {
      for (int r = 0; r < 3; ++r) {
        const Patch p = stream.next();
        const std::uint64_t op = 2 * pairs + 1;
        double t = 0;
        timed_apply(*session, add_delta(p), acc, op, &t);
        ms.push_back(t);
        if (!traced) by_layer[pairs % 3].push_back(t);
        timed_apply(*session, remove_delta(p), acc, op + 1, &t);
        ms.push_back(t);
        if (!traced) by_layer[pairs % 3].push_back(t);
        res.attempted += 2;
        ++pairs;
        if (!reports_equivalent(session->report(), base)) {
          res.fail("eco_edits: removing patch " + std::to_string(pairs) +
                   " did not restore the base report");
        }
      }
    });
  });
  in.edits = in.loop;
  in.loop_has_edits = true;

  // Outside timing: leave one patch in, then the session must equal a
  // cold flow over the edited layout.
  {
    const Patch p = stream.next();
    session->apply(add_delta(p));
    LayerMap edited = flat_layers(lib);
    add_delta(p).apply(edited);
    if (!reports_equivalent(session->report(), cold_flow(std::move(edited), o))) {
      res.fail("eco_edits: session differs from a cold flow of the edited layout");
    }
  }

  res.ops_per_s = per_second(res.op_ms.size(), res.op_ms);
  add_named(res, "edit_p50_ms", quantile(res.op_ms, 0.5), "ms");
  add_named(res, "edit_p90_ms", quantile(res.op_ms, 0.9), "ms");
  add_named(res, "edits_per_s", res.ops_per_s, "1/s");
  const char* names[3] = {"m1", "m2", "via1"};
  for (int l = 0; l < 3; ++l) {
    add_named(res, std::string("edit_p50_ms.") + names[l],
              quantile(by_layer[l], 0.5), "ms");
  }
  if (cfg.trace) finish_traced_run(cfg, lib, o, base, gds, in, res);
}

// ---- fix_loop --------------------------------------------------------------

// bench_f5's flow: litho off, so the loop re-runs only the fast passes.
DfmFlowOptions fix_flow_options() {
  DfmFlowOptions o;
  o.threads = bench_threads();
  o.model.sigma = 20;
  o.model.px = 10;
  o.litho_tile = 8000;
  o.run_litho = false;
  return o;
}

// Replays FixEngine::fix's single round through public calls, with the
// recorded decisions: plan, then for each proposal normalize, apply, and
// roll back the rejected ones. Must end on `fixed`.
void replay_fix(const Library& lib, const DfmFlowOptions& o,
                const FixOptions& fo, const FixOutcome& ref,
                const DfmFlowReport& fixed, LayerInputs& in, Result& res) {
  const auto span = tracer().span("fix.replay");
  DfmFlowSession session(lib, lib.top_cells()[0], o);
  FixAcc& acc = in.fix;
  FixPlan plan;
  {
    const auto plan_span = tracer().span("fix.plan");
    Stopwatch w;
    plan = FixEngine::run(session.snapshot(), session.report(), fo,
                          session.options().tech);
    acc.plan_ms += w.ms();
    ++acc.plans;
  }
  acc.proposed += plan.proposals.size();
  if (plan.proposals.size() != ref.steps.size()) {
    res.fail("fix_loop: replay planned a different number of proposals");
    return;
  }
  for (std::size_t k = 0; k < plan.proposals.size(); ++k) {
    const FixStep& step = ref.steps[k];
    const LayoutDelta norm =
        normalize_delta(plan.proposals[k].delta, session.snapshot());
    if (norm.empty()) continue;
    const double pre = session.report().scorecard.composite();
    double ms = 0;
    {
      const auto s = tracer().span("fix.apply", k + 1);
      timed_apply(session, norm, &in.loop, k + 1, &ms);
    }
    acc.apply_ms.push_back(ms);
    if (session.report().scorecard.composite() - pre != step.gain) {
      res.fail("fix_loop: replayed gain differs at proposal " +
               std::to_string(k + 1));
    }
    if (step.accepted) {
      ++acc.accepted;
    } else {
      const auto s = tracer().span("fix.rollback", k + 1);
      timed_apply(session, inverse_delta(norm), &in.loop, k + 1, &ms);
      acc.rollback_ms.push_back(ms);
    }
  }
  if (!reports_equivalent(session.report(), fixed)) {
    res.fail("fix_loop: the public-call replay does not reproduce the fix");
  }
}

void fix_loop(const RunConfig& cfg, Result& res) {
  const auto [gds, bytes] = write_design(
      cfg.tiny ? defect_design(cfg.design_seed, 1, 2, 3, 2)
               : defect_design(cfg.design_seed, 2, 8, 16, 10),
      cfg.out_dir, stem(cfg));
  const DfmFlowOptions o = fix_flow_options();
  FixOptions fo;
  fo.max_iters = 1;
  LayerInputs in;
  in.file_bytes = bytes;
  if (cfg.trace) in.calibration_ms = time_first_calibration(o);

  Stopwatch setup;
  const Library lib = read_design(gds, in);
  const std::uint32_t top = lib.top_cells()[0];
  std::unique_ptr<DfmFlowSession> session;
  {
    const auto span = tracer().span("session.open");
    session = std::make_unique<DfmFlowSession>(lib, top, o);
  }
  res.setup_s = setup.s();
  res.peak_rss_mb = peak_rss_mb();
  if (cfg.setup_only) return;

  const DfmFlowReport base = session->report();
  std::string ref_outcome;
  FixOutcome ref;
  DfmFlowReport fixed;
  std::size_t proposals = 0;
  std::vector<double> loop_ms;
  run_phases(cfg, res, in, [&](double secs, bool, std::vector<double>& ms) {
    loop_for(secs, 1, [&](std::size_t i) {
      // Every loop starts from a fresh session, opened outside timing.
      if (!session) session = std::make_unique<DfmFlowSession>(lib, top, o);
      Stopwatch w;
      FixOutcome out;
      {
        const auto span = tracer().span("fix.loop", i + 1);
        out = FixEngine::fix(*session, fo);
      }
      const double t = w.ms();
      loop_ms.push_back(t);
      proposals += static_cast<std::size_t>(out.proposed);
      ms.push_back(t / std::max(1, out.proposed));
      res.attempted += static_cast<std::uint64_t>(out.proposed);
      const std::string bytes_out = fix_outcome_json(out);
      if (ref_outcome.empty()) {
        ref_outcome = bytes_out;
        ref = out;
        fixed = session->report();
        // Outside timing: the fixed report equals a cold flow over the
        // fixed layout.
        LayerMap edited = flat_layers(lib);
        out.applied.apply(edited);
        if (!reports_equivalent(fixed, cold_flow(std::move(edited), o))) {
          res.fail("fix_loop: fixed report differs from a cold flow");
        }
      } else {
        if (bytes_out != ref_outcome) {
          res.fail("fix_loop: fix_outcome_json differs between loops");
        }
        if (!reports_equivalent(session->report(), fixed)) {
          res.fail("fix_loop: fixed report differs between loops");
        }
      }
      session.reset();
    });
  });
  res.ops_per_s = per_second(proposals, loop_ms);
  add_named(res, "fix_proposals_per_s", res.ops_per_s, "1/s");
  add_named(res, "proposal_p50_ms", quantile(res.op_ms, 0.5), "ms");
  add_named(res, "fix_loop_p50_ms", quantile(loop_ms, 0.5), "ms");
  add_named(res, "fix_proposed", ref.proposed, "count");
  add_named(res, "fix_accepted", ref.accepted, "count");
  if (cfg.trace) {
    replay_fix(lib, o, fo, ref, fixed, in, res);
    in.loop_has_fix = true;
    in.edits = in.loop;
    in.loop_has_edits = true;
    finish_traced_run(cfg, lib, o, base, gds, in, res);
  }
}

// ---- served_sessions -------------------------------------------------------

constexpr int kClients = 4;

// The patch sequence every client walks, generated on demand. Client c
// starts c patches in, so the clients' layer rotations run out of phase,
// and each patch needs one direct replay however many clients applied it.
class SharedPatches {
 public:
  SharedPatches(const Library& lib, std::uint64_t seed)
      : stream_(lib, seed) {}

  Patch at(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    while (patches_.size() <= i) patches_.push_back(stream_.next());
    return patches_[i];
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return patches_.size();
  }

 private:
  std::mutex mu_;
  PatchStream stream_;
  std::vector<Patch> patches_;
};

struct ServedClient {
  service::ServiceClient client;
  std::string session;
  std::string opened;                // the open reply's report
  std::size_t next = 0;              // next patch index
  std::vector<std::size_t> cycles;   // patch index of each cycle
  std::vector<std::string> replies;  // four per cycle
};

void served_sessions(const RunConfig& cfg, Result& res) {
  const auto [gds, bytes] = write_design(
      scaling_design(cfg.design_seed, cfg.tiny ? 1 : 2), cfg.out_dir, stem(cfg));
  DfmFlowOptions o;
  o.threads = bench_threads();
  LayerInputs in;
  in.file_bytes = bytes;
  if (cfg.trace) in.calibration_ms = time_first_calibration(o);
  // The in-process copy feeds the patch stream and the direct session the
  // gate compares with; the server reads the file itself.
  const Library lib = read_design(gds, in);

  service::ServiceOptions so;
  so.unix_path = cfg.out_dir + "/" + stem(cfg) + ".sock";
  so.workers = kClients;
  so.pool_threads = bench_threads();
  so.max_sessions = 2 * kClients;
  so.max_queue = 8 * kClients;
  so.flow = o;
  const std::string sock = so.unix_path;

  Stopwatch setup;
  service::ServiceServer server(std::move(so));
  server.start();
  std::vector<ServedClient> clients(kClients);
  {
    std::vector<std::thread> openers;
    for (std::size_t c = 0; c < kClients; ++c) {
      openers.emplace_back([&, c] {
        ServedClient& sc = clients[c];
        sc.client = service::ServiceClient::connect_unix(sock);
        const service::Json r = sc.client.open(gds);
        sc.session = r.get_string("session", "");
        sc.opened = r.get_string("report", "");
        sc.next = c;
      });
    }
    for (std::thread& t : openers) t.join();
  }
  res.setup_s = setup.s();
  res.peak_rss_mb = peak_rss_mb();

  SharedPatches patches(lib, cfg.seed);
  if (!cfg.setup_only) {
    ServiceAcc traced_acc;
    std::uint64_t requests = 0;
    double phase_s = 0;
    run_phases(cfg, res, in, [&](double secs, bool traced, std::vector<double>& ms) {
      std::vector<ServiceAcc> accs(kClients);
      Stopwatch wall;
      std::vector<std::thread> loops;
      for (std::size_t c = 0; c < kClients; ++c) {
        loops.emplace_back([&, c] {
          ServedClient& sc = clients[c];
          // Whole rotations only: an M1, an M2 and a Via1 cycle.
          loop_for(secs, 1, [&](std::size_t) {
            for (int r = 0; r < 3; ++r) {
              const std::size_t idx = sc.next++;
              sc.cycles.push_back(idx);
              for (std::string& rep :
                   served_cycle(sc.client, sc.session, patches.at(idx), traced,
                                accs[c], (c << 32) | idx)) {
                sc.replies.push_back(std::move(rep));
              }
            }
          });
        });
      }
      for (std::thread& t : loops) t.join();
      const double secs_taken = wall.s();
      ServiceAcc all;
      for (const ServiceAcc& a : accs) all.merge(a);
      ms.insert(ms.end(), all.edit_ms.begin(), all.edit_ms.end());
      res.attempted += all.requests;
      if (traced) {
        traced_acc = all;
      } else {
        requests = all.requests;
        phase_s = secs_taken;
      }
    });
    res.ops_per_s = phase_s > 0 ? static_cast<double>(requests) / phase_s : 0;
    for (ServedClient& sc : clients) sc.client.close_session(sc.session);
    in.service = traced_acc;
    in.loop_has_service = true;
  }
  for (ServedClient& sc : clients) sc.client.close();
  server.request_shutdown();
  server.wait();
  std::filesystem::remove(sock);
  if (cfg.setup_only) return;

  // Outside timing: every served session must equal a direct
  // DfmFlowSession fed the same deltas. The service returns the canonical
  // report form; every cycle starts from the base layout, so one direct
  // add/remove per patch gives the expected replies of every client.
  DfmFlowSession direct(lib, lib.top_cells()[0], o);
  const DfmFlowReport base = direct.report();
  const std::string base_json = flow_report_canonical_json(base);
  // The canonical form carries each run's pass schedule and unit counts,
  // so the expected remove reply is the direct remove's, not the base's.
  std::vector<std::string> added(patches.size());
  std::vector<std::string> removed(patches.size());
  PassAcc* acc = cfg.trace ? &in.loop : nullptr;
  for (std::size_t j = 0; j < added.size(); ++j) {
    const Patch p = patches.at(j);
    double ms = 0;
    added[j] =
        flow_report_canonical_json(timed_apply(direct, add_delta(p), acc, j, &ms));
    removed[j] = flow_report_canonical_json(
        timed_apply(direct, remove_delta(p), acc, j, &ms));
    if (!reports_equivalent(direct.report(), base)) {
      res.fail("served_sessions: removing patch " + std::to_string(j) +
               " did not restore the direct session");
    }
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    const ServedClient& sc = clients[c];
    if (sc.opened != base_json) {
      res.fail("served_sessions: client " + std::to_string(c) +
               " open report differs from the direct session");
    }
    for (std::size_t k = 0; k < sc.cycles.size(); ++k) {
      const std::string& want_add = added[sc.cycles[k]];
      const std::string& want_remove = removed[sc.cycles[k]];
      if (sc.replies[4 * k] != want_add || sc.replies[4 * k + 1] != want_add ||
          sc.replies[4 * k + 2] != want_remove ||
          sc.replies[4 * k + 3] != want_remove) {
        res.fail("served_sessions: client " + std::to_string(c) + " cycle " +
                 std::to_string(k) + " differs from the direct session");
      }
    }
  }
  add_named(res, "served_edit_p50_ms", quantile(res.op_ms, 0.5), "ms");
  add_named(res, "served_edit_p90_ms", quantile(res.op_ms, 0.9), "ms");
  add_named(res, "served_ops_per_s", res.ops_per_s, "1/s");
  if (cfg.trace) {
    in.edits = in.loop;
    in.loop_has_edits = true;
    finish_traced_run(cfg, lib, o, base, gds, in, res);
  }
}

}  // namespace

Result run_workload(const RunConfig& cfg) {
  Result res;
  std::filesystem::create_directories(cfg.out_dir);
  if (cfg.workload == "signoff_cold") {
    signoff_cold(cfg, res);
  } else if (cfg.workload == "eco_edits") {
    eco_edits(cfg, res);
  } else if (cfg.workload == "fix_loop") {
    fix_loop(cfg, res);
  } else if (cfg.workload == "served_sessions") {
    served_sessions(cfg, res);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
  return res;
}

bool gate_selftest() {
  DfmFlowOptions o;
  o.threads = bench_threads();
  o.run_litho = false;
  const Library lib = scaling_design(3, 1);
  const DfmFlowReport rep = run_dfm_flow(lib, lib.top_cells()[0], o);
  if (rep.drcplus.drc.violations.empty()) return false;
  DfmFlowReport moved = rep;
  Rect& r = moved.drcplus.drc.violations.front().marker;
  r = Rect{r.lo.x + 1, r.lo.y, r.hi.x + 1, r.hi.y};
  const DfmFlowReport copy = rep;
  return reports_equivalent(rep, copy) && !reports_equivalent(rep, moved);
}

}  // namespace perfbench

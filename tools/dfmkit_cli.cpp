// dfmkit — command-line driver for the library.
//
//   dfmkit [--threads N] <command> ...
//
//   dfmkit gen <out.gds> [seed]        generate a demo design
//   dfmkit info <in.gds>               library summary
//   dfmkit drc <in.gds> [top]          run the standard DRC deck
//   dfmkit drcplus <in.gds> [top]      DRC + pattern rules
//   dfmkit flow [--json <path>] [--trace-out <path>] [--passes a,b,...]
//               [--litho-fast auto|off]
//               [--memory-budget <size>] [--stream]
//               [--edit <spec>]... <in.gds> [top]
//                                      full DFM flow + scoreboard; --json
//                                      writes the per-pass trace +
//                                      scorecard as machine-readable JSON
//                                      (schema documented in DESIGN.md).
//                                      --trace-out records hierarchical
//                                      telemetry spans and writes a
//                                      Chrome trace-event file (open in
//                                      Perfetto / chrome://tracing).
//                                      --passes runs a subset (drc, litho,
//                                      vias, nets, caa, ...); --litho-fast
//                                      auto (default) skips the litho
//                                      tiles the density gate and the
//                                      conservative hotspot prefilter
//                                      prove hotspot-free, off simulates
//                                      every tile (same hotspots); --edit
//                                      <layer>:<x0>,<y0>,<x1>,<y1>[:remove]
//                                      applies rect edits one by one
//                                      through the incremental session
//                                      and re-analyzes only the damage;
//                                      --memory-budget <size> (e.g. 64M,
//                                      or the DFMKIT_SNAPSHOT_BUDGET env
//                                      var) caps hydrated snapshot bytes
//                                      — the flow evicts and re-hydrates
//                                      at pass boundaries, report bit-
//                                      identical at any budget; --stream
//                                      runs out-of-core from the mmap'd
//                                      file without materializing the
//                                      cell hierarchy
//   dfmkit fix [--max-iters N] [--min-gain G] [--moves a,b,...]
//              [--json <path>] [--out <path>] [--expect-improvement]
//              <in.gds> [top]
//                                      score-gated auto-fix loop: propose
//                                      repairs at reported violations
//                                      (via doubling, wire spreading,
//                                      hotspot retargeting, fill, pattern
//                                      repairs), verify each through the
//                                      incremental flow, keep only fixes
//                                      that raise the composite without
//                                      new violations. --moves restricts
//                                      the proposal kinds (pattern_via,
//                                      pattern_pinch, via_double, spread,
//                                      retarget, fill); --json writes the
//                                      step-by-step outcome; --out writes
//                                      the repaired layout; with
//                                      --expect-improvement the exit code
//                                      is 1 unless the composite strictly
//                                      improved (the CI gate)
//   dfmkit catalog <in.gds> [top]      via-enclosure pattern catalog
//   dfmkit svg <in.gds> <out.svg> [top]  render to SVG
//   dfmkit serve ...                   resident analysis daemon (sessions,
//                                      incremental edits, backpressure)
//                                      over a unix socket / loopback TCP;
//                                      see tools/cli_service.cpp
//   dfmkit client ...                  drive a running daemon: one-shot
//                                      ops (open/edit/flow/close/stats/
//                                      metrics/debug/shutdown) or `bench`
//                                      load storms; --trace-out records
//                                      client-side request spans and
//                                      stamps trace context on the wire
//   dfmkit top ...                     polling live view of a daemon:
//                                      queue depth, sessions, per-op
//                                      latency percentiles
//   dfmkit trace-merge ...             stitch a client + server Chrome
//                                      trace pair into one cross-process
//                                      timeline with flow arrows
//   dfmkit --version                   build stamp: git revision +
//                                      build configuration
//
// --threads N (or --threads=N, before or after the command) caps the
// parallelism of the heavy passes (0, the default, means hardware
// concurrency; 1 forces the serial path). Results are bit-identical for
// every N.
//
// Every command declares its flags and how many arguments it takes
// (cli::Args): an unknown option or a surplus argument is refused with
// an error before any layout is read, pool built or socket opened.
#include "cli_service.h"
#include "core/dfm_flow.h"
#include "core/fix_engine.h"
#include "core/incremental.h"
#include "core/version.h"
#include "core/parallel.h"
#include "core/report.h"
#include "core/snapshot.h"
#include "core/stream_source.h"
#include "core/telemetry.h"
#include "gdsii/gdsii.h"
#include "oasis/oasis.h"
#include "gen/generators.h"
#include "layout/svg.h"
#include "pattern/catalog.h"

#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace dfm;
using cli::Args;
using Words = std::vector<std::string>;

void write_layout(const Library& lib, const std::string& path) {
  if (path.ends_with(".oas") || path.ends_with(".oasis")) {
    write_oasis_file(lib, path);
  } else {
    write_gdsii_file(lib, path);
  }
}

/// The [top] argument at `index`, else the library's first top cell.
std::uint32_t pick_top(const Library& lib, const Args& args,
                       std::size_t index) {
  return lib.top_cell(args.positional.size() > index ? args.positional[index]
                                                     : std::string{});
}

int cmd_gen(const Words& words) {
  const Args args = Args::parse({"gen", {}, {}, "<out.gds> [seed]"}, words);
  const std::string& out = args.positional[0];
  DesignParams p;
  // A seed that is not a whole number is an error, not seed 0, and "-1"
  // does not wrap to the largest seed.
  p.seed = args.positional.size() > 1
               ? parse_count("seed", args.positional[1],
                             std::numeric_limits<std::uint64_t>::max())
               : 1;
  p.name = "dfmkit_demo";
  p.rows = 4;
  p.cells_per_row = 10;
  p.routes = 30;
  const Library lib = generate_design(p);
  write_layout(lib, out);
  std::printf("wrote %s: %zu cells, %zu flat shapes\n", out.c_str(),
              lib.cell_count(),
              lib.flat_shape_count(lib.top_cell()));
  return 0;
}

int cmd_info(const Words& words) {
  const Args args = Args::parse({"info", {}, {}, "<in.gds>"}, words);
  const Library lib = read_layout_file(args.positional[0]);
  std::printf("library '%s'  dbu/uu=%.0f\n", lib.name().c_str(),
              lib.dbu_per_uu());
  Table t("cells");
  t.set_header({"cell", "shapes", "refs", "bbox"});
  for (const Cell& c : lib.cells()) {
    t.add_row({c.name(), std::to_string(c.shape_count()),
               std::to_string(c.refs().size()),
               to_string(lib.bbox(lib.index_of(c.name())))});
  }
  t.print();
  std::printf("layers:");
  for (const LayerKey k : lib.layers()) std::printf(" %s", to_string(k).c_str());
  std::printf("\n");
  return 0;
}

int cmd_drc(const Words& words, bool plus) {
  const Args args =
      Args::parse({plus ? "drcplus" : "drc", {}, {}, "<in.gds> [top]"}, words);
  const Library lib = read_layout_file(args.positional[0]);
  const std::uint32_t top = pick_top(lib, args, 1);
  const Tech& tech = Tech::standard();
  ThreadPool pool(args.threads);
  const LayoutSnapshot snap(lib, top, &pool);
  if (!plus) {
    const DrcEngine engine{RuleDeck::standard(tech)};
    const DrcResult res = engine.run(snap, DrcOptions{&pool});
    Table t("DRC: " + lib.cell(top).name());
    t.set_header({"rule", "violations"});
    for (const auto& [rule, n] : res.count_by_rule()) {
      t.add_row({rule, std::to_string(n)});
    }
    t.print();
    std::printf("total: %zu\n", res.violations.size());
    return res.clean() ? 0 : 1;
  }
  const DrcPlusEngine engine{DrcPlusDeck::standard(tech)};
  const DrcPlusResult res = engine.run(snap, DrcPlusOptions{&pool});
  Table t("DRC-Plus: " + lib.cell(top).name());
  t.set_header({"check", "hits"});
  for (const auto& [rule, n] : res.drc.count_by_rule()) {
    t.add_row({rule, std::to_string(n)});
  }
  for (std::size_t i = 0; i < engine.deck().pattern_sets.size(); ++i) {
    for (const PatternMatch& m : res.matches[i]) {
      t.add_row({engine.deck().pattern_sets[i].rules[m.rule_index].name, "1"});
    }
  }
  t.print();
  std::printf("pattern hits: %zu\n", res.pattern_match_count());
  return 0;
}

void print_flow_report(const std::string& title, const DfmFlowReport& rep) {
  Table t(title);
  t.set_header({"technique", "score", "signal"});
  for (const MetricScore& m : rep.scorecard.metrics) {
    t.add_row({m.name, Table::num(m.value), m.detail});
  }
  t.print();
  flow_trace_table(rep.trace).print();
  std::printf("composite: %.3f\n", rep.scorecard.composite());
}

int cmd_flow(const Words& words) {
  const Args args = Args::parse(
      {"flow",
       {"--json <path>", "--trace-out <path>", "--passes a,b,...",
        "--litho-fast auto|off", "--memory-budget <bytes|K|M|G>",
        "--edit <layer>:<x0>,<y0>,<x1>,<y1>[:remove]"},
       {"--stream"},
       "<in.gds> [top]"},
      words);
  const std::string& path = args.positional[0];
  const bool stream = args.has("--stream");
  // The streamed top cell comes from the stream index.
  if (stream && args.positional.size() > 1) {
    throw std::runtime_error("flow: --stream takes no [top] argument, got '" +
                             args.positional[1] + "'");
  }
  std::vector<cli::CliEdit> edits;
  for (const auto& [flag, value] : args.flags) {
    if (flag == "--edit") edits.push_back(cli::parse_edit(value));
  }
  const DfmFlowOptions opt = cli::flow_options(args);
  // Span recording only pays for itself when someone asked for output;
  // metrics counters are always live (they are the cheap part).
  cli::start_trace(args, "main");

  // Shared tail for both modes: the metrics snapshot rides along in the
  // --json document, and --trace-out gets the drained span timeline.
  const auto write_outputs = [&](const DfmFlowReport& rep) {
    if (const std::string* json = args.get("--json")) {
      const telemetry::MetricsSnapshot metrics = telemetry::metrics_snapshot();
      cli::write_file(*json, flow_trace_json(rep, &metrics));
    }
    cli::write_trace(args);
  };

  const auto print_budget = [&](const SnapshotBudget& b) {
    if (b.limit() == 0 && b.evictions() == 0) return;
    std::printf(
        "snapshot budget: limit=%zu peak=%zu current=%zu "
        "hydrations=%llu evictions=%llu rehydrations=%llu\n",
        b.limit(), b.peak(), b.current(),
        static_cast<unsigned long long>(b.hydrations()),
        static_cast<unsigned long long>(b.evictions()),
        static_cast<unsigned long long>(b.rehydrations()));
  };

  const auto run_edits = [&](DfmFlowSession& session,
                             const std::string& title) {
    print_flow_report("DFM scoreboard: " + title, session.report());
    for (std::size_t i = 0; i < edits.size(); ++i) {
      LayoutDelta delta;
      if (edits[i].remove) {
        delta.remove(edits[i].layer, edits[i].rect);
      } else {
        delta.add(edits[i].layer, edits[i].rect);
      }
      const DfmFlowReport& rep = session.apply(delta);
      print_flow_report("after edit " + std::to_string(i + 1), rep);
    }
    print_budget(session.snapshot().budget());
    write_outputs(session.report());
  };

  if (stream) {
    // Out-of-core mode: never materializes the cell hierarchy — the
    // snapshot hydrates windows straight from the mmap'd file.
    DfmFlowSession session(open_stream_source(path), opt);
    run_edits(session, path + " (stream)");
    return 0;
  }

  const Library lib = read_layout_file(path);
  const std::uint32_t top = pick_top(lib, args, 1);
  if (edits.empty()) {
    const DfmFlowReport rep = run_dfm_flow(lib, top, opt);
    print_flow_report("DFM scoreboard: " + lib.cell(top).name(), rep);
    write_outputs(rep);
    return 0;
  }

  // Edit mode: run cold once, then push each edit through the
  // incremental session — every report is bit-identical to a cold
  // re-run over the edited layout, but only the damage recomputes.
  DfmFlowSession session(lib, top, opt);
  run_edits(session, lib.cell(top).name());
  return 0;
}

int cmd_fix(const Words& words) {
  const Args args = Args::parse(
      {"fix",
       {"--max-iters N", "--min-gain G", "--moves pattern_via,via_double,...",
        "--json <path>", "--out <path>"},
       {"--expect-improvement"},
       "<in.gds> [top]"},
      words);
  const DfmFlowOptions opt = cli::flow_options(args);
  const Library lib = read_layout_file(args.positional[0]);
  const std::uint32_t top = pick_top(lib, args, 1);
  DfmFlowSession session(lib, top, opt);
  print_flow_report("before fix: " + lib.cell(top).name(), session.report());

  const FixOutcome out = FixEngine::fix(session, opt.fix);

  Table t("fix loop");
  t.set_header({"iter", "kind", "rule", "site", "result", "gain"});
  for (const FixStep& s : out.steps) {
    t.add_row({std::to_string(s.iter), fix_kind_name(s.kind), s.rule,
               to_string(s.site),
               s.accepted ? "accepted" : "rejected(" + s.reject + ")",
               Table::num(s.gain)});
  }
  t.print();

  print_flow_report("after fix", session.report());
  std::printf(
      "fix: %d iteration(s), %d proposed, %d accepted, %d rejected, "
      "composite %.3f -> %.3f\n",
      out.iterations, out.proposed, out.accepted, out.rejected,
      out.composite_before, out.composite_after);

  if (const std::string* json = args.get("--json")) {
    cli::write_file(*json, fix_outcome_json(out));
  }
  if (const std::string* out_path = args.get("--out")) {
    // The repaired layout, flat: the post-fix snapshot's layers as one
    // cell (references were flattened when the session snapshot was
    // built).
    Cell cell(lib.cell(top).name());
    for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
      const Region& r = session.snapshot().layer(k);
      if (!r.empty()) cell.add(k, r);
    }
    Library fixed(lib.name());
    fixed.add_cell(std::move(cell));
    write_layout(fixed, *out_path);
    std::printf("wrote %s\n", out_path->c_str());
  }
  if (args.has("--expect-improvement") &&
      !(out.accepted > 0 && out.composite_after > out.composite_before)) {
    std::fprintf(stderr, "dfmkit fix: composite did not improve\n");
    return 1;
  }
  return 0;
}

int cmd_catalog(const Words& words) {
  const Args args = Args::parse({"catalog", {}, {}, "<in.gds> [top]"}, words);
  const Library lib = read_layout_file(args.positional[0]);
  const std::uint32_t top = pick_top(lib, args, 1);
  const std::vector<LayerKey> on = {layers::kVia1, layers::kMetal1,
                                    layers::kMetal2};
  ThreadPool pool(args.threads);
  const LayoutSnapshot snap(lib, top, on, &pool);
  const PatternCatalog cat = build_catalog(snap, on, layers::kVia1, 120, &pool);
  std::printf("windows=%llu classes=%zu top-10=%.1f%%\n",
              static_cast<unsigned long long>(cat.total_windows()),
              cat.class_count(), 100.0 * cat.top_k_coverage(10));
  int rank = 0;
  for (const CatalogEntry* e : cat.by_frequency()) {
    if (++rank > 5) break;
    std::printf("#%d count=%llu\n%s", rank,
                static_cast<unsigned long long>(e->count),
                e->pattern.to_ascii().c_str());
  }
  return 0;
}

int cmd_svg(const Words& words) {
  const Args args =
      Args::parse({"svg", {}, {}, "<in.gds> <out.svg> [top]"}, words);
  const Library lib = read_layout_file(args.positional[0]);
  const std::uint32_t top = pick_top(lib, args, 2);
  const std::vector<LayerKey> order = lib.layers();
  const LayoutSnapshot snap(lib, top, order);
  SvgWriter w(lib.bbox(top), 1200);
  for (const LayerKey k : order) {
    w.add_layer(snap.layer(k), SvgWriter::default_color(k));
  }
  w.write_file(args.positional[1]);
  std::printf("wrote %s\n", args.positional[1].c_str());
  return 0;
}

int cmd_version(const Words& words) {
  Args::parse({"version"}, words);
  std::printf("%s\n", dfm::version_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  static const std::map<std::string, int (*)(const Words&)> kCommands = {
      {"gen", cmd_gen},
      {"info", cmd_info},
      {"drc", [](const Words& w) { return cmd_drc(w, false); }},
      {"drcplus", [](const Words& w) { return cmd_drc(w, true); }},
      {"flow", cmd_flow},
      {"fix", cmd_fix},
      {"catalog", cmd_catalog},
      {"svg", cmd_svg},
      {"serve", dfm::cli::cmd_serve},
      {"client", dfm::cli::cmd_client},
      {"top", dfm::cli::cmd_top},
      {"trace-merge", dfm::cli::cmd_trace_merge},
      {"version", cmd_version},
  };
  // Only --threads and --version may precede the command; the command's
  // own parse sees every other word, --threads included.
  cli::ArgSpec global{"", {"--threads N"}, {"--version"}, "<command> ..."};
  for (const auto& [name, run] : kCommands) {
    global.notes += (global.notes.empty() ? "  commands: " : "|") + name;
  }
  try {
    Words words(argv + 1, argv + argc);
    std::size_t at = 0;
    if (Args::parse(global, words, &at).has("--version")) {
      return cmd_version({});
    }
    if (at == words.size()) {
      std::fprintf(stderr, "%s\n", global.usage().c_str());
      return 2;
    }
    const std::string cmd = words[at];
    words.erase(words.begin() + static_cast<std::ptrdiff_t>(at));
    const auto it = kCommands.find(cmd);
    if (it == kCommands.end()) {
      std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
      return 2;
    }
    return it->second(words);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfmkit: %s\n", e.what());
    return 2;
  }
}

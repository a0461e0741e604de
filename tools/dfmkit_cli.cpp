// dfmkit — command-line driver for the library.
//
//   dfmkit [--threads N] <command> ...
//
//   dfmkit gen <out.gds> [seed]        generate a demo design
//   dfmkit info <in.gds>               library summary
//   dfmkit drc <in.gds> [top]          run the standard DRC deck
//   dfmkit drcplus <in.gds> [top]      DRC + pattern rules
//   dfmkit flow [--json <path>] [--trace-out <path>] [--passes a,b,...]
//               [--litho-fast auto|fft|direct|off]
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
//                                      picks the litho convolution: auto
//                                      (default) chooses FFT vs direct per
//                                      tile and enables the conservative
//                                      hotspot prefilter, off is the
//                                      historical path bit for bit; --edit
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
// --threads N caps the parallelism of the heavy passes (0, the default,
// means hardware concurrency; 1 forces the serial path). Results are
// bit-identical for every N.
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
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

namespace {

using namespace dfm;

unsigned g_threads = 0;  // --threads; 0 = hardware concurrency

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void write_layout(const Library& lib, const std::string& path) {
  if (ends_with(path, ".oas") || ends_with(path, ".oasis")) {
    write_oasis_file(lib, path);
  } else {
    write_gdsii_file(lib, path);
  }
}

std::uint32_t pick_top(const Library& lib, int argc, char** argv, int index) {
  if (argc > index) return lib.index_of(argv[index]);
  const auto tops = lib.top_cells();
  if (tops.empty()) throw std::runtime_error("library has no cells");
  return tops.front();
}

int cmd_gen(int argc, char** argv) {
  if (argc < 3) throw std::runtime_error("usage: dfmkit gen <out.gds> [seed]");
  DesignParams p;
  // A seed that is not a whole number is an error, not seed 0, and "-1"
  // does not wrap to the largest seed.
  p.seed = argc > 3 ? parse_count("seed", argv[3],
                                  std::numeric_limits<std::uint64_t>::max())
                     : 1;
  p.name = "dfmkit_demo";
  p.rows = 4;
  p.cells_per_row = 10;
  p.routes = 30;
  const Library lib = generate_design(p);
  write_layout(lib, argv[2]);
  std::printf("wrote %s: %zu cells, %zu flat shapes\n", argv[2],
              lib.cell_count(),
              lib.flat_shape_count(lib.top_cells().front()));
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) throw std::runtime_error("usage: dfmkit info <in.gds>");
  const Library lib = read_layout_file(argv[2]);
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

int cmd_drc(int argc, char** argv, bool plus) {
  if (argc < 3) throw std::runtime_error("usage: dfmkit drc <in.gds> [top]");
  const Library lib = read_layout_file(argv[2]);
  const std::uint32_t top = pick_top(lib, argc, argv, 3);
  const Tech& tech = Tech::standard();
  ThreadPool pool(g_threads);
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

int cmd_flow(int argc, char** argv) {
  // Strip the flow-local options.
  std::string json_path;
  std::string trace_path;
  std::string passes_arg;
  std::string litho_fast_arg;
  std::string budget_arg;
  bool stream = false;
  std::vector<cli::CliEdit> edits;
  for (int i = 2; i < argc;) {
    const auto eat2 = [&](std::string& into) {
      into = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    };
    const auto eat1 = [&] {
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      argc -= 1;
    };
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      eat2(json_path);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      eat2(trace_path);
    } else if (std::strcmp(argv[i], "--passes") == 0 && i + 1 < argc) {
      eat2(passes_arg);
    } else if (std::strcmp(argv[i], "--litho-fast") == 0 && i + 1 < argc) {
      eat2(litho_fast_arg);
    } else if (std::strcmp(argv[i], "--memory-budget") == 0 && i + 1 < argc) {
      eat2(budget_arg);
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      stream = true;
      eat1();
    } else if (std::strcmp(argv[i], "--edit") == 0 && i + 1 < argc) {
      std::string spec;
      eat2(spec);
      edits.push_back(cli::parse_edit(spec));
    } else {
      ++i;
    }
  }
  if (argc < 3) {
    throw std::runtime_error(
        "usage: dfmkit flow [--json <path>] [--trace-out <path>] "
        "[--passes a,b,...] [--litho-fast auto|fft|direct|off] "
        "[--memory-budget <bytes|K|M|G>] [--stream] "
        "[--edit <layer>:<x0>,<y0>,<x1>,<y1>[:remove]]... <in.gds> [top]");
  }
  // Span recording only pays for itself when someone asked for output;
  // metrics counters are always live (they are the cheap part).
  if (!trace_path.empty()) {
    telemetry::set_thread_name("main");
    telemetry::set_enabled(true);
  }
  DfmFlowOptions opt;
  opt.tech = Tech::standard();
  opt.model.sigma = 25;
  opt.model.px = 5;
  opt.threads = g_threads;
  if (!litho_fast_arg.empty()) {
    opt.litho_fast = cli::parse_litho_fast(litho_fast_arg);
  }
  if (!budget_arg.empty()) {
    opt.memory_budget = cli::parse_memory_budget(budget_arg);
  }
  for (std::size_t pos = 0; pos < passes_arg.size();) {
    std::size_t comma = passes_arg.find(',', pos);
    if (comma == std::string::npos) comma = passes_arg.size();
    const std::string name = passes_arg.substr(pos, comma - pos);
    if (!name.empty()) {
      if (canonical_flow_pass(name).empty()) {
        throw std::runtime_error("--passes: unknown pass '" + name + "'");
      }
      opt.passes.push_back(name);
    }
    pos = comma + 1;
  }

  // Shared tail for both modes: the metrics snapshot rides along in the
  // --json document, and --trace-out gets the drained span timeline.
  const auto write_outputs = [&](const DfmFlowReport& rep) {
    const telemetry::MetricsSnapshot metrics = telemetry::metrics_snapshot();
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) throw std::runtime_error("cannot write " + json_path);
      out << flow_trace_json(rep, metrics.empty() ? nullptr : &metrics);
      std::printf("wrote %s\n", json_path.c_str());
    }
    if (!trace_path.empty()) {
      telemetry::set_enabled(false);
      const telemetry::TraceSnapshot trace = telemetry::drain();
      std::ofstream out(trace_path);
      if (!out) throw std::runtime_error("cannot write " + trace_path);
      out << telemetry::chrome_trace_json(trace, metrics);
      std::printf("wrote %s (%zu spans, %u threads, max depth %u)\n",
                  trace_path.c_str(), trace.total_events(),
                  static_cast<unsigned>(trace.threads.size()),
                  trace.max_depth());
    }
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
    // snapshot hydrates windows straight from the mmap'd file. The top
    // cell comes from the stream index, so the [top] argument does not
    // apply here.
    DfmFlowSession session(open_stream_source(argv[2]), opt);
    run_edits(session, std::string(argv[2]) + " (stream)");
    return 0;
  }

  const Library lib = read_layout_file(argv[2]);
  const std::uint32_t top = pick_top(lib, argc, argv, 3);
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

int cmd_fix(int argc, char** argv) {
  std::string json_path;
  std::string out_path;
  std::string moves_arg;
  bool expect_improvement = false;
  FixOptions fix;
  for (int i = 2; i < argc;) {
    const auto eat2 = [&](std::string& into) {
      into = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    };
    const auto eat1 = [&] {
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      argc -= 1;
    };
    // The bounds are the service fix op's, checked before the layout is
    // read.
    if (std::strcmp(argv[i], "--max-iters") == 0 && i + 1 < argc) {
      std::string v;
      eat2(v);
      fix.max_iters = static_cast<int>(parse_count("--max-iters", v, 1000));
    } else if (std::strcmp(argv[i], "--min-gain") == 0 && i + 1 < argc) {
      std::string v;
      eat2(v);
      fix.min_gain = parse_threshold("--min-gain", v);
    } else if (std::strcmp(argv[i], "--moves") == 0 && i + 1 < argc) {
      eat2(moves_arg);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      eat2(json_path);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      eat2(out_path);
    } else if (std::strcmp(argv[i], "--expect-improvement") == 0) {
      expect_improvement = true;
      eat1();
    } else {
      ++i;
    }
  }
  if (argc < 3) {
    throw std::runtime_error(
        "usage: dfmkit fix [--max-iters N] [--min-gain G] "
        "[--moves pattern_via,via_double,...] [--json <path>] "
        "[--out <path>] [--expect-improvement] <in.gds> [top]");
  }
  for (std::size_t pos = 0; pos < moves_arg.size();) {
    std::size_t comma = moves_arg.find(',', pos);
    if (comma == std::string::npos) comma = moves_arg.size();
    const std::string name = moves_arg.substr(pos, comma - pos);
    if (!name.empty()) {
      if (!parse_fix_kind(name)) {
        throw std::runtime_error(
            "--moves: unknown move '" + name +
            "' (pattern_via|pattern_pinch|via_double|spread|retarget|fill)");
      }
      fix.moves.push_back(name);
    }
    pos = comma + 1;
  }

  DfmFlowOptions opt;
  opt.tech = Tech::standard();
  opt.model.sigma = 25;
  opt.model.px = 5;
  opt.threads = g_threads;
  opt.fix = fix;

  const Library lib = read_layout_file(argv[2]);
  const std::uint32_t top = pick_top(lib, argc, argv, 3);
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

  if (!json_path.empty()) {
    std::ofstream o(json_path);
    if (!o) throw std::runtime_error("cannot write " + json_path);
    o << fix_outcome_json(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!out_path.empty()) {
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
    write_layout(fixed, out_path);
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (expect_improvement &&
      !(out.accepted > 0 && out.composite_after > out.composite_before)) {
    std::fprintf(stderr, "dfmkit fix: composite did not improve\n");
    return 1;
  }
  return 0;
}

int cmd_catalog(int argc, char** argv) {
  if (argc < 3) throw std::runtime_error("usage: dfmkit catalog <in.gds> [top]");
  const Library lib = read_layout_file(argv[2]);
  const std::uint32_t top = pick_top(lib, argc, argv, 3);
  const std::vector<LayerKey> on = {layers::kVia1, layers::kMetal1,
                                    layers::kMetal2};
  ThreadPool pool(g_threads);
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

int cmd_svg(int argc, char** argv) {
  if (argc < 4) {
    throw std::runtime_error("usage: dfmkit svg <in.gds> <out.svg> [top]");
  }
  const Library lib = read_layout_file(argv[2]);
  const std::uint32_t top = pick_top(lib, argc, argv, 4);
  const std::vector<LayerKey> order = lib.layers();
  const LayoutSnapshot snap(lib, top, order);
  SvgWriter w(lib.bbox(top), 1200);
  for (const LayerKey k : order) {
    w.add_layer(snap.layer(k), SvgWriter::default_color(k));
  }
  w.write_file(argv[3]);
  std::printf("wrote %s\n", argv[3]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Strip global options (accepted anywhere) before command dispatch.
    for (int i = 1; i < argc;) {
      if (std::strncmp(argv[i], "--threads", 9) != 0) {
        ++i;
        continue;
      }
      const char* val = nullptr;
      int eat = 0;
      if (argv[i][9] == '=') {
        val = argv[i] + 10;
        eat = 1;
      } else if (argv[i][9] == '\0' && i + 1 < argc) {
        val = argv[i + 1];
        eat = 2;
      } else if (argv[i][9] == '\0') {
        throw std::runtime_error("--threads needs a value");
      } else {
        ++i;  // some other --threads* token; leave it for the subcommand
        continue;
      }
      g_threads = static_cast<unsigned>(parse_count(
          "--threads", val, std::numeric_limits<unsigned>::max()));
      for (int j = i; j + eat < argc; ++j) argv[j] = argv[j + eat];
      argc -= eat;
    }
    if (argc < 2) {
      std::fprintf(stderr,
                   "usage: dfmkit [--threads N] "
                   "<gen|info|drc|drcplus|flow|fix|catalog|svg|serve|"
                   "client|top|trace-merge> ...\n");
      return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "version") {
      std::printf("%s\n", dfm::version_string().c_str());
      return 0;
    }
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "drc") return cmd_drc(argc, argv, false);
    if (cmd == "drcplus") return cmd_drc(argc, argv, true);
    if (cmd == "flow") return cmd_flow(argc, argv);
    if (cmd == "fix") return cmd_fix(argc, argv);
    if (cmd == "catalog") return cmd_catalog(argc, argv);
    if (cmd == "svg") return cmd_svg(argc, argv);
    if (cmd == "serve") return dfm::cli::cmd_serve(argc, argv, g_threads);
    if (cmd == "client") return dfm::cli::cmd_client(argc, argv);
    if (cmd == "top") return dfm::cli::cmd_top(argc, argv);
    if (cmd == "trace-merge") return dfm::cli::cmd_trace_merge(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfmkit: %s\n", e.what());
    return 2;
  }
}

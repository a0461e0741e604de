// The full DFM sign-off flow: runs every technique in the toolkit over a
// design, collects their raw results, and folds them into one composite
// manufacturability scorecard — the "hit or hype" scoreboard that puts a
// number on what each technique sees.
//
// Every pass reads one shared LayoutSnapshot, so flatten/normalize/index
// work happens once per flow, and a FlowTrace records what each pass
// cost (wall time, result items, snapshot cache hits/misses) for the
// report writer and the --json machine output.
#pragma once

#include "core/drc_plus.h"
#include "core/fix_proposals.h"
#include "core/hotspot_flow.h"
#include "core/recommended_rules.h"
#include "core/scoring.h"
#include "core/snapshot.h"
#include "dpt/dpt.h"
#include "layout/connectivity.h"
#include "yield/yield.h"

namespace dfm {

class Table;  // core/report.h
namespace telemetry {
struct MetricsSnapshot;  // core/telemetry.h
}

/// One timed pass of the flow.
struct PassTrace {
  std::string name;
  double ms = 0;                   // wall time of the pass (its span's)
  std::size_t items = 0;           // result items (violations, hotspots, ...)
  std::uint64_t cache_hits = 0;    // snapshot derived products reused
  std::uint64_t cache_misses = 0;  // snapshot derived products built
  // Incremental accounting. A "unit" is the pass's splice granule
  // ((rule x tile) for DRC and recommended rules, one per density rule,
  // capture window, litho tile, (term x tile) for the M1 CAA term, whole
  // pass for the global ones); a cold run recomputes all of them, an
  // incremental run only the dirty ones.
  std::size_t total_units = 0;
  std::size_t dirty_units = 0;
  bool incremental = false;  // ran against an IncrementalSnapshot

  /// Fraction of units spliced from the previous run (0 on a cold pass).
  /// A skipped pass has 0/0 units; that clamps to 1.0 — nothing was
  /// recomputed — rather than the literal 0/0 = nan (the CLI table
  /// renders such passes as "-").
  double reuse_ratio() const {
    return total_units == 0
               ? 1.0
               : 1.0 - static_cast<double>(dirty_units) /
                           static_cast<double>(total_units);
  }
};

/// Per-pass observability for one flow run.
struct FlowTrace {
  std::vector<PassTrace> passes;
  double total_ms = 0;       // wall time of the whole flow ("flow" span)
  SnapshotCacheStats cache;  // snapshot cache totals at the end

  /// Sum of per-pass wall times (close to total_ms by construction:
  /// everything the flow does happens inside some pass).
  double passes_ms() const;
  const PassTrace* find(const std::string& name) const;
};

/// Inherits `threads`/`pool` from PassOptions like every engine's
/// options struct; `threads` defaults to 0 here (hardware concurrency)
/// because the flow is the outermost entry point. Every parallel pass
/// merges deterministically, so the report is identical for any value.
struct DfmFlowOptions : PassOptions {
  DfmFlowOptions() { threads = 0; }
  DfmFlowOptions(ThreadPool* p) : PassOptions(p) { threads = 0; }  // NOLINT

  Tech tech;
  OpticalModel model;
  DefectModel defects;
  bool run_litho = true;      // tile-simulated hotspot scan (slowest step)
  Coord litho_tile = 20000;
  Coord litho_edge_tolerance = 12;
  /// Litho fast path (--litho-fast): kAuto enables the density gate and
  /// the conservative prefilter; kOff simulates every tile, bit for bit
  /// the same hotspots.
  LithoFastMode litho_fast = LithoFastMode::kAuto;
  double via_fail_rate = 1e-4;
  /// Pass subset to run (canonical names or their aliases, see
  /// canonical_flow_pass); empty = every pass. caa_yield reads the
  /// extracted nets, so requesting it pulls connectivity in with it.
  std::vector<std::string> passes;
  /// Byte budget hydrated snapshot state (geometry + derived products)
  /// should stay under; 0 falls back to the DFMKIT_SNAPSHOT_BUDGET
  /// environment variable, else unlimited. With a budget the flow runs
  /// over a lazily-hydrated snapshot, schedules DRC/recommended rules in
  /// per-layer-set groups, and evicts at pass boundaries; the report is
  /// bit-identical at any budget and thread count.
  std::size_t memory_budget = 0;
  /// Defaults for the score-gated fix loop (FixEngine, `dfmkit fix`,
  /// the service `fix` op); threaded through `dfmkit serve --fix-*`
  /// the same way --litho-fast / --memory-budget are. The flow passes
  /// themselves never read this.
  FixOptions fix;
};

/// options.memory_budget, or the parsed DFMKIT_SNAPSHOT_BUDGET
/// environment variable when that is 0; 0 = unlimited. Throws
/// std::runtime_error when the variable is set but is not a byte size
/// parse_byte_size accepts.
std::size_t resolved_memory_budget(const DfmFlowOptions& options);

/// Resolves a user-facing pass name ("drc", "vias", "caa", ...) to its
/// canonical flow pass name; empty when unknown.
std::string canonical_flow_pass(const std::string& name);

struct DfmFlowReport {
  DrcPlusResult drcplus;
  Netlist nets;
  std::vector<FloatingCut> floating_cuts;
  RecommendedResult recommended;
  std::vector<Hotspot> hotspots;
  Decomposition dpt;
  DptScore dpt_score;
  ViaDoublingResult vias;
  double lambda_shorts = 0;
  double lambda_opens = 0;
  double defect_yield = 1;      // Poisson over shorts+opens lambda
  double via_yield_before = 1;  // all vias single
  double via_yield_after = 1;   // after redundant insertion
  DfmScorecard scorecard;
  FlowTrace trace;
};

/// Field-for-field equality of every analysis result (doubles compared
/// bitwise), ignoring the trace — the equivalence the incremental flow
/// guarantees against a cold run.
bool reports_equivalent(const DfmFlowReport& a, const DfmFlowReport& b);

DfmFlowReport run_dfm_flow(const Library& lib, std::uint32_t top,
                           const DfmFlowOptions& options);

/// Out-of-core entry point: runs the flow over a lazily-hydrated
/// snapshot of `source` (e.g. a GdsStreamSource over an mmap'd file),
/// under resolved_memory_budget(options). The report is byte-identical to the
/// in-memory path over the same design.
DfmFlowReport run_dfm_flow(std::shared_ptr<const SnapshotSource> source,
                           const DfmFlowOptions& options);

/// Runs the flow over a snapshot the caller already built (its "snapshot"
/// pass then times only applying the memory budget). The snapshot must
/// contain LayoutSnapshot::standard_flow_layers().
DfmFlowReport run_dfm_flow(const LayoutSnapshot& snap,
                           const DfmFlowOptions& options);

/// Renders the trace as an aligned timing table.
Table flow_trace_table(const FlowTrace& trace);

/// Machine-readable flow output: the trace (per-pass ms/items/cache), the
/// snapshot cache totals, and the scorecard — what `dfmkit_cli flow
/// --json` writes and tools/run_benches.sh consumes. The document
/// carries a "schema_version" field (currently 2); the full schema is
/// documented in DESIGN.md. When `metrics` is non-null the telemetry
/// metrics snapshot is merged in under a "telemetry" key.
std::string flow_trace_json(const DfmFlowReport& rep,
                            const telemetry::MetricsSnapshot* metrics =
                                nullptr);

/// The --json schema version flow_trace_json emits.
constexpr int kFlowJsonSchemaVersion = 2;

/// flow_trace_json with every wall-clock and cache-activity field zeroed:
/// the canonical, byte-stable serialization of an analysis result. Two
/// reports that are reports_equivalent() and ran the same pass schedule
/// serialize to identical bytes at any thread count and any memory
/// budget (cache hits/builds vary with eviction and the streamed capture
/// path, so they are run artifacts, not analysis content); the service
/// returns this form and the tests diff a served flow against the direct
/// library call.
std::string flow_report_canonical_json(const DfmFlowReport& rep);

}  // namespace dfm

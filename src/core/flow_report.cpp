// The outputs of a flow run: the CLI timing table, the --json document
// and its canonical (timing-free) form, and report equivalence.
#include "core/dfm_flow.h"

#include "core/report.h"
#include "core/telemetry.h"

#include <cstdio>

namespace dfm {
namespace {

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

bool reports_equivalent(const DfmFlowReport& a, const DfmFlowReport& b) {
  return a.drcplus == b.drcplus && a.nets == b.nets &&
         a.floating_cuts == b.floating_cuts && a.recommended == b.recommended &&
         a.hotspots == b.hotspots && a.dpt == b.dpt &&
         a.dpt_score == b.dpt_score && a.vias == b.vias &&
         a.lambda_shorts == b.lambda_shorts &&
         a.lambda_opens == b.lambda_opens && a.defect_yield == b.defect_yield &&
         a.via_yield_before == b.via_yield_before &&
         a.via_yield_after == b.via_yield_after && a.scorecard == b.scorecard;
}

double FlowTrace::passes_ms() const {
  double sum = 0;
  for (const PassTrace& p : passes) sum += p.ms;
  return sum;
}

const PassTrace* FlowTrace::find(const std::string& name) const {
  for (const PassTrace& p : passes) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Table flow_trace_table(const FlowTrace& trace) {
  Table t("flow trace");
  t.set_header({"pass", "ms", "items", "dirty/total", "reuse", "cache hit/miss"});
  for (const PassTrace& p : trace.passes) {
    // A skipped pass has no units at all: its reuse column renders as
    // "-" (reuse_ratio() itself clamps the 0/0 case to 1.0).
    t.add_row({p.name, Table::num(p.ms),
               Table::num(static_cast<std::int64_t>(p.items)),
               p.total_units == 0
                   ? std::string{"-"}
                   : Table::num(static_cast<std::int64_t>(p.dirty_units)) +
                         "/" +
                         Table::num(static_cast<std::int64_t>(p.total_units)),
               p.total_units == 0 ? std::string{"-"}
                                  : Table::percent(p.reuse_ratio()),
               Table::num(static_cast<std::int64_t>(p.cache_hits)) + "/" +
                   Table::num(static_cast<std::int64_t>(p.cache_misses))});
  }
  t.add_row({"(total)", Table::num(trace.total_ms), "", "", "", ""});
  return t;
}

std::string flow_trace_json(const DfmFlowReport& rep,
                            const telemetry::MetricsSnapshot* metrics) {
  std::string out = "{\n";
  out += "  \"schema_version\": " + std::to_string(kFlowJsonSchemaVersion) +
         ",\n";
  out += "  \"total_ms\": " + json_num(rep.trace.total_ms) + ",\n";
  out += "  \"passes\": [\n";
  for (std::size_t i = 0; i < rep.trace.passes.size(); ++i) {
    const PassTrace& p = rep.trace.passes[i];
    out += "    {\"name\": \"" + telemetry::json_escape(p.name) +
           "\", \"ms\": " + json_num(p.ms) +
           ", \"items\": " + std::to_string(p.items) +
           ", \"total_units\": " + std::to_string(p.total_units) +
           ", \"dirty_units\": " + std::to_string(p.dirty_units) +
           ", \"reuse_ratio\": " + json_num(p.reuse_ratio()) +
           ", \"incremental\": " + (p.incremental ? "true" : "false") +
           ", \"cache_hits\": " + std::to_string(p.cache_hits) +
           ", \"cache_misses\": " + std::to_string(p.cache_misses) + "}";
    out += i + 1 < rep.trace.passes.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  const SnapshotCacheStats& c = rep.trace.cache;
  out += "  \"cache\": {\"reads\": " + std::to_string(c.reads()) +
         ", \"builds\": " + std::to_string(c.builds()) +
         ", \"hits\": " + std::to_string(c.hits()) + "},\n";
  if (metrics != nullptr) {
    out += "  \"telemetry\": " + telemetry::metrics_json(*metrics) + ",\n";
  }
  out += "  \"scorecard\": {\n    \"composite\": " +
         json_num(rep.scorecard.composite()) + ",\n    \"metrics\": [\n";
  for (std::size_t i = 0; i < rep.scorecard.metrics.size(); ++i) {
    const MetricScore& m = rep.scorecard.metrics[i];
    out += "      {\"name\": \"" + telemetry::json_escape(m.name) +
           "\", \"value\": " + json_num(m.value) +
           ", \"weight\": " + json_num(m.weight) + ", \"detail\": \"" +
           telemetry::json_escape(m.detail) + "\"}";
    out += i + 1 < rep.scorecard.metrics.size() ? ",\n" : "\n";
  }
  out += "    ]\n  }\n}\n";
  return out;
}

std::string flow_report_canonical_json(const DfmFlowReport& rep) {
  DfmFlowReport copy = rep;
  copy.trace.total_ms = 0;
  // Wall clock and cache activity are run artifacts, not analysis
  // content: a budgeted run re-hydrates (and a streamed capture skips
  // index builds entirely) without changing any result, so both are
  // zeroed for the canonical form.
  for (PassTrace& p : copy.trace.passes) {
    p.ms = 0;
    p.cache_hits = 0;
    p.cache_misses = 0;
  }
  copy.trace.cache = SnapshotCacheStats{};
  return flow_trace_json(copy);
}

}  // namespace dfm

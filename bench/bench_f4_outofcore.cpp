// Figure 4 — Out-of-core flow under a byte budget.
//
// The full-chip question from the panel: can the flow sign off a layout
// whose fully-hydrated snapshot does not fit in the configured memory
// budget? The bench writes a generated design to GDSII, fully hydrates
// one snapshot off the mmap-backed streaming source (every layer's
// geometry plus every standard derived product: R-tree, boundary edges)
// to measure H, then sets the budget to H/5 — below what even the
// unlimited flow's working set peaks at — and re-runs the whole flow
// budgeted. The claims under test, enforced at exit-code level:
//
//   1. The fully-hydrated snapshot is >= 4x the configured budget (the
//      layout genuinely does not fit).
//   2. Peak snapshot bytes under the budgeted run stay <= budget at 1
//      and 8 threads, with real evictions — the budget binds, the
//      eviction layer is not a no-op.
//   3. The budgeted report is byte-identical (canonical JSON) to the
//      unlimited in-memory path at every thread count.
//
// Emits `MEMORY key=value` lines that tools/run_benches.sh collects
// into the "memory" array of BENCH_flow.json.
#include "bench_common.h"

#include "core/dfm_flow.h"
#include "core/stream_source.h"
#include "gdsii/gdsii.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace dfm;
using namespace dfm::bench;

namespace {

DfmFlowOptions flow_options(unsigned threads) {
  DfmFlowOptions o;
  o.threads = threads;
  return o;
}

}  // namespace

int main() {
  const int scale = 8;
  const Library lib = scaling_design(static_cast<std::uint64_t>(scale), scale);
  const std::string path = "bench_f4_outofcore.gds";
  {
    std::ofstream out(path, std::ios::binary);
    write_gdsii(lib, out);
  }

  // H: the fully-hydrated footprint — every layer's geometry resident
  // plus the standard derived products (R-tree, boundary edges) built,
  // all at once. This is what an in-memory snapshot costs when every
  // pass has touched every index.
  std::size_t full_bytes = 0;
  {
    const LayoutSnapshot probe(open_stream_source(path),
                               LayoutSnapshot::standard_flow_layers());
    for (const LayerKey k : probe.layer_keys()) {
      (void)probe.layer(k);
      (void)probe.rtree(k);
      (void)probe.edges(k);
    }
    full_bytes = probe.budget().current();
  }
  const std::size_t budget = full_bytes / 5;

  // Unlimited baseline over the same streaming source the budgeted runs
  // use; its budget peak is the flow's actual in-memory working set.
  Stopwatch t_unlim;
  const LayoutSnapshot unlim(open_stream_source(path),
                             LayoutSnapshot::standard_flow_layers());
  const DfmFlowReport baseline = run_dfm_flow(unlim, flow_options(1));
  const double unlim_ms = t_unlim.ms();
  const std::string baseline_json = flow_report_canonical_json(baseline);
  const std::size_t unlim_peak = unlim.budget().peak();

  Table table("Figure 4: out-of-core flow under a byte budget");
  table.set_header({"threads", "budget", "peak", "evictions", "ms",
                    "under budget", "identical"});
  table.add_row({"1", "unlimited", std::to_string(unlim_peak), "0",
                 Table::num(unlim_ms, 1), "-", "baseline"});

  bool all_under = true;
  bool all_equal = true;
  bool all_evicted = true;
  std::printf("MEMORY hydrated_bytes=%zu\n", full_bytes);
  std::printf("MEMORY budget_bytes=%zu\n", budget);
  std::printf("MEMORY unlimited_peak_bytes=%zu\n", unlim_peak);

  for (const unsigned threads : {1u, 8u}) {
    DfmFlowOptions opt = flow_options(threads);
    opt.memory_budget = budget;
    const LayoutSnapshot snap(open_stream_source(path),
                              LayoutSnapshot::standard_flow_layers());
    Stopwatch t;
    const DfmFlowReport rep = run_dfm_flow(snap, opt);
    const double ms = t.ms();

    const std::size_t peak = snap.budget().peak();
    const std::uint64_t evictions = snap.budget().evictions();
    const bool under = peak <= budget;
    const bool equal = flow_report_canonical_json(rep) == baseline_json;
    all_under = all_under && under;
    all_equal = all_equal && equal;
    all_evicted = all_evicted && evictions > 0;

    table.add_row({std::to_string(threads), std::to_string(budget),
                   std::to_string(peak), std::to_string(evictions),
                   Table::num(ms, 1), under ? "yes" : "NO",
                   equal ? "yes" : "NO"});
    std::printf("MEMORY peak_bytes_t%u=%zu\n", threads, peak);
    std::printf("MEMORY evictions_t%u=%llu\n", threads,
                static_cast<unsigned long long>(evictions));
    std::printf("MEMORY rehydrations_t%u=%llu\n", threads,
                static_cast<unsigned long long>(
                    snap.budget().rehydrations()));
  }

  const bool oversubscribed = budget > 0 && full_bytes >= 4 * budget;
  table.print();
  std::printf("\nfully-hydrated snapshot is %.1fx the budget (%zu vs %zu "
              "bytes)\n",
              budget == 0 ? 0.0
                          : static_cast<double>(full_bytes) /
                                static_cast<double>(budget),
              full_bytes, budget);
  std::printf("peak <= budget with evictions at 1 and 8 threads: %s\n",
              all_under && all_evicted ? "yes" : "NO");
  std::printf("reports byte-identical to the unlimited path: %s\n",
              all_equal ? "yes" : "NO");
  std::printf("verdict: out-of-core sign-off is a HIT when a layout 4x the "
              "budget\ncompletes under it with the unlimited report, byte "
              "for byte.\n");
  std::remove(path.c_str());
  return (oversubscribed && all_under && all_evicted && all_equal) ? 0 : 1;
}

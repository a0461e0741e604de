// Per-layer measurement for the traced run: accumulators the workloads
// feed from their own traced loops, the layer walk (each flow pass's
// public entry called on one snapshot, in flow order), the small probes
// that exercise a layer a workload's loop does not reach, and the one
// function that turns all of it into the named per-layer metrics.
#pragma once

#include "common.h"

#include "core/fix_engine.h"
#include "core/incremental.h"
#include "service/client.h"

#include <string>
#include <vector>

namespace perfbench {

/// PassTrace rows of a traced loop's operations (flows or applies).
struct PassAcc {
  std::size_t ops = 0;
  double op_ms = 0;      // wall time of the operations, timed from outside
  double passes_ms = 0;  // sum of their PassTrace rows
  std::map<std::string, double> pass_ms;
  std::size_t units_total = 0, units_dirty = 0;
  std::size_t drc_total = 0, drc_dirty = 0;
  double litho_ms = 0;
  std::size_t litho_recomputed = 0;
  bool litho_ran = false;
  double derive_ms = 0;
  std::size_t derives = 0;

  void add(const FlowTrace& trace, double wall_ms);
  void merge(const PassAcc& o);
};

/// Times IncrementalSnapshot(base, delta) on its own (a session's apply
/// derives the same snapshot internally) and records it in `acc`.
void time_derive(const LayoutSnapshot& base, const LayoutDelta& delta,
                 PassAcc& acc, std::uint64_t op);

/// One session apply, timed from outside and traced as "incremental.apply"
/// (with its derive timed first, and its PassTrace rows added, when `acc`
/// is given).
const DfmFlowReport& timed_apply(DfmFlowSession& session,
                                 const LayoutDelta& delta, PassAcc* acc,
                                 std::uint64_t op, double* ms);

/// What the service layer showed a client.
struct ServiceAcc {
  std::vector<double> edit_ms;      // edit round trips
  std::vector<double> read_ms;      // flow (read) round trips
  std::vector<double> overhead_ms;  // round trip - queue wait - server span
  std::vector<double> queue_ms;     // echoed queue_ns
  std::uint64_t requests = 0;
  std::uint64_t reply_bytes = 0;
  std::uint64_t backpressure = 0;  // queue_full replies

  void merge(const ServiceAcc& o);
};

/// One request. With `traced`, the request carries protocol-v3 trace
/// context so the reply echoes the server span and its queue wait.
/// Returns the reply; `rtt_ms` gets the round trip.
service::Json served_call(service::ServiceClient& client, service::Json req,
                          bool traced, ServiceAcc& acc, std::uint64_t op,
                          double* rtt_ms);

/// One served edit cycle on `session`: edit(add) -> flow -> edit(remove)
/// -> flow. Returns the four replies' reports ("error" for a failed one).
std::vector<std::string> served_cycle(service::ServiceClient& client,
                                      const std::string& session,
                                      const Patch& p, bool traced,
                                      ServiceAcc& acc, std::uint64_t op);

/// The fix layer's costs: planning, candidate apply, rollback.
struct FixAcc {
  double plan_ms = 0;
  std::size_t plans = 0;
  std::vector<double> apply_ms;
  std::vector<double> rollback_ms;
  std::size_t proposed = 0;
  std::size_t accepted = 0;
};

/// Everything a traced run collected, by layer.
struct LayerInputs {
  double read_ms = 0;
  std::uintmax_t file_bytes = 0;
  double calibration_ms = 0;
  PassAcc loop;   // the workload's traced operations
  PassAcc edits;  // edit-family source: the loop's edits, or the probe
  bool loop_has_edits = false;
  FixAcc fix;
  bool loop_has_fix = false;
  ServiceAcc service;
  bool loop_has_service = false;
  double cpu_s = 0;   // process CPU time over the traced loop
  double wall_s = 0;  // its wall time
};

/// Times the first resolve_litho_calibration in the process for the
/// litho options `o` implies. Call before any flow runs.
double time_first_calibration(const DfmFlowOptions& o);

/// The traced run's tail, shared by every workload: runs the layer walk
/// over `lib` (checking each pass against `ref`), the probes for layers
/// the loop did not exercise, sets every per-layer metric, prints the
/// self-time table and writes the span file.
void finish_traced_run(const RunConfig& cfg, const Library& lib,
                       const DfmFlowOptions& o, const DfmFlowReport& ref,
                       const std::string& gds_path, LayerInputs& in,
                       Result& res);

}  // namespace perfbench

// The benchmark's workloads. Each one generates its seeded design, writes
// it as GDSII outside timing, sets up from that file alone (setup_s),
// measures its loop for the configured seconds, and checks its outputs.
#pragma once

#include "common.h"

#include <string>
#include <vector>

namespace perfbench {

/// Runs `cfg.workload` (signoff_cold, eco_edits, fix_loop or
/// served_sessions); throws std::invalid_argument for an unknown name.
Result run_workload(const RunConfig& cfg);

/// Proves the correctness gate can fail: a report copy with one violation
/// rect moved by one unit must not compare equal. Returns true when the
/// gate behaves.
bool gate_selftest();

}  // namespace perfbench

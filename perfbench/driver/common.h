// Shared pieces of the benchmark driver: clocks and sample statistics,
// the benchmark's own span recorder, the seeded designs and edit streams
// every workload draws from, and the result record main() prints.
//
// The driver only calls dfmkit's public entry points and times each call
// from outside; it adds nothing inside src/.
#pragma once

#include "core/dfm_flow.h"
#include "core/delta.h"
#include "core/snapshot.h"
#include "gen/generators.h"
#include "layout/library.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using namespace dfm;

// ---- clocks and statistics -------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  double ms() const { return static_cast<double>(now_ns() - start_) / 1e6; }
  double s() const { return ms() / 1e3; }

 private:
  std::uint64_t start_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Peak resident set of this process (getrusage), in MB.
double peak_rss_mb();
/// CPU time (user + system) this process has used so far, in seconds.
double process_cpu_s();

// ---- spans -----------------------------------------------------------------

/// The benchmark's own trace: one span per public call it makes, kept in
/// memory and written out at exit. A span names its parent (the span open
/// on the same thread when it started) and the operation it belongs to
/// (flow, edit, proposal or request number).
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list, -1 at the root
  std::uint64_t op = 0;
  std::uint32_t thread = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  /// Opens a span when tracing is on; a no-op scope otherwise.
  Scope span(const char* name, std::uint64_t op = 0) {
    return Scope(this, name, op);
  }
  /// Records an already-measured interval (e.g. a server-side span a
  /// reply echoed) under the span currently open on this thread.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t op);

  std::vector<SpanRecord> spans() const;
  /// Self time per span name: each span's duration minus the part of it
  /// its child spans cover, summed by name.
  std::map<std::string, double> self_ms() const;
  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  void write(const std::string& path) const;

 private:
  std::int64_t open(const char* name, std::uint64_t op);
  void close(std::int64_t index);

  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer();

// ---- workloads' inputs -----------------------------------------------------

/// Threads every workload runs with: min(4, nproc).
unsigned bench_threads();

/// The f1 scaling-family design at `scale` (rows = scale, 4*scale cells
/// per row, 10*scale routes, `scale` via fields of 64 vias).
Library scaling_design(std::uint64_t seed, int scale);

/// bench_f5's defect-rich design: a routed block with `defects` labelled
/// pathologies injected into a strip below the core.
Library defect_design(std::uint64_t seed, int rows, int cells_per_row,
                      int routes, int defects);

/// One seeded ECO patch: the layer and the rect added by one edit and
/// removed by the next.
struct Patch {
  LayerKey layer;
  Rect rect;
  const char* layer_name;  // the service protocol's name for `layer`
};

/// A seeded stream of 200 x 200 dbu patches in empty space of `lib`'s
/// top cell (the stream indexes its own snapshot of the patch layers).
/// Layers rotate M1 -> M2 -> Via1; each layer's x positions follow a
/// seeded low-discrepancy sequence, so every seed spreads its patches
/// evenly over the litho tiles.
class PatchStream {
 public:
  PatchStream(const Library& lib, std::uint64_t seed);
  Patch next();

 private:
  static constexpr Coord kSize = 200;
  std::unique_ptr<LayoutSnapshot> snap_;
  std::uint64_t seed_;
  std::uint64_t count_ = 0;
  double x0_[3] = {0, 0, 0};  // per layer: sequence offset in [0, 1)
};

LayoutDelta add_delta(const Patch& p);
LayoutDelta remove_delta(const Patch& p);

/// Writes `lib` as GDSII under `dir` and returns the path and size.
std::pair<std::string, std::uintmax_t> write_design(const Library& lib,
                                                    const std::string& dir,
                                                    const std::string& stem);

/// The layer map a cold run over `lib`'s top cell starts from.
LayerMap flat_layers(const Library& lib);
/// A cold flow over `layers` (the reference the gates compare with).
DfmFlowReport cold_flow(LayerMap layers, const DfmFlowOptions& options);

// ---- results ---------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 7;         // drives the edit streams
  std::uint64_t design_seed = 7;  // drives the generated design
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  bool tiny = false;  // self-test sizes
  std::string out_dir = ".bench_build/runs";
};

/// What one workload run measured and checked.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;
  std::vector<double> op_ms;  // one sample per timed operation
  double ops_per_s = 0;
  double peak_rss_mb = 0;
  /// The workload's own names for its numbers (e.g. edit_p50_ms), printed
  /// beside the generic end-to-end metrics.
  std::vector<std::pair<std::string, Metric>> named;
  /// Per-layer metrics of a traced run.
  std::map<std::string, Metric> layers;
  std::vector<std::string> notes;  // gate failures and other remarks
  std::string summary;  // JSON object of the report counts, when pinned

  /// Records a failed correctness check: the operation counts as failed.
  void fail(const std::string& what);
};

}  // namespace perfbench

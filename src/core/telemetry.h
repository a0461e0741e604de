// Low-overhead observability for the whole toolkit: hierarchical RAII
// spans, a named metrics registry, and exporters (Chrome trace-event
// JSON for Perfetto/chrome://tracing, flat metrics JSON for the flow's
// --json report).
//
// Span model: a Span is an RAII scope recorded on the thread that runs
// it. Closing a span appends one fixed-size SpanEvent (static name
// pointer, start/end nanosecond timestamps, an integer arg, the nesting
// depth) to the recording thread's ring buffer — no allocation, no
// locks, one release-store. Buffers are bounded: when full, further
// events are dropped and counted, never overwritten, so a concurrent
// drain can read every published slot race-free. Span names must have
// static storage duration (string literals); dynamic names go through
// intern(), which is cold-path only.
//
// Recording is off by default. set_enabled(true) opens a recording
// epoch; Span construction checks one relaxed atomic load when disabled,
// which is the entire disabled-path cost.
//
// Metrics: counters (monotonic), gauges (set/add), and fixed-bucket
// histograms, all atomics, registered by name on first use; the counters
// the toolkit itself records are registered at zero up front, so every
// snapshot has the same counter keys. The TELEM_*
// macros cache the registry lookup in a function-local static, so the
// steady state is a single relaxed RMW. Out-of-range histogram values
// clamp into the edge buckets (the last bucket is an explicit overflow
// bucket); nothing is silently lost.
//
// Threading contract: record-side calls (Span, record_span, metric
// updates) are safe from any thread at any time. drain() is safe while
// threads are still recording — it snapshots each buffer's published
// prefix and may miss events still in flight. clear() and
// set_ring_capacity() require quiescence: no concurrently open spans
// (call them between flows, after worker pools have been joined).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dfm::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True while a recording epoch is open. One relaxed load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Opens (true) or closes (false) a recording epoch. Opening stamps the
/// epoch origin all exported timestamps are relative to.
void set_enabled(bool on);

/// Monotonic nanoseconds (steady clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One closed span. `name` points at interned/static storage; `depth` is
/// the span's nesting level on its thread (0 = outermost); `arg` is a
/// free integer payload (tile index, rule index, ...). `id`/`parent`
/// are optional cross-process trace-context links (see next_span_id());
/// 0 means "not part of a propagated trace" and is omitted from exports.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;
  std::uint32_t depth = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

namespace detail {
extern thread_local std::uint32_t tl_depth;
/// Appends a closed span to the calling thread's ring (registering the
/// thread on first use). Cold parts (registration) are out of line; the
/// steady state is bounds-check + slot write + release-store.
void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint32_t depth, std::uint64_t arg, std::uint64_t id = 0,
            std::uint64_t parent = 0);
}  // namespace detail

/// Process-unique span id (monotonic, never 0). The service layer uses
/// these to link spans across processes: a client stamps its request
/// span's id into the request's "parent_span" field, and the server
/// records its `service/request` span with that value as `parent`, so
/// `dfmkit trace-merge` can stitch the two timelines. Cheap (one relaxed
/// fetch_add) and meaningful even when recording is disabled.
std::uint64_t next_span_id();

/// RAII span. Construction samples the clock and opens a nesting level;
/// destruction samples again and records the closed event. When
/// telemetry is disabled at construction the span is inert (a single
/// relaxed load), even if recording is enabled before it closes.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t arg = 0) {
    if (!enabled()) return;
    name_ = name;
    arg_ = arg;
    depth_ = detail::tl_depth++;
    start_ = now_ns();
  }
  /// Span carrying trace-context links (see next_span_id()).
  Span(const char* name, std::uint64_t arg, std::uint64_t id,
       std::uint64_t parent)
      : Span(name, arg) {
    id_ = id;
    parent_ = parent;
  }
  ~Span() {
    if (name_ != nullptr) close_at(now_ns());
  }

  /// A span opened at `start_ns`, a now_ns() reading the caller keeps to
  /// time the same interval itself. Closing it with close_at() makes the
  /// recorded span and the caller's duration the same two clock reads.
  static Span opened_at(const char* name, std::uint64_t start_ns) {
    return Span(name, start_ns, OpenedAt{});
  }

  /// Closes the span at `end_ns` (a now_ns() reading) instead of at
  /// destruction. No-op on an inert or already closed span.
  void close_at(std::uint64_t end_ns) {
    if (name_ == nullptr) return;
    --detail::tl_depth;
    detail::record(name_, start_, end_ns, depth_, arg_, id_, parent_);
    name_ = nullptr;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  struct OpenedAt {};
  Span(const char* name, std::uint64_t start_ns, OpenedAt) {
    if (!enabled()) return;
    name_ = name;
    depth_ = detail::tl_depth++;
    start_ = start_ns;
  }

  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t arg_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Records an already-timed interval (for scope-free timers that bracket
/// start/finish manually). The event closes at the *current* nesting
/// depth of the calling thread. No-op while disabled.
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t arg = 0);

/// record_span() with trace-context links (see next_span_id()).
void record_span_ids(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t id,
                     std::uint64_t parent, std::uint64_t arg = 0);

/// Interns a dynamic name, returning a pointer that stays valid for the
/// process lifetime. Cold path (mutex + map); never call per-item.
const char* intern(const std::string& name);

/// JSON string escaping (quotes, backslashes, control characters) for
/// every JSON document the toolkit writes.
std::string json_escape(const std::string& s);

/// Names the calling thread's track in exported traces. Takes effect
/// whenever the thread registers (first recorded event); cheap enough to
/// call unconditionally from thread entry points.
void set_thread_name(const std::string& name);

/// Ring capacity (events per thread) for buffers registered after the
/// call. Requires quiescence. Default: 1 << 16.
void set_ring_capacity(std::size_t events);

// ---------------------------------------------------------------------------
// Metrics registry

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar, with an accumulate helper for byte totals.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts values <= bounds[i]; one
/// extra overflow bucket counts everything above the last bound, so
/// out-of-range observations clamp into the edges instead of vanishing.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  const std::vector<double>& bounds() const { return bounds_; }
  /// counts() has bounds().size() + 1 entries (last = overflow).
  std::vector<std::uint64_t> counts() const;
  std::uint64_t total() const;
  /// Sum of every observed value (Prometheus `_sum`).
  double sum() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
};

/// Looks up (registering on first use) a metric. References stay valid
/// for the process lifetime — cache them at call sites (the TELEM_*
/// macros do). Each metric kind has its own namespace: counter("x") and
/// gauge("x") are distinct metrics. A histogram's bounds are fixed by
/// its first registration; later calls with different bounds get the
/// original (first registration wins).
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name, std::vector<double> bounds);

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1, last = overflow
  std::uint64_t total = 0;
  double sum = 0;  // sum of observed values
};

/// Quantile estimate (q in [0, 1]) from a bucketed snapshot, linearly
/// interpolated within the containing bucket (the same estimator
/// Prometheus' histogram_quantile uses): bucket i spans
/// (bounds[i-1], bounds[i]], with the first bucket anchored at
/// min(0, bounds[0]). Values landing in the overflow bucket clamp to the
/// last bound — the estimate never extrapolates past it. Returns 0 for
/// an empty histogram.
double histogram_quantile(const HistogramSnapshot& h, double q);

/// q-th percentile of an ascending-sorted sample vector, nearest-rank
/// with midpoint rounding (index round(q * (n-1))). Shared by the
/// service load generator and the benches; returns 0 when empty.
double sample_percentile(const std::vector<double>& sorted, double q);

/// Point-in-time copy of every registered metric (name-sorted maps, so
/// exports are deterministic).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

MetricsSnapshot metrics_snapshot();
/// Zeroes every metric's value; registrations (and cached references)
/// survive.
void reset_metrics();

// ---------------------------------------------------------------------------
// Trace collection + export

/// One thread's recorded events, in record (close-time) order.
struct ThreadTrace {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t dropped = 0;  // events lost to ring overflow
  std::vector<SpanEvent> events;
};

struct TraceSnapshot {
  std::uint64_t epoch_ns = 0;  // origin exported timestamps are relative to
  std::vector<ThreadTrace> threads;

  std::size_t total_events() const;
  /// Deepest nesting level across all threads, as a span count (a single
  /// unnested span has depth 1); 0 when empty.
  std::uint32_t max_depth() const;
};

/// Snapshots every thread's published events (threads sorted by tid).
/// Safe concurrently with recording; does not reset anything.
TraceSnapshot drain();

/// Drops all recorded events, resets live threads' rings, and frees the
/// buffers of threads that have exited. Requires quiescence.
void clear();

/// Chrome trace-event JSON ("trace event format", JSON-object flavor):
/// thread_name metadata + one complete ("X") event per span, timestamps
/// in microseconds relative to the snapshot epoch. Loadable in Perfetto
/// and chrome://tracing. Metrics ride along under a top-level "metrics"
/// key, which viewers ignore.
std::string chrome_trace_json(const TraceSnapshot& trace,
                              const MetricsSnapshot& metrics);

/// The metrics snapshot as one flat JSON object:
/// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
std::string metrics_json(const MetricsSnapshot& metrics);

/// Prometheus text exposition (format version 0.0.4) of a snapshot:
/// one `# TYPE` comment per metric, metric names sanitized (every char
/// outside [a-zA-Z0-9_] becomes '_'), histograms as cumulative
/// `_bucket{le="..."}` series plus `_sum`/`_count`. Deterministic
/// (name-sorted, `%.6g` numbers), newline-terminated, ASCII.
std::string metrics_text(const MetricsSnapshot& metrics);

/// metrics_text(metrics_snapshot()): the live registry, scrape-ready.
/// Served by the service's "metrics" op.
std::string metrics_text();

/// Total events lost to ring overflow across every registered thread
/// buffer. Also injected into metrics_snapshot() as the
/// "telemetry.dropped_events" gauge, so
/// metrics_json/metrics_text surface it.
std::uint64_t dropped_events();

}  // namespace dfm::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros — the only API call sites should use.

#define DFM_TELEM_CAT2(a, b) a##b
#define DFM_TELEM_CAT(a, b) DFM_TELEM_CAT2(a, b)

/// Scoped span named by a string literal.
#define TELEM_SPAN(name) \
  ::dfm::telemetry::Span DFM_TELEM_CAT(telem_span_, __LINE__)(name)
/// Scoped span with an integer payload (tile/rule/window index).
#define TELEM_SPAN_ARG(name, arg)                       \
  ::dfm::telemetry::Span DFM_TELEM_CAT(telem_span_,     \
                                       __LINE__)(name,  \
                                                 static_cast<std::uint64_t>( \
                                                     arg))

#define TELEM_COUNTER_ADD(name, n)                                    \
  do {                                                                \
    static ::dfm::telemetry::Counter& telem_c_ =                      \
        ::dfm::telemetry::counter(name);                              \
    telem_c_.add(static_cast<std::uint64_t>(n));                      \
  } while (0)

#define TELEM_GAUGE_SET(name, v)                                      \
  do {                                                                \
    static ::dfm::telemetry::Gauge& telem_g_ =                        \
        ::dfm::telemetry::gauge(name);                                \
    telem_g_.set(static_cast<double>(v));                             \
  } while (0)

#define TELEM_GAUGE_ADD(name, v)                                      \
  do {                                                                \
    static ::dfm::telemetry::Gauge& telem_g_ =                        \
        ::dfm::telemetry::gauge(name);                                \
    telem_g_.add(static_cast<double>(v));                             \
  } while (0)

/// `bounds` is a braced initializer list of doubles, e.g.
/// TELEM_HIST_OBSERVE("pool.queue_depth", ({0, 1, 2, 4, 8, 16}), depth).
#define TELEM_HIST_OBSERVE(name, bounds, v)                           \
  do {                                                                \
    static ::dfm::telemetry::Histogram& telem_h_ =                    \
        ::dfm::telemetry::histogram(name, std::vector<double> bounds); \
    telem_h_.observe(static_cast<double>(v));                         \
  } while (0)

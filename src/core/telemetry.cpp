#include "core/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>

namespace dfm::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
thread_local std::uint32_t tl_depth = 0;
}  // namespace detail

namespace {

constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

// One thread's bounded event ring. Single producer (the owning thread),
// any number of concurrent readers: the producer fills slot `size`, then
// publishes with a release-store of size+1; readers acquire-load `size`
// and may touch only the published prefix. The ring never wraps — a full
// ring drops (and counts) instead — so published slots are immutable
// until clear(), which requires quiescence.
//
// Storage is chunked and allocated on demand: registration costs a small
// pointer table, and a thread that records little allocates little. This
// matters because the flow spins up a fresh pool per pass — at the old
// eager full-capacity allocation, 8 workers x 7 passes paid ~150 MB of
// ring zeroing per recorded flow; lazily it is one 1024-event chunk per
// chunk actually reached. Chunk pointers are release-published before
// the size that covers them, so readers that acquire-load `size` always
// see the chunks holding the published prefix.
struct ThreadBuffer {
  static constexpr std::size_t kChunkEvents = 1024;

  std::uint32_t tid = 0;
  std::string name;
  std::size_t capacity = 0;  // max events; fixed at registration
  std::vector<std::atomic<SpanEvent*>> chunks;
  std::atomic<std::uint32_t> size{0};  // published event count
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<bool> thread_alive{true};

  explicit ThreadBuffer(std::size_t cap)
      : capacity(cap), chunks((cap + kChunkEvents - 1) / kChunkEvents) {}
  ~ThreadBuffer() {
    for (auto& c : chunks) delete[] c.load(std::memory_order_relaxed);
  }

  void push(const SpanEvent& ev) {
    const std::uint32_t i = size.load(std::memory_order_relaxed);
    if (i >= capacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::atomic<SpanEvent*>& slot = chunks[i / kChunkEvents];
    SpanEvent* chunk = slot.load(std::memory_order_relaxed);
    if (chunk == nullptr) {  // cold: first event landing in this chunk
      chunk = new SpanEvent[kChunkEvents];
      slot.store(chunk, std::memory_order_release);
    }
    chunk[i % kChunkEvents] = ev;
    size.store(i + 1, std::memory_order_release);
  }

  /// Event i, for i < an acquire-loaded size.
  const SpanEvent& at(std::uint32_t i) const {
    return chunks[i / kChunkEvents].load(std::memory_order_relaxed)
        [i % kChunkEvents];
  }
};

struct Global {
  std::mutex mu;  // guards buffers, tid assignment, capacity
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
  std::size_t ring_capacity = kDefaultRingCapacity;
  std::atomic<std::uint64_t> epoch_ns{0};

  std::mutex intern_mu;
  std::set<std::string> interned;

  std::mutex metrics_mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

// Every counter the toolkit records, registered at zero with the
// registry, so a metrics snapshot has the same counter keys whether or
// not each one fired (a run in which no worker stole a task still
// reports pool.steals: 0). Any other name registers on first use.
constexpr const char* kCounters[] = {
    "fix.accepted",
    "fix.rejected",
    "flow.units_dirty",
    "flow.units_reused",
    "flow.units_total",
    "litho.prefilter_skip",
    "pool.steals",
    "pool.tasks_run",
    "pool.tasks_submitted",
    "service.deadline_exceeded",
    "service.protocol_errors",
    "service.rejected_backpressure",
    "service.rejected_shutdown",
    "service.requests",
    "service.sessions_evicted",
    "service.sessions_opened",
    "service.slow_requests",
};

Global& global() {
  // Leaked: outlives all thread exits.
  static Global* g = [] {
    auto* made = new Global();
    for (const char* name : kCounters) {
      made->counters[name] = std::make_unique<Counter>();
    }
    return made;
  }();
  return *g;
}

// Registered-thread state. The handle's destructor marks the buffer as
// orphaned so clear() can reclaim it; the buffer itself stays owned by
// the registry (drain after thread exit still sees its events).
struct TlsHandle {
  ThreadBuffer* buf = nullptr;
  ~TlsHandle() {
    if (buf != nullptr) {
      buf->thread_alive.store(false, std::memory_order_release);
    }
  }
};
thread_local TlsHandle tl_handle;
thread_local std::string tl_pending_name;

ThreadBuffer* register_thread() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  auto buf = std::make_unique<ThreadBuffer>(g.ring_capacity);
  buf->tid = g.next_tid++;
  buf->name = tl_pending_name.empty()
                  ? "thread " + std::to_string(buf->tid)
                  : tl_pending_name;
  ThreadBuffer* raw = buf.get();
  g.buffers.push_back(std::move(buf));
  return raw;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string us_str(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

std::string gauge_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

namespace detail {

void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint32_t depth, std::uint64_t arg, std::uint64_t id,
            std::uint64_t parent) {
  ThreadBuffer* buf = tl_handle.buf;
  if (buf == nullptr) {
    buf = tl_handle.buf = register_thread();
  }
  buf->push(SpanEvent{name, start_ns, end_ns, arg, depth, id, parent});
}

}  // namespace detail

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> seq{0};
  return seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

void set_enabled(bool on) {
  if (on && !detail::g_enabled.load(std::memory_order_relaxed)) {
    global().epoch_ns.store(now_ns(), std::memory_order_relaxed);
  }
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t arg) {
  if (!enabled()) return;
  detail::record(name, start_ns, end_ns, detail::tl_depth, arg);
}

void record_span_ids(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t id,
                     std::uint64_t parent, std::uint64_t arg) {
  if (!enabled()) return;
  detail::record(name, start_ns, end_ns, detail::tl_depth, arg, id, parent);
}

const char* intern(const std::string& name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.intern_mu);
  return g.interned.insert(name).first->c_str();
}

void set_thread_name(const std::string& name) {
  tl_pending_name = name;
  if (tl_handle.buf != nullptr) {
    // Already registered: rename in place. Cold path; racing an export's
    // name read is benign in practice but guard with the registry lock
    // so drain() (which copies under the same lock) stays clean.
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    tl_handle.buf->name = name;
  }
}

void set_ring_capacity(std::size_t events) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.ring_capacity = std::max<std::size_t>(events, 1);
}

// ---------------------------------------------------------------------------
// Metrics

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t i =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::total() const {
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.load(std::memory_order_relaxed);
  return sum;
}

double Histogram::sum() const {
  return sum_.load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double histogram_quantile(const HistogramSnapshot& h, double q) {
  q = std::min(std::max(q, 0.0), 1.0);
  std::uint64_t total = 0;
  for (const std::uint64_t c : h.counts) total += c;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const std::uint64_t next = cum + h.counts[i];
    if (rank <= static_cast<double>(next) && h.counts[i] != 0) {
      if (i >= h.bounds.size()) {
        // Overflow bucket: the upper edge is unknown, clamp to the last
        // finite bound (0 if the histogram has no bounds at all).
        return h.bounds.empty() ? 0 : h.bounds.back();
      }
      const double lo = i == 0 ? std::min(0.0, h.bounds[0]) : h.bounds[i - 1];
      const double hi = h.bounds[i];
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(h.counts[i]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return h.bounds.empty() ? 0 : h.bounds.back();
}

double sample_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

Counter& counter(const std::string& name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.metrics_mu);
  auto& slot = g.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.metrics_mu);
  auto& slot = g.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name, std::vector<double> bounds) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.metrics_mu);
  auto& slot = g.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::uint64_t dropped_events() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  std::uint64_t n = 0;
  for (const auto& buf : g.buffers) {
    n += buf->dropped.load(std::memory_order_relaxed);
  }
  return n;
}

MetricsSnapshot metrics_snapshot() {
  const std::uint64_t dropped = dropped_events();
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.metrics_mu);
  MetricsSnapshot snap;
  for (const auto& [name, c] : g.counters) snap.counters[name] = c->value();
  for (const auto& [name, v] : g.gauges) snap.gauges[name] = v->value();
  for (const auto& [name, h] : g.histograms) {
    snap.histograms[name] =
        HistogramSnapshot{h->bounds(), h->counts(), h->total(), h->sum()};
  }
  // Surface ring-overflow losses next to the metrics they taint.
  snap.gauges["telemetry.dropped_events"] = static_cast<double>(dropped);
  return snap;
}

void reset_metrics() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.metrics_mu);
  for (const auto& [name, c] : g.counters) c->reset();
  for (const auto& [name, v] : g.gauges) v->reset();
  for (const auto& [name, h] : g.histograms) h->reset();
}

// ---------------------------------------------------------------------------
// Collection + export

std::size_t TraceSnapshot::total_events() const {
  std::size_t n = 0;
  for (const ThreadTrace& t : threads) n += t.events.size();
  return n;
}

std::uint32_t TraceSnapshot::max_depth() const {
  std::uint32_t d = 0;
  for (const ThreadTrace& t : threads) {
    for (const SpanEvent& e : t.events) d = std::max(d, e.depth + 1);
  }
  return d;
}

TraceSnapshot drain() {
  Global& g = global();
  TraceSnapshot snap;
  snap.epoch_ns = g.epoch_ns.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g.mu);
  snap.threads.reserve(g.buffers.size());
  for (const auto& buf : g.buffers) {
    ThreadTrace t;
    t.tid = buf->tid;
    t.name = buf->name;
    t.dropped = buf->dropped.load(std::memory_order_relaxed);
    const std::uint32_t n = buf->size.load(std::memory_order_acquire);
    t.events.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) t.events.push_back(buf->at(i));
    snap.threads.push_back(std::move(t));
  }
  std::sort(snap.threads.begin(), snap.threads.end(),
            [](const ThreadTrace& a, const ThreadTrace& b) {
              return a.tid < b.tid;
            });
  return snap;
}

void clear() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  auto keep = g.buffers.begin();
  for (auto& buf : g.buffers) {
    if (!buf->thread_alive.load(std::memory_order_acquire)) {
      continue;  // thread exited: free the buffer
    }
    buf->size.store(0, std::memory_order_relaxed);
    buf->dropped.store(0, std::memory_order_relaxed);
    if (&*keep != &buf) *keep = std::move(buf);
    ++keep;
  }
  g.buffers.erase(keep, g.buffers.end());
}

std::string chrome_trace_json(const TraceSnapshot& trace,
                              const MetricsSnapshot& metrics) {
  std::string out = "{\n\"traceEvents\": [\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": \"dfmkit\"}}";
  std::uint64_t dropped = 0;
  for (const ThreadTrace& t : trace.threads) {
    dropped += t.dropped;
    out += ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(t.tid) + ", \"args\": {\"name\": \"" +
           json_escape(t.name) + "\"}}";
    // Sort by start (ties: longer span first) so parents precede their
    // children, which keeps the output stable and viewers honest.
    std::vector<const SpanEvent*> order;
    order.reserve(t.events.size());
    for (const SpanEvent& e : t.events) order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                if (a->start_ns != b->start_ns) {
                  return a->start_ns < b->start_ns;
                }
                return a->end_ns > b->end_ns;
              });
    for (const SpanEvent* e : order) {
      const std::uint64_t rel =
          e->start_ns >= trace.epoch_ns ? e->start_ns - trace.epoch_ns : 0;
      out += ",\n{\"name\": \"" + json_escape(e->name ? e->name : "?") +
             "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
             std::to_string(t.tid) + ", \"ts\": " + us_str(rel) +
             ", \"dur\": " + us_str(e->end_ns - e->start_ns) +
             ", \"args\": {\"arg\": " + std::to_string(e->arg) +
             ", \"depth\": " + std::to_string(e->depth);
      // Trace-context links ride in args only when set, so traces that
      // never propagate context keep their historical byte shape.
      if (e->id != 0) out += ", \"span_id\": " + std::to_string(e->id);
      if (e->parent != 0) {
        out += ", \"parent_span\": " + std::to_string(e->parent);
      }
      out += "}}";
    }
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n";
  out += "\"otherData\": {\"tool\": \"dfmkit\", \"dropped_events\": " +
         std::to_string(dropped) + "},\n";
  out += "\"metrics\": " + metrics_json(metrics);
  out += "\n}\n";
  return out;
}

std::string metrics_json(const MetricsSnapshot& metrics) {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : metrics.counters) {
    out += std::string(first ? "" : ", ") + "\"" + json_escape(name) +
           "\": " + std::to_string(v);
    first = false;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : metrics.gauges) {
    out += std::string(first ? "" : ", ") + "\"" + json_escape(name) +
           "\": " + gauge_str(v);
    first = false;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : metrics.histograms) {
    out += std::string(first ? "" : ", ") + "\"" + json_escape(name) +
           "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      out += (i ? ", " : "") + gauge_str(h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(h.counts[i]);
    }
    out += "], \"total\": " + std::to_string(h.total) + "}";
    first = false;
  }
  out += "}}";
  return out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; we map everything else
/// (dots, slashes, dashes) to '_' and guard a leading digit.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

}  // namespace

std::string metrics_text(const MetricsSnapshot& metrics) {
  std::string out;
  for (const auto& [name, v] : metrics.counters) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : metrics.gauges) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + gauge_str(v) + "\n";
  }
  for (const auto& [name, h] : metrics.histograms) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cum += i < h.counts.size() ? h.counts[i] : 0;
      out += p + "_bucket{le=\"" + gauge_str(h.bounds[i]) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h.total) + "\n";
    out += p + "_sum " + gauge_str(h.sum) + "\n";
    out += p + "_count " + std::to_string(h.total) + "\n";
  }
  return out;
}

std::string metrics_text() { return metrics_text(metrics_snapshot()); }

}  // namespace dfm::telemetry

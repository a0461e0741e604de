// Out-of-core snapshot plumbing: the geometry source a LayoutSnapshot
// can lazily hydrate from, and the byte budget that decides when
// hydrated state must be evicted again.
//
// A SnapshotSource answers three questions about a design without
// holding its flattened form resident: the exact bbox of a layer, the
// layer's full canonical geometry, and the geometry clipped to a window.
// Implementations: LibrarySource (wraps an in-memory Library; the
// compatibility anchor) and the mmap-backed GdsStreamSource /
// OasStreamSource (core/stream_source.h).
//
// A SnapshotBudget is always attached to a snapshot, even with no limit
// configured — accounting is unconditional so an unlimited run measures
// the fully-hydrated high-water mark (what bench_f4_outofcore sizes its
// budget from), and only *eviction* is gated on the limit.
#pragma once

#include "geometry/region.h"
#include "layout/layer_map.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace dfm {

class Library;

/// Thread-safe byte accounting for one snapshot (or a session's chain of
/// them). charge/release use relaxed atomics; `peak` is the high-water
/// mark of `current`. The event counters separate first-time hydrations
/// from re-hydrations after an eviction, so cache build statistics (which
/// feed the canonical flow report) stay budget-independent while the
/// eviction traffic remains observable.
class SnapshotBudget {
 public:
  explicit SnapshotBudget(std::size_t limit = 0) : limit_(limit) {}

  /// Byte limit hydrated state should stay under; 0 = unlimited
  /// (accounting still runs).
  std::size_t limit() const { return limit_.load(std::memory_order_relaxed); }
  void set_limit(std::size_t limit) {
    limit_.store(limit, std::memory_order_relaxed);
  }

  std::size_t current() const {
    return current_.load(std::memory_order_relaxed);
  }
  std::size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  bool over() const {
    const std::size_t lim = limit();
    return lim != 0 && current() > lim;
  }

  void charge(std::size_t bytes) {
    const std::size_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t seen = peak_.load(std::memory_order_relaxed);
    while (seen < now &&
           !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  void release(std::size_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::uint64_t hydrations() const {
    return hydrations_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t rehydrations() const {
    return rehydrations_.load(std::memory_order_relaxed);
  }
  void count_hydration() {
    hydrations_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_eviction() { evictions_.fetch_add(1, std::memory_order_relaxed); }
  void count_rehydration() {
    rehydrations_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> limit_;
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> hydrations_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> rehydrations_{0};
};

/// On-demand flattened geometry for one top cell of one design. All
/// methods are const and thread-safe; repeated reads of the same layer
/// return canonically identical geometry (hydrate -> evict -> re-hydrate
/// is deterministic by construction).
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;

  /// Human-readable origin ("library", "gds:/path", ...).
  virtual std::string describe() const = 0;
  /// Exact bbox of read_layer(k) — empty when the layer has no geometry.
  virtual Rect layer_bbox(LayerKey k) const = 0;
  /// Full flattened layer (canonical after normalization).
  virtual Region read_layer(LayerKey k) const = 0;
  /// Flattened layer clipped to `window`; point-set equal to
  /// read_layer(k).clipped(window) but needn't materialize the layer.
  virtual Region read_layer_window(LayerKey k, const Rect& window) const = 0;
};

/// SnapshotSource over an in-memory Library: flattens on demand. The
/// equivalence anchor the streaming sources are tested against, and the
/// source behind eager snapshots that want eviction anyway.
class LibrarySource : public SnapshotSource {
 public:
  LibrarySource(std::shared_ptr<const Library> lib, std::uint32_t top);

  std::string describe() const override;
  Rect layer_bbox(LayerKey k) const override;
  Region read_layer(LayerKey k) const override;
  Region read_layer_window(LayerKey k, const Rect& window) const override;

 private:
  std::shared_ptr<const Library> lib_;
  std::uint32_t top_;
};

/// Parses a human byte size: a plain integer, optionally suffixed with
/// K/M/G (powers of 1024, case-insensitive, optional trailing "B" or
/// "iB"). Returns false on anything else, and on a size std::size_t
/// cannot hold (which must not wrap to 0, the unlimited budget).
bool parse_byte_size(const std::string& text, std::size_t* out);

/// Parses a count flag such as --threads or --workers: decimal digits
/// only (no sign, space or suffix) with a value of at most `max`.
/// Anything else throws std::runtime_error
/// "<what>: expected a whole number from 0 to <max>, got '<text>'", so
/// "-1" never wraps to the target type's maximum.
std::uint64_t parse_count(const std::string& what, const std::string& text,
                          std::uint64_t max);

/// Parses a threshold flag such as --min-gain: a finite decimal number
/// of at least 0 and nothing else. Anything else ("0.1x", "nan", "inf",
/// "-1", a leading space) throws std::runtime_error "<what>: expected a
/// finite number of at least 0, got '<text>'".
double parse_threshold(const std::string& what, const std::string& text);

}  // namespace dfm

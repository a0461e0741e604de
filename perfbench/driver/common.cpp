#include "common.h"

#include "gdsii/gdsii.h"
#include "gen/rng.h"
#include "layout/tech.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---- spans -----------------------------------------------------------------

namespace {

thread_local std::int64_t t_open = -1;  // innermost open span on this thread

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t op)
    : tracer_(t) {
  if (tracer_->on()) index_ = tracer_->open(name, op);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_->close(index_);
}

std::int64_t Tracer::open(const char* name, std::uint64_t op) {
  SpanRecord s;
  s.name = name;
  s.parent = t_open;
  s.op = op;
  s.thread = thread_number();
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  t_open = static_cast<std::int64_t>(spans_.size() - 1);
  return t_open;
}

void Tracer::close(std::int64_t index) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = end;
  t_open = s.parent;
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t op) {
  if (!on_) return;
  SpanRecord s;
  s.name = name;
  s.parent = t_open;
  s.op = op;
  s.thread = thread_number();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<double> child_ms(all.size(), 0.0);
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.ms();
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[all[i].name] += std::max(0.0, all[i].ms() - child_ms[i]);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::uint64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
        "\"parent\": %lld, \"op\": %llu}}%s\n",
        s.name.c_str(), s.thread,
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
        static_cast<long long>(s.parent),
        static_cast<unsigned long long>(s.op),
        i + 1 < all.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

// ---- inputs ----------------------------------------------------------------

unsigned bench_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

Library scaling_design(std::uint64_t seed, int scale) {
  DesignParams p;
  p.seed = seed;
  p.name = "f1_s" + std::to_string(scale);
  p.rows = scale;
  p.cells_per_row = 4 * scale;
  p.routes = 10 * scale;
  p.via_fields = scale;
  p.vias_per_field = 64;
  return generate_design(p);
}

Library defect_design(std::uint64_t seed, int rows, int cells_per_row,
                      int routes, int defects) {
  DesignParams p;
  p.seed = seed;
  p.name = "f5_" + std::to_string(seed);
  p.rows = rows;
  p.cells_per_row = cells_per_row;
  p.routes = routes;
  Library lib = generate_design(p);
  const std::uint32_t top = lib.top_cells()[0];
  Rng rng(seed ^ 0xD0D0);
  const Rect core = lib.bbox(top);
  const Rect strip{core.lo.x, core.lo.y - 60000, core.hi.x + 60000,
                   core.lo.y - 4000};
  inject_pathologies(lib.cell(top), rng, p.tech, strip, defects);
  return lib;
}

namespace {

constexpr LayerKey kPatchLayers[3] = {layers::kMetal1, layers::kMetal2,
                                      layers::kVia1};
constexpr const char* kPatchNames[3] = {"m1", "m2", "via1"};

}  // namespace

PatchStream::PatchStream(const Library& lib, std::uint64_t seed)
    : snap_(std::make_unique<LayoutSnapshot>(
          lib, lib.top_cells()[0],
          std::vector<LayerKey>(std::begin(kPatchLayers),
                                std::end(kPatchLayers)))),
      seed_(seed) {
  Rng rng(seed ^ 0xEC0EC0);
  for (double& x : x0_) x = rng.uniform01();
}

Patch PatchStream::next() {
  constexpr double kGolden = 0.6180339887498949;
  const std::uint64_t n = count_++;
  const auto l = static_cast<std::size_t>(n % 3);
  const LayerKey layer = kPatchLayers[l];
  const RTree& index = snap_->rtree(layer);
  // Keep clear of the bbox edge so no edit moves the layout's extent.
  const Rect box = snap_->bbox().expanded(-4 * kSize);
  const Coord span_x = std::max<Coord>(1, box.width() - kSize);
  const Coord span_y = std::max<Coord>(1, box.height() - kSize);
  Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + n);
  // x follows a golden-ratio sequence per layer, so any prefix of the
  // stream covers the layout's width (and its litho tiles) evenly; y is
  // seeded. The spot must be empty with a margin, so an added patch
  // touches no existing shape and its removal restores the layout.
  for (std::uint64_t k = n / 3;; k += 7) {
    double frac = x0_[l] + static_cast<double>(k) * kGolden;
    frac -= static_cast<double>(static_cast<std::uint64_t>(frac));
    const Coord x = box.lo.x + static_cast<Coord>(frac * static_cast<double>(span_x));
    for (int attempt = 0; attempt < 64; ++attempt) {
      const Coord y = box.lo.y + rng.uniform(0, span_y);
      const Rect r{x, y, x + kSize, y + kSize};
      if (index.query(r.expanded(kSize / 2)).empty()) {
        return Patch{layer, r, kPatchNames[l]};
      }
    }
    if (k > n / 3 + 7 * 64) break;
  }
  throw std::runtime_error("patch stream: no empty spot on the layout");
}

LayoutDelta add_delta(const Patch& p) {
  LayoutDelta d;
  d.add(p.layer, p.rect);
  return d;
}

LayoutDelta remove_delta(const Patch& p) {
  LayoutDelta d;
  d.remove(p.layer, p.rect);
  return d;
}

std::pair<std::string, std::uintmax_t> write_design(const Library& lib,
                                                    const std::string& dir,
                                                    const std::string& stem) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + stem + ".gds";
  write_gdsii_file(lib, path);
  return {path, std::filesystem::file_size(path)};
}

LayerMap flat_layers(const Library& lib) {
  const LayoutSnapshot snap(lib, lib.top_cells()[0]);
  return snap.layers();
}

DfmFlowReport cold_flow(LayerMap layers, const DfmFlowOptions& options) {
  const LayoutSnapshot snap(std::move(layers));
  return run_dfm_flow(snap, options);
}

void Result::fail(const std::string& what) {
  correct = false;
  ++failed;
  notes.push_back("FAILED: " + what);
}

}  // namespace perfbench

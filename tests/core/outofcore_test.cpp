// Out-of-core snapshot coverage: streaming readers vs full in-memory
// decode, lazy hydration, deterministic hydrate -> evict -> re-hydrate,
// and full-flow report bit-identity across memory budgets and thread
// counts.
#include "core/dfm_flow.h"
#include "core/incremental.h"
#include "core/snapshot.h"
#include "core/stream_source.h"
#include "gdsii/gds_stream.h"
#include "gdsii/gdsii.h"
#include "oasis/oas_stream.h"
#include "oasis/oasis.h"

#include "gen/generators.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace dfm {
namespace {

Library make_design(unsigned seed = 7) {
  DesignParams p;
  p.seed = seed;
  p.rows = 2;
  p.cells_per_row = 4;
  p.routes = 6;
  return generate_design(p);
}

std::string gds_bytes(const Library& lib) {
  std::stringstream ss;
  write_gdsii(lib, ss);
  return ss.str();
}

std::string oas_bytes(const Library& lib) {
  std::stringstream ss;
  write_oasis(lib, ss);
  return ss.str();
}

// A temp file that cleans up after itself (the mmap path needs real
// files).
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name, const std::string& bytes)
      : path(::testing::TempDir() + name) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(GdsStream, FullLayerMatchesInMemoryFlatten) {
  const Library lib = make_design();
  const std::string bytes = gds_bytes(lib);
  const GdsStreamReader reader = GdsStreamReader::from_bytes(bytes);

  const std::uint32_t top_mem = lib.top_cells().front();
  const std::uint32_t top_stream = reader.top_cell();
  for (const LayerKey k : lib.layers()) {
    Region eager = lib.flatten(top_mem, k);
    Region streamed = reader.read_layer(top_stream, k);
    EXPECT_EQ(eager, streamed) << "layer " << to_string(k);
    EXPECT_EQ(eager.bbox(), reader.layer_bbox(top_stream, k))
        << "bbox of layer " << to_string(k);
  }
}

TEST(GdsStream, WindowsMatchInMemoryWindowFlatten) {
  const Library lib = make_design();
  const std::string bytes = gds_bytes(lib);
  const GdsStreamReader reader = GdsStreamReader::from_bytes(bytes);

  const std::uint32_t top_mem = lib.top_cells().front();
  const std::uint32_t top_stream = reader.top_cell();
  const Rect full = lib.bbox(top_mem);
  ASSERT_FALSE(full.is_empty());
  // A 3x3 grid of windows plus a window hanging off the layout edge.
  const Coord w3 = (full.hi.x - full.lo.x) / 3;
  const Coord h3 = (full.hi.y - full.lo.y) / 3;
  std::vector<Rect> windows;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      windows.push_back(Rect{full.lo.x + i * w3, full.lo.y + j * h3,
                             full.lo.x + (i + 1) * w3,
                             full.lo.y + (j + 1) * h3});
    }
  }
  windows.push_back(Rect{full.hi.x - w3 / 2, full.hi.y - h3 / 2,
                         full.hi.x + w3, full.hi.y + h3});
  for (const LayerKey k : lib.layers()) {
    for (const Rect& win : windows) {
      EXPECT_EQ(lib.flatten_window(top_mem, k, win),
                reader.read_layer_window(top_stream, k, win))
          << "layer " << to_string(k);
    }
  }
}

TEST(GdsStream, UnionOfTileHydrationsEqualsEagerFlatten) {
  // The exact identity the lazily-hydrated snapshot depends on: the union
  // of per-tile window reads, re-normalized, is canonically equal to the
  // eager whole-layer flatten.
  const Library lib = make_design();
  const GdsStreamReader reader = GdsStreamReader::from_bytes(gds_bytes(lib));
  const std::uint32_t top_mem = lib.top_cells().front();
  const std::uint32_t top_stream = reader.top_cell();
  const Rect full = lib.bbox(top_mem);
  const Coord tile = (full.hi.x - full.lo.x) / 4 + 1;
  for (const LayerKey k : lib.layers()) {
    Region acc;
    for (Coord y = full.lo.y; y < full.hi.y; y += tile) {
      for (Coord x = full.lo.x; x < full.hi.x; x += tile) {
        acc.add(reader.read_layer_window(
            top_stream, k, Rect{x, y, x + tile, y + tile}));
      }
    }
    EXPECT_EQ(lib.flatten(top_mem, k), acc) << "layer " << to_string(k);
  }
}

TEST(GdsStream, MmapPathMatchesFromBytes) {
  const Library lib = make_design();
  const std::string bytes = gds_bytes(lib);
  const TempFile f("outofcore_stream.gds", bytes);
  const GdsStreamReader mapped(f.path);
  const GdsStreamReader in_mem = GdsStreamReader::from_bytes(bytes);
  ASSERT_EQ(mapped.index().cell_count(), in_mem.index().cell_count());
  const std::uint32_t top = mapped.top_cell();
  EXPECT_EQ(top, in_mem.top_cell());
  for (const LayerKey k : mapped.layers()) {
    EXPECT_EQ(mapped.read_layer(top, k), in_mem.read_layer(top, k));
  }
}

TEST(GdsStream, ReadLibraryMatchesIstreamReader) {
  const Library lib = make_design();
  const std::string bytes = gds_bytes(lib);
  std::stringstream ss(bytes);
  const Library via_stream = read_gdsii(ss);
  const Library via_index = GdsStreamReader::from_bytes(bytes).read_library();
  ASSERT_EQ(via_stream.cell_count(), via_index.cell_count());
  const std::uint32_t top = via_stream.top_cells().front();
  for (const LayerKey k : via_stream.layers()) {
    EXPECT_EQ(via_stream.flatten(top, k), via_index.flatten(top, k));
  }
}

TEST(OasStream, FullLayerMatchesInMemoryFlatten) {
  const Library lib = make_design(11);
  const std::string bytes = oas_bytes(lib);
  const OasStreamReader reader = OasStreamReader::from_bytes(bytes);
  const std::uint32_t top_mem = lib.top_cells().front();
  const std::uint32_t top_stream = reader.top_cell();
  for (const LayerKey k : lib.layers()) {
    EXPECT_EQ(lib.flatten(top_mem, k), reader.read_layer(top_stream, k))
        << "layer " << to_string(k);
    EXPECT_EQ(lib.flatten(top_mem, k).bbox(),
              reader.layer_bbox(top_stream, k))
        << "bbox of layer " << to_string(k);
  }
}

TEST(OasStream, WindowsMatchInMemoryWindowFlatten) {
  const Library lib = make_design(11);
  const OasStreamReader reader = OasStreamReader::from_bytes(oas_bytes(lib));
  const std::uint32_t top_mem = lib.top_cells().front();
  const std::uint32_t top_stream = reader.top_cell();
  const Rect full = lib.bbox(top_mem);
  const Coord w2 = (full.hi.x - full.lo.x) / 2;
  const Coord h2 = (full.hi.y - full.lo.y) / 2;
  for (const LayerKey k : lib.layers()) {
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) {
        const Rect win{full.lo.x + i * w2, full.lo.y + j * h2,
                       full.lo.x + (i + 1) * w2, full.lo.y + (j + 1) * h2};
        EXPECT_EQ(lib.flatten_window(top_mem, k, win),
                  reader.read_layer_window(top_stream, k, win))
            << "layer " << to_string(k);
      }
    }
  }
}

TEST(OasStream, MmapPathMatchesFromBytes) {
  const Library lib = make_design(11);
  const std::string bytes = oas_bytes(lib);
  const TempFile f("outofcore_stream.oas", bytes);
  const OasStreamReader mapped(f.path);
  const OasStreamReader in_mem = OasStreamReader::from_bytes(bytes);
  const std::uint32_t top = mapped.top_cell();
  for (const LayerKey k : mapped.layers()) {
    EXPECT_EQ(mapped.read_layer(top, k), in_mem.read_layer(top, k));
  }
}

TEST(OasStream, ReadLibraryMatchesIstreamReader) {
  const Library lib = make_design(11);
  const std::string bytes = oas_bytes(lib);
  std::stringstream ss(bytes);
  const Library via_stream = read_oasis(ss);
  const Library via_index = OasStreamReader::from_bytes(bytes).read_library();
  ASSERT_EQ(via_stream.cell_count(), via_index.cell_count());
  const std::uint32_t top = via_stream.top_cells().front();
  for (const LayerKey k : via_stream.layers()) {
    EXPECT_EQ(via_stream.flatten(top, k), via_index.flatten(top, k));
  }
}

// The in-memory reader picks the format by file magic, as the streamed
// open does, so a mis-named file reads the same either way.
TEST(ReadLayoutFile, PicksTheFormatByMagicNotByName) {
  const Library lib = make_design(13);
  const TempFile oas_as_gds("outofcore_misnamed.gds", oas_bytes(lib));
  const TempFile gds_as_oas("outofcore_misnamed.oas", gds_bytes(lib));
  const Library want = read_oasis_file(oas_as_gds.path);
  const Library got = read_layout_file(oas_as_gds.path);
  ASSERT_EQ(got.cell_count(), want.cell_count());
  const std::uint32_t top = want.top_cells().front();
  for (const LayerKey k : want.layers()) {
    EXPECT_EQ(got.flatten(top, k), want.flatten(top, k));
  }
  const Library gds = read_layout_file(gds_as_oas.path);
  for (const LayerKey k : want.layers()) {
    EXPECT_EQ(gds.flatten(gds.top_cells().front(), k), want.flatten(top, k));
  }
  EXPECT_THROW(read_layout_file(::testing::TempDir() + "outofcore_absent.gds"),
               std::runtime_error);
}

std::shared_ptr<const SnapshotSource> gds_source(const Library& lib) {
  return std::make_shared<GdsStreamSource>(
      GdsStreamReader::from_bytes(gds_bytes(lib)));
}

TEST(LazySnapshot, MatchesEagerSnapshot) {
  const Library lib = make_design();
  const std::uint32_t top = lib.top_cells().front();
  const LayoutSnapshot eager(lib, top);
  const LayoutSnapshot lazy(gds_source(lib),
                            LayoutSnapshot::standard_flow_layers());

  EXPECT_EQ(eager.bbox(), lazy.bbox());
  ASSERT_EQ(eager.layer_keys(), lazy.layer_keys());
  for (const LayerKey k : eager.layer_keys()) {
    EXPECT_EQ(eager.layer(k).region(), lazy.layer(k).region())
        << "layer " << to_string(k);
    EXPECT_EQ(eager.rtree(k).size(), lazy.rtree(k).size());
    EXPECT_EQ(eager.edges(k).size(), lazy.edges(k).size());
    EXPECT_EQ(eager.density(k, 5000).values, lazy.density(k, 5000).values);
  }
  // Same access pattern => identical cache accounting, lazy or not.
  EXPECT_EQ(eager.cache_stats().builds(), lazy.cache_stats().builds());
  EXPECT_EQ(eager.cache_stats().reads(), lazy.cache_stats().reads());
}

TEST(LazySnapshot, NothingHydratedUntilTouched) {
  const Library lib = make_design();
  const LayoutSnapshot lazy(gds_source(lib),
                            LayoutSnapshot::standard_flow_layers());
  EXPECT_EQ(lazy.budget().current(), 0u);
  EXPECT_EQ(lazy.budget().hydrations(), 0u);
  EXPECT_TRUE(lazy.evictable());

  (void)lazy.layer(layers::kMetal1);
  EXPECT_EQ(lazy.budget().hydrations(), 1u);
  EXPECT_GT(lazy.budget().current(), 0u);
}

TEST(LazySnapshot, EvictRehydrateIsBitIdentical) {
  const Library lib = make_design();
  const LayoutSnapshot lazy(gds_source(lib),
                            LayoutSnapshot::standard_flow_layers());

  const std::vector<Rect> first = lazy.layer(layers::kMetal1).rects();
  const std::size_t rtree_size = lazy.rtree(layers::kMetal1).size();
  const std::size_t edge_count = lazy.edges(layers::kMetal1).size();
  const SnapshotCacheStats before = lazy.cache_stats();

  EXPECT_GT(lazy.evict_derived(layers::kMetal1), 0u);
  EXPECT_GT(lazy.evict_geometry(layers::kMetal1), 0u);
  EXPECT_GE(lazy.budget().evictions(), 2u);

  EXPECT_EQ(lazy.layer(layers::kMetal1).rects(), first);
  EXPECT_EQ(lazy.rtree(layers::kMetal1).size(), rtree_size);
  EXPECT_EQ(lazy.edges(layers::kMetal1).size(), edge_count);

  // Rebuilds count as re-hydrations, not builds: the cache stats (which
  // feed the canonical flow report) are identical to a run that never
  // evicted.
  EXPECT_EQ(lazy.cache_stats().builds(), before.builds());
  EXPECT_GE(lazy.budget().rehydrations(), 3u);
}

TEST(LazySnapshot, EvictToBudgetSparesKeepSet) {
  const Library lib = make_design();
  const LayoutSnapshot lazy(gds_source(lib),
                            LayoutSnapshot::standard_flow_layers());
  for (const LayerKey k : lazy.layer_keys()) {
    (void)lazy.layer(k);
    (void)lazy.rtree(k);
  }
  const std::size_t hydrated = lazy.budget().current();
  ASSERT_GT(hydrated, 0u);

  // A pathological 1-byte budget: everything evictable must go, but the
  // keep set's geometry survives.
  lazy.budget().set_limit(1);
  const std::size_t m1_bytes =
      lazy.layer(layers::kMetal1).rects().size() * sizeof(Rect);
  const std::size_t freed = lazy.evict_to_budget({layers::kMetal1});
  EXPECT_EQ(lazy.budget().current(), m1_bytes);
  EXPECT_EQ(freed, hydrated - m1_bytes);

  // Everything still reads back identically afterwards.
  const LayoutSnapshot eager(lib, lib.top_cells().front());
  for (const LayerKey k : eager.layer_keys()) {
    EXPECT_EQ(eager.layer(k).region(), lazy.layer(k).region())
        << "layer " << to_string(k);
  }
}

TEST(LazySnapshot, EagerSnapshotStillAccountsBytes) {
  const Library lib = make_design();
  const LayoutSnapshot eager(lib, lib.top_cells().front());
  EXPECT_FALSE(eager.evictable());
  EXPECT_GT(eager.budget().current(), 0u);
  EXPECT_EQ(eager.budget().peak(), eager.budget().current());
  // Geometry of an eager snapshot cannot be dropped.
  EXPECT_EQ(eager.evict_geometry(layers::kMetal1), 0u);
}

DfmFlowOptions flow_options(unsigned threads, std::size_t budget) {
  DfmFlowOptions opt;
  opt.tech = Tech::standard();
  opt.model.sigma = 25;
  opt.model.px = 5;
  opt.threads = threads;
  opt.memory_budget = budget;
  return opt;
}

// The tentpole guarantee: the canonical flow report is byte-identical at
// every memory budget (unlimited / tight / pathological) and thread
// count, on both the in-memory and the streaming path.
TEST(OutOfCoreFlow, ReportBitIdenticalAcrossBudgetsAndThreads) {
  const Library lib = make_design();
  const std::uint32_t top = lib.top_cells().front();

  const DfmFlowReport baseline = run_dfm_flow(lib, top, flow_options(1, 0));
  const std::string want = flow_report_canonical_json(baseline);

  // Tight = roughly half the fully-hydrated high-water mark; the
  // unlimited run measures it.
  const LayoutSnapshot probe(gds_source(lib),
                             LayoutSnapshot::standard_flow_layers());
  (void)run_dfm_flow(probe, flow_options(1, 0));
  const std::size_t high_water = probe.budget().peak();
  ASSERT_GT(high_water, 0u);

  for (const std::size_t budget :
       {std::size_t{0}, high_water / 2, std::size_t{1}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      const DfmFlowReport lazy =
          run_dfm_flow(gds_source(lib), flow_options(threads, budget));
      EXPECT_EQ(want, flow_report_canonical_json(lazy))
          << "budget=" << budget << " threads=" << threads;

      const DfmFlowReport mem =
          run_dfm_flow(lib, top, flow_options(threads, budget));
      EXPECT_EQ(want, flow_report_canonical_json(mem))
          << "in-memory, budget=" << budget << " threads=" << threads;
    }
  }
}

TEST(OutOfCoreFlow, SessionEditsBitIdenticalUnderBudget) {
  const Library lib = make_design();
  const std::uint32_t top = lib.top_cells().front();
  const Rect box{1000, 1000, 1400, 1200};

  const auto run_edit = [&](unsigned threads, std::size_t budget) {
    DfmFlowSession session(lib, top, flow_options(threads, budget));
    LayoutDelta delta;
    delta.add(layers::kMetal1, box);
    return flow_report_canonical_json(session.apply(delta));
  };
  const std::string want = run_edit(1, 0);
  for (const std::size_t budget : {std::size_t{200} << 10, std::size_t{1}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(want, run_edit(threads, budget))
          << "budget=" << budget << " threads=" << threads;
    }
  }
}

// Edits keep a streamed session out-of-core: every derived snapshot
// shares the slots of its clean layers, which stay source-backed, so
// under a tight budget the flow keeps evicting clean geometry and
// re-reading it from the source. Every report is byte-identical to an
// unlimited in-memory session taking the same edits, and equivalent to
// a cold run over the edited layout.
TEST(OutOfCoreFlow, EditedSessionStaysEvictable) {
  const Library lib = make_design();
  LayerMap shadow = LayoutSnapshot(lib, lib.top_cells().front()).layers();
  const LayoutSnapshot probe(gds_source(lib),
                             LayoutSnapshot::standard_flow_layers());
  (void)run_dfm_flow(probe, flow_options(1, 0));
  const std::size_t tight = probe.budget().peak() / 4;

  DfmFlowSession session(gds_source(lib), flow_options(1, tight));
  DfmFlowSession unlimited(shadow, flow_options(1, 0));
  const Rect bb = session.snapshot().bbox();
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    const LayerKey k = i % 2 == 0 ? layers::kMetal1 : layers::kMetal2;
    const Coord x = bb.lo.x + (bb.hi.x - bb.lo.x) * (i + 1) / 6;
    const Coord y = bb.lo.y + (bb.hi.y - bb.lo.y) * (4 - i) / 6;
    LayoutDelta d;
    d.add(k, Rect{x, y, x + 200, y + 200});
    const SnapshotBudget& budget = session.snapshot().budget();
    const std::uint64_t evictions = budget.evictions();
    const std::uint64_t rehydrations = budget.rehydrations();
    const DfmFlowReport& rep = session.apply(d);
    d.apply(shadow);

    const LayoutSnapshot& snap = session.snapshot();
    EXPECT_TRUE(snap.evictable());
    EXPECT_GT(budget.evictions(), evictions);
    EXPECT_GT(budget.rehydrations(), rehydrations);
    EXPECT_EQ(flow_report_canonical_json(rep),
              flow_report_canonical_json(unlimited.apply(d)));
    EXPECT_TRUE(reports_equivalent(
        rep, run_dfm_flow(LayoutSnapshot(shadow), flow_options(1, 0))));

    // The never-edited poly layer drops and re-reads from the source.
    (void)snap.layer(layers::kPoly);
    EXPECT_GT(snap.evict_geometry(layers::kPoly), 0u);
    const std::uint64_t before = budget.rehydrations();
    EXPECT_EQ(snap.layer(layers::kPoly).region(), shadow.at(layers::kPoly));
    EXPECT_EQ(budget.rehydrations(), before + 1);
  }
}

TEST(ParseByteSize, AcceptsHumanSizes) {
  std::size_t v = 0;
  EXPECT_TRUE(parse_byte_size("123", &v));
  EXPECT_EQ(v, 123u);
  EXPECT_TRUE(parse_byte_size("64k", &v));
  EXPECT_EQ(v, 64u << 10);
  EXPECT_TRUE(parse_byte_size("2M", &v));
  EXPECT_EQ(v, 2u << 20);
  EXPECT_TRUE(parse_byte_size("1GiB", &v));
  EXPECT_EQ(v, 1u << 30);
  EXPECT_TRUE(parse_byte_size("512kb", &v));
  EXPECT_EQ(v, 512u << 10);
  EXPECT_FALSE(parse_byte_size("", &v));
  EXPECT_FALSE(parse_byte_size("x12", &v));
  EXPECT_FALSE(parse_byte_size("12q", &v));
  EXPECT_FALSE(parse_byte_size("12kx", &v));
  // Sizes past std::size_t are rejected, not wrapped (to 0 = unlimited).
  EXPECT_TRUE(parse_byte_size("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<std::size_t>::max());
  EXPECT_FALSE(parse_byte_size("18446744073709551616", &v));
  EXPECT_TRUE(parse_byte_size("17179869183G", &v));
  EXPECT_EQ(v, std::size_t{17179869183} << 30);
  EXPECT_FALSE(parse_byte_size("17179869184G", &v));
  EXPECT_FALSE(parse_byte_size("99999999999999999999999k", &v));
}

TEST(ParseCount, RejectsSignsJunkAndValuesPastTheMaximum) {
  constexpr std::uint64_t kU32 = std::numeric_limits<unsigned>::max();
  EXPECT_EQ(parse_count("--threads", "0", kU32), 0u);
  EXPECT_EQ(parse_count("--threads", "8", kU32), 8u);
  EXPECT_EQ(parse_count("--threads", "4294967295", kU32), kU32);
  EXPECT_EQ(parse_count("--tcp", "65535", 65535), 65535u);
  EXPECT_EQ(parse_count("--n", "18446744073709551615",
                        std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "2k",
                          "4294967296", "99999999999999999999999"}) {
    EXPECT_THROW(parse_count("--threads", bad, kU32), std::runtime_error)
        << "'" << bad << "'";
  }
  EXPECT_THROW(parse_count("--tcp", "65536", 65535), std::runtime_error);
  EXPECT_THROW(parse_count("--n", "18446744073709551616",
                           std::numeric_limits<std::uint64_t>::max()),
               std::runtime_error);
  // A small maximum below a single digit still bounds the value.
  EXPECT_THROW(parse_count("--k", "9", 5), std::runtime_error);
  try {
    parse_count("--workers", "-1", kU32);
    ADD_FAILURE() << "-1 must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "--workers: expected a whole number from 0 to 4294967295, "
                 "got '-1'");
  }
}

TEST(ParseThreshold, AcceptsOnlyFiniteNonNegativeNumbers) {
  EXPECT_EQ(parse_threshold("--min-gain", "0"), 0.0);
  EXPECT_EQ(parse_threshold("--min-gain", "0.25"), 0.25);
  EXPECT_EQ(parse_threshold("--min-gain", "1e-3"), 1e-3);
  for (const char* bad : {"", "abc", "0.1x", "nan", "NaN", "inf", "-inf",
                          "-1", "-0.5", " 1", "1 ", "1e999"}) {
    EXPECT_THROW(parse_threshold("--min-gain", bad), std::runtime_error)
        << "'" << bad << "'";
  }
  try {
    parse_threshold("--min-gain", "nan");
    ADD_FAILURE() << "nan must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "--min-gain: expected a finite number of at least 0, got "
                 "'nan'");
  }
}

// A malformed DFMKIT_SNAPSHOT_BUDGET fails loudly instead of silently
// meaning "unlimited"; an explicit budget does not read it.
TEST(ParseByteSize, MalformedBudgetVariableThrows) {
  const char* prev = std::getenv("DFMKIT_SNAPSHOT_BUDGET");
  const std::string saved = prev != nullptr ? prev : "";
  ASSERT_EQ(::setenv("DFMKIT_SNAPSHOT_BUDGET", "64MB!", 1), 0);
  DfmFlowOptions opt;
  EXPECT_THROW(resolved_memory_budget(opt), std::runtime_error);
  opt.memory_budget = 4096;
  EXPECT_EQ(resolved_memory_budget(opt), 4096u);
  if (prev != nullptr) {
    ::setenv("DFMKIT_SNAPSHOT_BUDGET", saved.c_str(), 1);
  } else {
    ::unsetenv("DFMKIT_SNAPSHOT_BUDGET");
  }
}

}  // namespace
}  // namespace dfm

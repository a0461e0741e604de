// Pins the exact output of the scanline kernels: sweep_boolean for all
// four operators, covered_at_least for k = 1..3 and decompose, digested
// rect for rect and in emitted order over fixed seeded inputs. The
// bitmap property tests compare point sets only; this one fails when a
// rewrite of a kernel changes the decomposition or the order of its
// rects, even where the covered points stay the same. The inputs come
// from a self-contained generator, so the digests do not depend on the
// standard library's distributions.
#include "geometry/region.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dfm {
namespace {

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  Coord below(Coord n) {
    return static_cast<Coord>(next() % static_cast<std::uint64_t>(n));
  }
};

// FNV-1a over each rect's four coordinates, then the rect count, so two
// outputs that differ in order, split or length digest differently.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void rects(const std::vector<Rect>& rs) {
    for (const Rect& r : rs) {
      word(static_cast<std::uint64_t>(r.lo.x));
      word(static_cast<std::uint64_t>(r.lo.y));
      word(static_cast<std::uint64_t>(r.hi.x));
      word(static_cast<std::uint64_t>(r.hi.y));
    }
    word(rs.size());
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// A rect soup with some zero-length (empty) rects among it; a small
// extent makes many edges coincide.
std::vector<Rect> soup(SplitMix& rng, int n, Coord extent) {
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    const Coord x = rng.below(extent), y = rng.below(extent);
    const Coord w = rng.below(extent / 3 + 1), h = rng.below(extent / 3 + 1);
    out.push_back(Rect{x, y, x + w, y + h});
  }
  return out;
}

// A CCW comb: a spine with teeth of random length to its right, so a
// slab holds several intervals and equal teeth continue one band.
Polygon comb(SplitMix& rng, int teeth) {
  const Coord s = 1 + rng.below(5), w = 1 + rng.below(8);
  std::vector<Point> pts{{0, 0}, {w, 0}};
  for (int k = 0; k < teeth; ++k) {
    const Coord len = 1 + rng.below(4) * 3;
    const Coord y0 = (2 * k + 1) * s, y1 = (2 * k + 2) * s;
    pts.push_back({w, y0});
    pts.push_back({w + len, y0});
    pts.push_back({w + len, y1});
    pts.push_back({w, y1});
  }
  const Coord top = (2 * teeth + 1) * s;
  pts.push_back({w, top});
  pts.push_back({0, top});
  return Polygon(std::move(pts));
}

struct Case {
  int n;
  Coord extent;
};
constexpr Case kCases[] = {{1, 40}, {6, 40}, {30, 40}, {200, 60},
                           {30, 10000}, {400, 5000}};
constexpr std::uint64_t kSeeds = 8;

TEST(BooleanPinned, SweepOutputsMatchRecordedDigests) {
  Digest ops[4];
  Digest cover[3];
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (const Case& c : kCases) {
      SplitMix rng{seed * 1000003u + static_cast<std::uint64_t>(c.n)};
      const std::vector<Rect> a = soup(rng, c.n, c.extent);
      const std::vector<Rect> b = soup(rng, c.n, c.extent);
      for (int op = 0; op < 4; ++op) {
        ops[op].rects(sweep_boolean(a, b, static_cast<BoolOp>(op)));
      }
      ops[0].rects(sweep_boolean(a, {}, BoolOp::kOr));
      for (int k = 1; k <= 3; ++k) {
        cover[k - 1].rects(covered_at_least(a, k).raw());
      }
    }
  }
  EXPECT_EQ(hex(ops[0].h), "51599f029980b7e5") << "sweep_boolean kOr";
  EXPECT_EQ(hex(ops[1].h), "eb23b6c6be0b3877") << "sweep_boolean kAnd";
  EXPECT_EQ(hex(ops[2].h), "8fa03cf50bd703f3") << "sweep_boolean kSub";
  EXPECT_EQ(hex(ops[3].h), "b7243905c69eb8d9") << "sweep_boolean kXor";
  EXPECT_EQ(hex(cover[0].h), "0552e366c71f98e7") << "covered_at_least k=1";
  EXPECT_EQ(hex(cover[1].h), "b62221e9dedd6add") << "covered_at_least k=2";
  EXPECT_EQ(hex(cover[2].h), "c81bc50fd9269203") << "covered_at_least k=3";
}

TEST(BooleanPinned, DecomposeOutputMatchesRecordedDigest) {
  Digest d;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SplitMix rng{seed * 7919u};
    for (int teeth : {1, 3, 9}) d.rects(decompose(comb(rng, teeth)));
    // Contours traced from random regions: U, L and staircase shapes.
    Region r;
    for (const Rect& x : soup(rng, 25, 60)) r.add(x);
    for (const Polygon& p : r.to_polygons()) d.rects(decompose(p));
  }
  EXPECT_EQ(hex(d.h), "413aadb7bcf1dfbf") << "decompose";
}

}  // namespace
}  // namespace dfm

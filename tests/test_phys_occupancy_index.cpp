// Differential and golden suite for the placement engine.
//
// The occupancy index, run-skipping scans, spatial buckets and best-first
// scan are pure accelerators: their contract is bit-identical behaviour to
// the naive byte-grid / linear-scan / in-order-scan implementations kept in
// tests/oracle.  These tests drive the production paths and the oracles
// with thousands of randomized operations and assert exact agreement, then
// pin full run_comparison reports to digests recorded when the production
// scan was last checked against the in-order scan at flow scale.
#include "uld3d/phys/occupancy_index.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "floorplan_oracle.hpp"
#include "placer_oracle.hpp"
#include "uld3d/phys/floorplan.hpp"
#include "uld3d/phys/m3d_flow.hpp"
#include "uld3d/phys/placer.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/rng.hpp"
#include "uld3d/util/simd.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::phys {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_rect(const Rect& a, const Rect& b) {
  return same_bits(a.x0, b.x0) && same_bits(a.y0, b.y0) &&
         same_bits(a.x1, b.x1) && same_bits(a.y1, b.y1);
}

TEST(OccupancyIndex, MatchesByteGridOnRandomMarkQuerySequences) {
  Rng rng(0xace);
  const std::int64_t nx = 57;  // deliberately non-square, non-power-of-two
  const std::int64_t ny = 43;
  std::vector<std::uint8_t> grid(static_cast<std::size_t>(nx * ny), 0);
  OccupancyIndex index;

  const auto naive_count = [&](std::int64_t bx0, std::int64_t by0,
                               std::int64_t bx1, std::int64_t by1) {
    std::int64_t n = 0;
    for (std::int64_t y = std::max<std::int64_t>(by0, 0);
         y < std::min(by1, ny); ++y) {
      for (std::int64_t x = std::max<std::int64_t>(bx0, 0);
           x < std::min(bx1, nx); ++x) {
        if (grid[static_cast<std::size_t>(y * nx + x)] != 0) ++n;
      }
    }
    return n;
  };
  const auto naive_rightmost = [&](std::int64_t bx0, std::int64_t by0,
                                   std::int64_t bx1, std::int64_t by1) {
    std::int64_t rightmost = -1;
    for (std::int64_t y = std::max<std::int64_t>(by0, 0);
         y < std::min(by1, ny); ++y) {
      for (std::int64_t x = std::max<std::int64_t>(bx0, 0);
           x < std::min(bx1, nx); ++x) {
        if (grid[static_cast<std::size_t>(y * nx + x)] != 0 && x > rightmost) {
          rightmost = x;
        }
      }
    }
    return rightmost;
  };
  // Windows hang off every edge now and then to exercise the clamping.
  const auto random_window = [&](std::int64_t& bx0, std::int64_t& by0,
                                 std::int64_t& bx1, std::int64_t& by1) {
    bx0 = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(nx + 8))) - 4;
    by0 = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(ny + 8))) - 4;
    bx1 = bx0 + static_cast<std::int64_t>(rng.below(20));
    by1 = by0 + static_cast<std::int64_t>(rng.below(20));
  };

  std::int64_t marks = 0;
  for (int op = 0; op < 4000; ++op) {
    std::int64_t bx0 = 0, by0 = 0, bx1 = 0, by1 = 0;
    random_window(bx0, by0, bx1, by1);
    if (rng.below(5) == 0) {  // ~20% marks, 80% queries (the hot side)
      for (std::int64_t y = std::max<std::int64_t>(by0, 0);
           y < std::min(by1, ny); ++y) {
        for (std::int64_t x = std::max<std::int64_t>(bx0, 0);
             x < std::min(bx1, nx); ++x) {
          grid[static_cast<std::size_t>(y * nx + x)] = 1;
        }
      }
      index.invalidate();
      ++marks;
      continue;
    }
    index.refresh(grid.data(), nx, ny);
    ASSERT_EQ(index.count(bx0, by0, bx1, by1), naive_count(bx0, by0, bx1, by1))
        << "op " << op;
    ASSERT_EQ(index.rect_clear(bx0, by0, bx1, by1),
              naive_count(bx0, by0, bx1, by1) == 0)
        << "op " << op;
    ASSERT_EQ(index.rightmost_occupied(bx0, by0, bx1, by1),
              naive_rightmost(bx0, by0, bx1, by1))
        << "op " << op;
    ASSERT_EQ(index.occupied_bins(), naive_count(0, 0, nx, ny)) << "op " << op;
  }
  EXPECT_GT(marks, 100);  // the sequence actually mutated the grid
}

TEST(OccupancyIndex, SatBuildIdenticalWithSimdKernelsForcedScalar) {
  // The SAT/prefix-max build runs on util/simd prefix kernels; forcing the
  // scalar kernels must reproduce every query answer exactly (integer ops,
  // so SIMD==scalar is bitwise, not approximate).
  Rng rng(0xbee);
  const std::int64_t nx = 61;
  const std::int64_t ny = 37;
  std::vector<std::uint8_t> grid(static_cast<std::size_t>(nx * ny), 0);
  for (auto& cell : grid) cell = rng.below(3) == 0 ? 1 : 0;

  OccupancyIndex simd_index;
  simd_index.refresh(grid.data(), nx, ny);

  simd::set_force_scalar(true);
  OccupancyIndex scalar_index;
  scalar_index.refresh(grid.data(), nx, ny);
  simd::set_force_scalar(false);

  EXPECT_EQ(simd_index.occupied_bins(), scalar_index.occupied_bins());
  for (int q = 0; q < 500; ++q) {
    const std::int64_t bx0 =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(nx + 8))) - 4;
    const std::int64_t by0 =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(ny + 8))) - 4;
    const std::int64_t bx1 = bx0 + static_cast<std::int64_t>(rng.below(24));
    const std::int64_t by1 = by0 + static_cast<std::int64_t>(rng.below(24));
    ASSERT_EQ(simd_index.count(bx0, by0, bx1, by1),
              scalar_index.count(bx0, by0, bx1, by1))
        << "q " << q;
    ASSERT_EQ(simd_index.rightmost_occupied(bx0, by0, bx1, by1),
              scalar_index.rightmost_occupied(bx0, by0, bx1, by1))
        << "q " << q;
  }
}

TEST(OccupancyIndex, StaleQueryIsAnInvariantViolation) {
  OccupancyIndex index;
  EXPECT_THROW(index.count(0, 0, 1, 1), InvariantError);
  const std::vector<std::uint8_t> grid(4, 0);
  index.refresh(grid.data(), 2, 2);
  EXPECT_EQ(index.count(0, 0, 2, 2), 0);
  index.invalidate();
  EXPECT_THROW(index.occupied_bins(), InvariantError);
}

TEST(OccupancyIndex, RefreshIsIdempotentWhenFresh) {
  std::vector<std::uint8_t> grid(9, 0);
  grid[4] = 1;
  OccupancyIndex index;
  index.refresh(grid.data(), 3, 3);
  EXPECT_EQ(index.occupied_bins(), 1);
  // A fresh index ignores grid edits until invalidated (rebuild-on-mark is
  // the caller's contract).
  grid[0] = 1;
  index.refresh(grid.data(), 3, 3);
  EXPECT_EQ(index.occupied_bins(), 1);
  index.invalidate();
  index.refresh(grid.data(), 3, 3);
  EXPECT_EQ(index.occupied_bins(), 2);
}

TEST(RectBuckets, MatchesLinearScanOnRandomInsertRemoveQuery) {
  Rng rng(0xbee);
  const double side = 5000.0;
  RectBuckets buckets(side, side, 32);
  std::vector<std::optional<Rect>> naive(64);

  const auto random_rect = [&] {
    const double x = rng.uniform() * side * 0.9;
    const double y = rng.uniform() * side * 0.9;
    const double w = 10.0 + rng.uniform() * side * 0.2;
    const double h = 10.0 + rng.uniform() * side * 0.2;
    return Rect::at(x, y, w, h);
  };

  for (int op = 0; op < 5000; ++op) {
    const std::size_t id = static_cast<std::size_t>(rng.below(naive.size()));
    switch (rng.below(4)) {
      case 0:  // insert (replacing any previous rect under this id)
        if (naive[id].has_value()) buckets.remove(id, *naive[id]);
        naive[id] = random_rect();
        buckets.insert(id, *naive[id]);
        break;
      case 1:  // remove
        if (naive[id].has_value()) {
          buckets.remove(id, *naive[id]);
          naive[id].reset();
        }
        break;
      default: {  // query, sometimes with self-exclusion
        const Rect q = random_rect();
        const std::size_t self =
            rng.below(2) == 0 ? static_cast<std::size_t>(rng.below(naive.size()))
                              : naive.size();
        bool expect_hit = false;
        for (std::size_t i = 0; i < naive.size(); ++i) {
          if (i != self && naive[i].has_value() && naive[i]->overlaps(q)) {
            expect_hit = true;
            break;
          }
        }
        const auto hit = buckets.overlaps_any(q, self);
        ASSERT_EQ(hit.has_value(), expect_hit) << "op " << op;
        if (hit.has_value()) {
          EXPECT_TRUE(hit->overlaps(q)) << "op " << op;
        }
        break;
      }
    }
  }
}

TEST(FloorplanDifferential, QueriesAgreeWithIndexOnAndOff) {
  // "Index off" is the byte-grid oracle: every query walks the bytes.
  Rng rng(0xf100);
  const auto tier = tech::TierKind::kSiCmosFeol;
  for (int trial = 0; trial < 8; ++trial) {
    Floorplan fp(4000.0, 3000.0, tech::TierStack::make_m3d_130nm(), 50.0);
    oracle::GridFloorplan grid(4000.0, 3000.0,
                               tech::TierStack::make_m3d_130nm(), 50.0);
    const auto random_rect = [&] {
      const double x = rng.uniform() * 3900.0;
      const double y = rng.uniform() * 2900.0;
      const double w = 20.0 + rng.uniform() * 800.0;
      const double h = 20.0 + rng.uniform() * 800.0;
      return Rect::at(x, y, w, h);
    };
    for (int op = 0; op < 300; ++op) {
      const Rect r = random_rect();
      switch (rng.below(4)) {
        case 0: {
          // Both must agree BEFORE the mutation decides.
          ASSERT_EQ(fp.region_free(tier, r), grid.region_free(tier, r))
              << "trial " << trial << " op " << op;
          ASSERT_EQ(fp.allocate_region(tier, r), grid.allocate_region(tier, r))
              << "trial " << trial << " op " << op;
          break;
        }
        case 1: {
          const double w = 100.0 + rng.uniform() * 1000.0;
          const double h = 100.0 + rng.uniform() * 1000.0;
          const auto fast_found = fp.find_free_region(tier, w, h);
          const auto naive_found = grid.find_free_region(tier, w, h);
          ASSERT_EQ(fast_found.has_value(), naive_found.has_value())
              << "trial " << trial << " op " << op;
          if (fast_found.has_value()) {
            ASSERT_TRUE(same_rect(*fast_found, *naive_found))
                << "trial " << trial << " op " << op;
          }
          break;
        }
        case 2:
          ASSERT_EQ(fp.rightmost_occupied_col(tier, r),
                    grid.rightmost_occupied_col(tier, r))
              << "trial " << trial << " op " << op;
          break;
        default:
          ASSERT_TRUE(same_bits(fp.free_area_um2(tier),
                                grid.free_area_um2(tier)))
              << "trial " << trial << " op " << op;
          ASSERT_TRUE(same_bits(fp.utilization(tier), grid.utilization(tier)))
              << "trial " << trial << " op " << op;
          break;
      }
    }
  }
}

TEST(FloorplanDifferential, PlaceMacroAnywhereAgreesWithNaiveScan) {
  Rng seq(0x9a);
  for (int trial = 0; trial < 6; ++trial) {
    Floorplan fast_fp(3000.0, 3000.0, tech::TierStack::make_m3d_130nm(), 50.0);
    oracle::GridFloorplan naive_fp(3000.0, 3000.0,
                                   tech::TierStack::make_m3d_130nm(), 50.0);
    for (int op = 0; op < 25; ++op) {
      const double area = 1.0e4 + seq.uniform() * 8.0e5;
      const bool m3d = seq.below(2) == 0;
      const std::string name = "m" + std::to_string(op);
      const Macro macro = m3d ? Macro::rram_array_m3d(name, area)
                              : Macro::rram_array_2d(name, area);
      const auto fast_placed = fast_fp.place_macro_anywhere(macro);
      const auto naive_placed = naive_fp.place_macro_anywhere(macro);
      ASSERT_EQ(fast_placed.has_value(), naive_placed.has_value())
          << "trial " << trial << " op " << op;
      if (fast_placed.has_value()) {
        ASSERT_TRUE(same_rect(*fast_placed, *naive_placed))
            << "trial " << trial << " op " << op;
      }
    }
  }
}

/// One randomized placer input, rebuilt from scratch for the production
/// placer and for the oracle so both start from identical floorplans.
struct PlacerCase {
  double width = 0.0;
  double height = 0.0;
  double bin = 0.0;
  PlacerOptions options;
  std::vector<std::pair<Macro, Point>> macros;  ///< lower-left corners
  std::vector<SoftBlock> blocks;
  std::uint64_t seed = 0;
};

/// Places `c.macros` (some may not fit; the outcome is deterministic) and
/// returns the floorplan: a phys::Floorplan or the oracle's byte grid.
template <typename Plan>
Plan build_floorplan(const PlacerCase& c) {
  Plan fp(c.width, c.height, tech::TierStack::make_m3d_130nm(), c.bin);
  for (const auto& [macro, at] : c.macros) fp.place_macro(macro, at.x, at.y);
  return fp;
}

PlacerCase random_placer_case(Rng& rng, int trial) {
  // Integral (step, bin) pairs where bin has more factors of two than
  // step/2: an odd multiple of step/2 is then never on the bin lattice, so
  // a placed corner tells which scan produced it (see the coverage counts
  // below).  The last step is not exactly representable, so its accumulated
  // lattice drifts from k * step.
  constexpr std::pair<double, double> kLattices[] = {
      {100.0, 40.0}, {120.0, 48.0}, {80.0, 32.0}, {70.3, 40.0}};
  const auto [step, bin] = kLattices[trial % 4];
  PlacerCase c;
  c.width = 800.0 + std::floor(rng.uniform() * 1800.0);
  c.height = 800.0 + std::floor(rng.uniform() * 1800.0);
  c.bin = bin;
  c.options.grid_step_um = step;
  c.options.anneal_moves = rng.below(3) == 0 ? 300 : 0;
  c.seed = rng();

  if (trial % 6 == 5) {
    // A pocket exactly one lattice-aligned square wide and tall, at odd
    // multiples of step/2 and walled in on the Si tier: no shape fits at a
    // multiple of step, so only the step/2 second-chance scan places it.
    const double side = 2.0 * step;
    const auto odd_half_step = [&] {
      return step / 2 * static_cast<double>(2 * rng.below(3) + 1);
    };
    const double gx = odd_half_step();
    const double gy = odd_half_step();
    const double x0 = std::floor(gx / bin) * bin;
    const double y0 = std::floor(gy / bin) * bin;
    const double x1 = std::ceil((gx + side) / bin) * bin;
    const double y1 = std::ceil((gy + side) / bin) * bin;
    const auto wall = [&](double x, double y, double w, double h) {
      Macro macro;
      macro.name = "wall" + std::to_string(c.macros.size());
      macro.width_um = w;
      macro.height_um = h;
      c.macros.emplace_back(macro, Point{x, y});
    };
    wall(0.0, 0.0, x0, c.height);
    wall(x1, 0.0, c.width - x1, c.height);
    wall(x0, 0.0, x1 - x0, y0);
    wall(x0, y1, x1 - x0, c.height - y1);
    SoftBlock block;
    block.name = "pocket";
    block.area_um2 = side * side;
    for (std::uint64_t a = rng.below(4); a > 0; --a) {
      block.affinities.emplace_back(static_cast<std::size_t>(rng.below(4)),
                                    rng.uniform());
    }
    c.blocks.push_back(block);
    return c;
  }

  // Fixed macros; about half have their centre on the scan lattice, which
  // together with integer block sides forces exact cost ties.
  const auto n_macros = static_cast<int>(rng.below(5));
  for (int m = 0; m < n_macros; ++m) {
    Macro macro;
    macro.name = "fixed" + std::to_string(m);
    macro.width_um = 2.0 * (50.0 + std::floor(rng.uniform() * 200.0));
    macro.height_um = 2.0 * (50.0 + std::floor(rng.uniform() * 200.0));
    switch (rng.below(3)) {
      case 0:  // blocks Si
        break;
      case 1:  // M3D array: Si stays free underneath
        macro.blocks_si = false;
        macro.blocks_rram = true;
        break;
      default:
        macro.blocks_rram = true;
        break;
    }
    Point at{std::floor(rng.uniform() * (c.width - macro.width_um)),
             std::floor(rng.uniform() * (c.height - macro.height_um))};
    if (rng.below(2) == 0) {
      // Snap the centre to the nearest lattice point.
      const auto snap = [&](double lo, double size) {
        return std::max(0.0, std::round((lo + size / 2) / step) * step -
                                 size / 2);
      };
      at = {snap(at.x, macro.width_um), snap(at.y, macro.height_um)};
    }
    c.macros.emplace_back(macro, at);
  }
  const std::size_t n_fixed = build_floorplan<Floorplan>(c).macros().size();

  // Soft blocks filling 10%..110% of the die, so the step/2 and shelf
  // fallbacks (and outright failures) are all reached.
  const double fill = 0.1 + rng.uniform() * 1.0;
  const auto n_blocks = 1 + static_cast<int>(rng.below(7));
  for (int b = 0; b < n_blocks; ++b) {
    SoftBlock block;
    block.name = "b" + std::to_string(b);
    if (rng.below(2) == 0) {
      // Lattice-aligned square: integer sides that are multiples of step.
      const double side = step * static_cast<double>(1 + rng.below(4));
      block.area_um2 = side * side;
    } else {
      block.area_um2 = fill * c.width * c.height / n_blocks *
                       (0.5 + rng.uniform());
    }
    block.aspect = rng.below(3) == 0 ? 0.5 + rng.uniform() * 1.5 : 1.0;
    block.tier = rng.below(5) == 0 ? tech::TierKind::kRram
                                   : tech::TierKind::kSiCmosFeol;
    const auto n_aff = n_fixed == 0 ? 0 : static_cast<int>(rng.below(4));
    for (int a = 0; a < n_aff; ++a) {
      constexpr double kWeights[] = {1.0, 0.5, 0.0};
      const std::uint64_t pick = rng.below(4);
      const double weight = pick < 3 ? kWeights[pick] : rng.uniform() * 2.0;
      block.affinities.emplace_back(
          static_cast<std::size_t>(rng.below(n_fixed)), weight);
    }
    c.blocks.push_back(block);
  }
  return c;
}

TEST(PlacerDifferential, BestFirstScanMatchesReferenceScan) {
  Rng rng(0x5ca9);
  int second_chance = 0;  // placements only the step/2 scan can produce
  int shelf = 0;          // placements only the shelf packing can produce
  int failed = 0;
  int ties = 0;           // zero-affinity or zero-weight blocks
  for (int trial = 0; trial < 300; ++trial) {
    const PlacerCase c = random_placer_case(rng, trial);
    Floorplan fp = build_floorplan<Floorplan>(c);
    Rng fast_rng(c.seed);
    const PlacementResult fast =
        Placer(c.options).place(fp, c.blocks, fast_rng);
    oracle::GridFloorplan grid = build_floorplan<oracle::GridFloorplan>(c);
    Rng naive_rng(c.seed);
    const PlacementResult naive =
        oracle::reference_place(grid, c.blocks, c.options, naive_rng);
    ASSERT_EQ(fast.success, naive.success) << "trial " << trial;
    ASSERT_EQ(fast.unplaced, naive.unplaced) << "trial " << trial;
    ASSERT_EQ(fast.source_index, naive.source_index) << "trial " << trial;
    ASSERT_TRUE(same_bits(fast.total_hpwl_um, naive.total_hpwl_um))
        << "trial " << trial;
    ASSERT_EQ(fast.blocks.size(), naive.blocks.size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast.blocks.size(); ++i) {
      ASSERT_TRUE(same_rect(fast.blocks[i].rect, naive.blocks[i].rect))
          << "trial " << trial << " block " << i;
    }
    // Both committed the same regions.
    for (const auto tier :
         {tech::TierKind::kSiCmosFeol, tech::TierKind::kRram}) {
      ASSERT_TRUE(same_bits(fp.utilization(tier), grid.utilization(tier)))
          << "trial " << trial;
    }

    const double step = c.options.grid_step_um;
    const auto on = [](double v, double pitch) {
      return std::fmod(v, pitch) == 0.0;
    };
    for (const auto& placed : naive.blocks) {
      if (!on(step, 1.0)) break;  // classification needs an integral lattice
      for (const double v : {placed.rect.x0, placed.rect.y0}) {
        if (on(v, step / 2) && !on(v, step)) ++second_chance;
        if (on(v, c.bin) && !on(v, step / 2)) ++shelf;
      }
    }
    if (!naive.success) ++failed;
    for (const auto& block : c.blocks) {
      bool inert = true;
      for (const auto& [index, weight] : block.affinities) {
        inert = inert && weight == 0.0;
      }
      if (inert) ++ties;
    }
  }
  EXPECT_GT(second_chance, 0);
  EXPECT_GT(shelf, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GT(ties, 0);
}

FlowInput case_study_input(double capacity_mb = 64.0) {
  FlowInput input;
  input.rram_capacity_bits = units::mb_to_bits(capacity_mb);
  input.cs_sram_area_um2 = 1.97e6;
  input.cs_logic_area_um2 = 4.6e6;
  input.cs_logic_gates = 295600;
  return input;
}

/// FNV-1a over the exact bits of every value a flow comparison reports.
class Digest {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add_u64(static_cast<std::uint64_t>(v)); }
  void add(bool v) { add_u64(v ? 1u : 0u); }
  void add(const std::string& s) {
    add_u64(s.size());
    for (const char c : s) add_u64(static_cast<unsigned char>(c));
  }
  void add(const Rect& r) {
    add(r.x0);
    add(r.y0);
    add(r.x1);
    add(r.y1);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void digest_report(Digest& d, const DesignReport& r) {
  d.add(r.feasible);
  d.add_u64(r.unplaced.size());
  for (const auto& name : r.unplaced) d.add(name);
  d.add_u64(r.placed_macros.size());
  for (const auto& m : r.placed_macros) {
    d.add(m.macro.name);
    d.add(m.rect);
  }
  d.add_u64(r.placed_blocks.size());
  for (const auto& b : r.placed_blocks) {
    d.add(b.macro.name);
    d.add(b.rect);
  }
  d.add(r.die_width_um);
  d.add(r.die_height_um);
  d.add(r.footprint_mm2);
  d.add(r.si_utilization);
  d.add(r.cs_placed);
  d.add(r.intra_cs_wirelength_um);
  d.add(r.placement_hpwl_um);
  d.add(r.inter_block_wirelength_um);
  d.add(r.total_wirelength_um);
  d.add_u64(r.bus_routes.size());
  for (const auto& route : r.bus_routes) {
    d.add(route.from.x);
    d.add(route.from.y);
    d.add(route.to.x);
    d.add(route.to.y);
    d.add(route.tracks);
  }
  d.add(r.buffers);
  d.add(r.ilv_count);
  d.add(r.congestion_peak);
  d.add(r.congestion_overflow);
  d.add(r.timing.critical_path_ns);
  d.add(r.total_power_mw);
  d.add(r.upper_tier_power_fraction);
  d.add(r.peak_density_mw_per_mm2);
}

std::uint64_t comparison_digest(const FlowComparison& c) {
  Digest d;
  digest_report(d, c.design_2d);
  digest_report(d, c.design_3d);
  d.add(c.iso_footprint);
  d.add(c.wirelength_per_cs_ratio);
  d.add(c.peak_density_ratio);
  return d.value();
}

/// Pins a full run_comparison with `banks` M3D CSs (8 MB of RRAM each, the
/// case-study ratio) to the digest recorded when the best-first scan and
/// the in-order reference scan were last run side by side at this scale
/// and produced the same bits.  A digest change means placements moved:
/// run PlacerDifferential first, and re-record only for an intended
/// change to the model.
void expect_comparison_digest(std::int64_t banks, std::uint64_t expected) {
  const M3dFlow flow;
  const FlowInput input = case_study_input(8.0 * static_cast<double>(banks));
  const FlowComparison got = flow.run_comparison(input, banks);
  EXPECT_TRUE(got.design_2d.feasible);
  EXPECT_TRUE(got.design_3d.feasible);
  EXPECT_EQ(comparison_digest(got), expected)
      << std::hex << "digest 0x" << comparison_digest(got) << std::dec
      << " (M3D placement HPWL " << got.design_3d.placement_hpwl_um
      << " um, Si utilization " << got.design_3d.si_utilization << ")";
}

TEST(PlacementDeterminism, RunComparisonMatchesGolden8Banks) {
  expect_comparison_digest(8, 0x566e34834dde8bb4ull);
}

TEST(PlacementDeterminism, RunComparisonMatchesGolden15Banks) {
  expect_comparison_digest(15, 0x18eb8f9c6a0b7641ull);
}

TEST(PlacementDeterminism, RunComparisonMatchesGolden32Banks) {
  expect_comparison_digest(32, 0x949bc615446c0573ull);
}

TEST(PlacerMetrics, CountersTrackScanAndSkipActivity) {
  MetricsRegistry::set_enabled(true);
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("phys.placer.candidates_scanned").reset();
  registry.counter("phys.placer.candidates_skipped").reset();
  registry.counter("phys.placer.legal_checks").reset();
  registry.counter("phys.placer.lb_pruned").reset();

  Floorplan fp(6000.0, 6000.0, tech::TierStack::make_m3d_130nm(), 100.0);
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_2d("m", 16.0e6), 0.0, 0.0));
  SoftBlock block;
  block.name = "a";
  block.area_um2 = 9.0e6;
  block.tier = tech::TierKind::kSiCmosFeol;
  Rng rng(1);
  const Placer placer;
  const auto result = placer.place(fp, {block}, rng);
  MetricsRegistry::set_enabled(false);
  ASSERT_TRUE(result.success);
  EXPECT_GT(registry.counter("phys.placer.candidates_scanned").value(), 0u);
  EXPECT_GT(registry.counter("phys.placer.candidates_skipped").value(), 0u);
  EXPECT_GT(registry.counter("phys.placer.legal_checks").value(), 0u);
  // Once the first legal spot is found, the other aspects' rows are bounded
  // above it (distortion penalty) and are never priced.
  EXPECT_GT(registry.counter("phys.placer.lb_pruned").value(), 0u);
  // Legality is only ever checked on candidates that were not skipped.
  EXPECT_LE(registry.counter("phys.placer.legal_checks").value(),
            registry.counter("phys.placer.candidates_scanned").value());
}

}  // namespace
}  // namespace uld3d::phys

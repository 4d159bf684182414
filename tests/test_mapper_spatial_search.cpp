#include "uld3d/mapper/spatial_search.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "mapper_oracle.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/rng.hpp"

namespace uld3d::mapper {
namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

nn::ConvSpec conv(std::int64_t k, std::int64_t c, std::int64_t ox,
                  std::int64_t fx) {
  nn::ConvSpec s;
  s.name = "c";
  s.k = k;
  s.c = c;
  s.ox = ox;
  s.oy = ox;
  s.fx = fx;
  s.fy = fx;
  s.stride = 1;
  return s;
}

TEST(Enumerate, CountsCompositionsOfTheExponent) {
  // 2^n has C(n+3, 3) ordered power-of-two factorizations into 4 factors.
  EXPECT_EQ(enumerate_unrollings(1).size(), 1u);
  EXPECT_EQ(enumerate_unrollings(2).size(), 4u);
  EXPECT_EQ(enumerate_unrollings(1024).size(), 286u);  // C(13,3)
}

TEST(Enumerate, EveryUnrollingCoversTheBudget) {
  for (const auto& u : enumerate_unrollings(256)) {
    EXPECT_EQ(u.total_pes(), 256);
    EXPECT_GE(u.k, 1);
    EXPECT_GE(u.c, 1);
  }
}

TEST(Enumerate, RejectsNonPowerOfTwo) {
  EXPECT_THROW(enumerate_unrollings(100), PreconditionError);
  EXPECT_THROW(enumerate_unrollings(0), PreconditionError);
}

TEST(SpatialSearch, NeverWorseThanFixedDataflow) {
  const auto arch = make_table2_architecture(3);  // (32, 32)
  for (const auto& layer :
       {conv(96, 3, 55, 11), conv(256, 96, 27, 5), conv(512, 512, 7, 3)}) {
    const SpatialSearchResult r = search_spatial(layer, arch, {}, 8);
    EXPECT_GE(r.improvement(), 1.0 - 1e-9) << layer.name;
    EXPECT_EQ(r.candidates, 286u);
  }
}

TEST(SpatialSearch, SmallChannelLayerPrefersSpatialUnrolling) {
  // C = 3 wastes a (32, 32) channel-parallel array; the search must move
  // unrolling into OX/OY and beat it clearly.
  const auto arch = make_table2_architecture(3);
  const SpatialSearchResult r = search_spatial(conv(96, 3, 55, 11), arch, {}, 1);
  EXPECT_GT(r.improvement(), 2.0);
  EXPECT_LE(r.best.c, 4);                     // tiny C unrolling
  EXPECT_GT(r.best.ox * r.best.oy, 16);       // big spatial unrolling
}

TEST(SpatialSearch, WellMatchedLayerGainsLittle) {
  // A large square conv already fits the (32, 32) dataflow.
  const auto arch = make_table2_architecture(3);
  const SpatialSearchResult r =
      search_spatial(conv(512, 512, 14, 3), arch, {}, 1);
  EXPECT_LT(r.improvement(), 1.3);
}

TEST(SpatialSearch, NetworkSearchAggregates) {
  const auto arch = make_table2_architecture(3);
  const nn::Network net = nn::make_alexnet();
  const SearchedNetworkCost out = evaluate_network_with_search(net, arch, {}, 8);
  ASSERT_EQ(out.searched.layers.size(), net.size());
  EXPECT_GE(out.edp_improvement(), 1.0 - 1e-9);
  // AlexNet's CONV1 (C = 3) guarantees a real network-level win.
  EXPECT_GT(out.edp_improvement(), 1.05);
  // Vector layers are untouched by the search.
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (!net.layer(i).is_conv()) {
      EXPECT_DOUBLE_EQ(out.searched.layers[i].latency_cycles,
                       out.fixed.layers[i].latency_cycles);
    }
  }
}

// --- Admissible pruning -----------------------------------------------------
//
// The bound's contract: pruning may only skip PRICING candidates that
// provably cannot beat the incumbent — the winner, its cost, and the
// candidate count must be bit-identical to the unpruned search.  "Prune
// off" is oracle::exhaustive_search_spatial from tests/oracle, which prices
// every unrolling.

using SpatialPruneTest = ::testing::Test;

TEST_F(SpatialPruneTest, WinnerAndCostBitIdenticalPruneOnVsOff) {
  // Several layer shapes x architectures x CS counts, including the
  // small-C layer where the search moves the most and prunes the hardest,
  // plus random shapes.
  std::vector<nn::ConvSpec> layers{conv(96, 3, 55, 11), conv(256, 96, 27, 5),
                                   conv(512, 512, 7, 3)};
  Rng rng(0x5a7);
  for (int i = 0; i < 12; ++i) {
    nn::ConvSpec s = conv(static_cast<std::int64_t>(1 + rng.below(512)),
                          static_cast<std::int64_t>(1 + rng.below(512)),
                          static_cast<std::int64_t>(1 + rng.below(64)),
                          static_cast<std::int64_t>(1 + rng.below(7)));
    s.oy = static_cast<std::int64_t>(1 + rng.below(64));
    layers.push_back(s);
  }
  for (const int arch_index : {1, 3}) {
    const auto arch = make_table2_architecture(arch_index);
    for (const auto& layer : layers) {
      for (const std::int64_t n_cs : {std::int64_t{1}, std::int64_t{8}}) {
        const SpatialSearchResult pruned =
            search_spatial(layer, arch, {}, n_cs);
        const SpatialSearchResult exhaustive =
            oracle::exhaustive_search_spatial(layer, arch, {}, n_cs);

        EXPECT_EQ(pruned.best.k, exhaustive.best.k);
        EXPECT_EQ(pruned.best.c, exhaustive.best.c);
        EXPECT_EQ(pruned.best.ox, exhaustive.best.ox);
        EXPECT_EQ(pruned.best.oy, exhaustive.best.oy);
        EXPECT_TRUE(bits_equal(pruned.cost.latency_cycles,
                               exhaustive.cost.latency_cycles));
        EXPECT_TRUE(
            bits_equal(pruned.cost.energy_pj, exhaustive.cost.energy_pj));
        EXPECT_TRUE(bits_equal(pruned.fixed_cost.latency_cycles,
                               exhaustive.fixed_cost.latency_cycles));
        EXPECT_TRUE(bits_equal(pruned.fixed_cost.energy_pj,
                               exhaustive.fixed_cost.energy_pj));
        EXPECT_TRUE(
            bits_equal(pruned.improvement(), exhaustive.improvement()));
        // Pruning skips pricing, never consideration.
        EXPECT_EQ(pruned.candidates, exhaustive.candidates);
        EXPECT_EQ(exhaustive.lb_pruned, 0u);
      }
    }
  }
}

TEST_F(SpatialPruneTest, BadlyMatchedLayerActuallyPrunes) {
  // CONV1-like: most unrollings are far off the optimum, so the lower
  // bound must retire a nonzero share of the 286 candidates.
  const auto arch = make_table2_architecture(3);
  const SpatialSearchResult r = search_spatial(conv(96, 3, 55, 11), arch, {}, 1);
  EXPECT_GT(r.lb_pruned, 0u);
  EXPECT_LT(r.lb_pruned, r.candidates);
  EXPECT_EQ(r.candidates, 286u);
}

}  // namespace
}  // namespace uld3d::mapper

#include "uld3d/sim/network_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "uld3d/nn/zoo.hpp"
#include "uld3d/tech/pdk.hpp"
#include "uld3d/util/check.hpp"

namespace uld3d::sim {
namespace {

AcceleratorConfig cfg(std::int64_t n_cs) {
  const auto pdk = tech::FoundryM3dPdk::make_130nm();
  return n_cs == 1 ? AcceleratorConfig::baseline_2d(pdk)
                   : AcceleratorConfig::m3d_design(pdk, n_cs);
}

TEST(NetworkSim, TotalsSumOverLayers) {
  const nn::Network net = nn::make_resnet18();
  const NetworkResult r = simulate_network(net, cfg(1));
  ASSERT_EQ(r.layers.size(), net.size());
  std::int64_t cycles = 0;
  double energy = 0.0;
  for (const auto& l : r.layers) {
    cycles += l.cycles;
    energy += l.energy_pj;
  }
  EXPECT_EQ(r.total_cycles, cycles);
  EXPECT_NEAR(r.total_energy_pj, energy, 1e-3);
  EXPECT_DOUBLE_EQ(r.edp(), r.total_energy_pj * static_cast<double>(cycles));
}

TEST(NetworkSim, ComparisonRowsMatchRuns) {
  const nn::Network net = nn::make_resnet18();
  const DesignComparison cmp = compare_designs(net, cfg(1), cfg(8));
  ASSERT_EQ(cmp.layers.size(), net.size());
  for (std::size_t i = 0; i < cmp.layers.size(); ++i) {
    EXPECT_EQ(cmp.layers[i].cycles_2d, cmp.run_2d.layers[i].cycles);
    EXPECT_EQ(cmp.layers[i].cycles_3d, cmp.run_3d.layers[i].cycles);
    EXPECT_NEAR(cmp.layers[i].speedup,
                static_cast<double>(cmp.layers[i].cycles_2d) /
                    static_cast<double>(cmp.layers[i].cycles_3d),
                1e-12);
  }
  EXPECT_NEAR(cmp.edp_benefit, cmp.speedup / cmp.energy_ratio, 1e-9);
}

TEST(NetworkSim, MergeRowsCombinesCyclesAndEnergy) {
  const nn::Network net = nn::make_resnet18();
  DesignComparison cmp = compare_designs(net, cfg(1), cfg(8));
  const std::size_t before = cmp.layers.size();
  const auto conv1 = cmp.layers[0];
  const auto pool1 = cmp.layers[1];
  merge_rows(cmp, "CONV1", "POOL1", "CONV1+POOL");
  EXPECT_EQ(cmp.layers.size(), before - 1);
  const auto& merged = cmp.layers[0];
  EXPECT_EQ(merged.name, "CONV1+POOL");
  EXPECT_EQ(merged.cycles_2d, conv1.cycles_2d + pool1.cycles_2d);
  EXPECT_EQ(merged.cycles_3d, conv1.cycles_3d + pool1.cycles_3d);
  // The merged speedup interpolates the two rows.
  EXPECT_GT(merged.speedup, std::min(conv1.speedup, pool1.speedup));
  EXPECT_LT(merged.speedup, std::max(conv1.speedup, pool1.speedup));
}

TEST(NetworkSim, MergeUnknownRowsThrows) {
  const nn::Network net = nn::make_resnet18();
  DesignComparison cmp = compare_designs(net, cfg(1), cfg(8));
  EXPECT_THROW(merge_rows(cmp, "CONV1", "NOPE", "X"), PreconditionError);
}

TEST(NetworkSim, MoreCssNeverSlower) {
  const nn::Network net = nn::make_resnet18();
  const NetworkResult r1 = simulate_network(net, cfg(1));
  const NetworkResult r4 = simulate_network(net, cfg(4));
  const NetworkResult r8 = simulate_network(net, cfg(8));
  EXPECT_LT(r8.total_cycles, r4.total_cycles);
  EXPECT_LT(r4.total_cycles, r1.total_cycles);
}

TEST(NetworkSim, EnergyRatioNearUnity) {
  // The headline iso-energy property: M3D spends ~0.97-1.0x the 2D energy.
  for (const char* name : {"alexnet", "resnet18", "vgg16"}) {
    const nn::Network net = nn::make_network(name);
    const DesignComparison cmp = compare_designs(net, cfg(1), cfg(8));
    EXPECT_GT(cmp.energy_ratio, 0.95) << name;
    EXPECT_LT(cmp.energy_ratio, 1.02) << name;
  }
}

}  // namespace
}  // namespace uld3d::sim

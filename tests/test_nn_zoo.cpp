#include "uld3d/nn/zoo.hpp"

#include <gtest/gtest.h>

#include <set>

#include "uld3d/util/check.hpp"

namespace uld3d::nn {
namespace {

TEST(Zoo, ResNet18ParameterCountMatchesPublished) {
  // torchvision ResNet-18: ~11.7M parameters (paper: ~12M).
  const Network net = make_resnet18();
  EXPECT_GT(net.total_weights(), 11.0e6);
  EXPECT_LT(net.total_weights(), 12.5e6);
}

TEST(Zoo, ResNet18MacCountMatchesPublished) {
  // ~1.8 GMACs for one 224x224 inference.
  const Network net = make_resnet18();
  EXPECT_GT(net.total_macs(), 1.7e9);
  EXPECT_LT(net.total_macs(), 1.9e9);
}

TEST(Zoo, ResNet152ParameterCountMatchesPaper) {
  // Paper: "ResNet-152, model size ~60M parameters".
  const Network net = make_resnet152();
  EXPECT_GT(net.total_weights(), 55.0e6);
  EXPECT_LT(net.total_weights(), 65.0e6);
}

TEST(Zoo, AlexNetParameterCount) {
  // Classic AlexNet: ~61M parameters, dominated by the FC layers.
  const Network net = make_alexnet();
  EXPECT_GT(net.total_weights(), 55.0e6);
  EXPECT_LT(net.total_weights(), 65.0e6);
}

TEST(Zoo, Vgg16ParameterCount) {
  // ~138M parameters.
  const Network net = make_vgg16();
  EXPECT_GT(net.total_weights(), 130.0e6);
  EXPECT_LT(net.total_weights(), 145.0e6);
}

TEST(Zoo, Vgg16MacCount) {
  // ~15.5 GMACs.
  const Network net = make_vgg16();
  EXPECT_GT(net.total_macs(), 15.0e9);
  EXPECT_LT(net.total_macs(), 16.0e9);
}

TEST(Zoo, ResNet50ParameterCount) {
  const Network net = make_resnet50();
  EXPECT_GT(net.total_weights(), 24.0e6);
  EXPECT_LT(net.total_weights(), 27.0e6);
}

TEST(Zoo, ResNet18HasTableOneLayers) {
  const Network net = make_resnet18();
  const auto has = [&](const std::string& name) {
    for (const auto& l : net.layers()) {
      if (l.name() == name) return true;
    }
    return false;
  };
  for (const char* name :
       {"CONV1", "POOL1", "L1.0 CONV1", "L1.0 CONV2", "L2.0 DS", "L2.0 CONV1",
        "L3.0 DS", "L4.1 CONV2", "FC"}) {
    EXPECT_TRUE(has(name)) << name;
  }
}

TEST(Zoo, ResNet18DownsampleShapes) {
  const Network net = make_resnet18();
  for (const auto& l : net.layers()) {
    if (l.name() == "L2.0 DS") {
      EXPECT_EQ(l.conv().k, 128);
      EXPECT_EQ(l.conv().c, 64);
      EXPECT_EQ(l.conv().ox, 28);
      EXPECT_EQ(l.conv().fx, 1);
      EXPECT_EQ(l.conv().stride, 2);
    }
    if (l.name() == "L4.1 CONV2") {
      EXPECT_EQ(l.conv().k, 512);
      EXPECT_EQ(l.conv().c, 512);
      EXPECT_EQ(l.conv().ox, 7);
      EXPECT_EQ(l.conv().fx, 3);
    }
  }
}

TEST(Zoo, FirstConvMatchesImageNetStem) {
  for (const auto* name : {"resnet18", "resnet152"}) {
    const Network net = make_network(name);
    const auto& conv = net.layer(0).conv();
    EXPECT_EQ(conv.k, 64) << name;
    EXPECT_EQ(conv.c, 3) << name;
    EXPECT_EQ(conv.fx, 7) << name;
    EXPECT_EQ(conv.stride, 2) << name;
    EXPECT_EQ(conv.ox, 112) << name;
  }
}

TEST(Zoo, LookupIsCaseAndPunctuationInsensitive) {
  EXPECT_EQ(make_network("ResNet-18").name(), "ResNet-18");
  EXPECT_EQ(make_network("RESNET_18").name(), "ResNet-18");
  EXPECT_EQ(make_network("vgg").name(), "VGG-16");
  EXPECT_EQ(make_network("AlexNet").name(), "AlexNet");
}

TEST(Zoo, UnknownNameThrows) {
  EXPECT_THROW(make_network("lenet-5"), PreconditionError);
}

TEST(Zoo, AllZooNamesResolve) {
  for (const auto& name : zoo_names()) {
    EXPECT_NO_THROW(make_network(name)) << name;
    EXPECT_TRUE(is_zoo_network(name)) << name;
  }
}

TEST(Zoo, IsZooNetworkMatchesMakeNetwork) {
  EXPECT_TRUE(is_zoo_network("vgg"));
  EXPECT_TRUE(is_zoo_network("RESNET_18"));
  EXPECT_FALSE(is_zoo_network("lenet-5"));
  EXPECT_FALSE(is_zoo_network(""));
}

class ZooConsistency : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooConsistency, ChannelsChainThroughConvLayers) {
  // Every conv's input-channel count must be producible by some earlier
  // layer's output channels (or be the 3-channel image).  Fully-connected
  // layers consume FLATTENED features (channels x spatial), so their input
  // may also be a previous channel count times a spatial square.
  const Network net = make_network(GetParam());
  std::set<std::int64_t> available{3};
  std::set<std::int64_t> flattened;
  for (const auto& l : net.layers()) {
    if (!l.is_conv()) continue;
    const auto& c = l.conv();
    const bool is_fc = c.ox == 1 && c.oy == 1 && c.fx == 1 && c.fy == 1;
    const bool chained = available.count(c.c) > 0;
    const bool from_flatten = is_fc && flattened.count(c.c) > 0;
    EXPECT_TRUE(chained || from_flatten)
        << l.name() << " consumes unseen channel count " << c.c;
    available.insert(c.k);
    for (std::int64_t side = 1; side <= 8; ++side) {
      flattened.insert(c.k * side * side);
    }
  }
}

TEST_P(ZooConsistency, AllLayersHaveCompute) {
  const Network net = make_network(GetParam());
  for (const auto& l : net.layers()) {
    EXPECT_GT(l.ops(), 0) << l.name();
  }
  EXPECT_GT(net.total_macs(), 0);
}

TEST_P(ZooConsistency, SpatialSizesNonIncreasing) {
  // Feature-map side length never grows along the MAIN path of an ImageNet
  // classifier.  Downsample projections ("DS") sit on the parallel skip
  // path and are emitted before the block body, so they are excluded.
  const Network net = make_network(GetParam());
  std::int64_t previous = 1 << 20;
  for (const auto& l : net.layers()) {
    if (!l.is_conv()) continue;
    if (l.name().find("DS") != std::string::npos) continue;
    EXPECT_LE(l.conv().ox, previous) << l.name();
    previous = std::max<std::int64_t>(l.conv().ox, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ZooConsistency,
                         ::testing::Values("alexnet", "vgg16", "resnet18",
                                           "resnet34", "resnet50",
                                           "resnet152"));

}  // namespace
}  // namespace uld3d::nn
